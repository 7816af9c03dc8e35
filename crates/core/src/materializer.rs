//! The Materializer (paper §3, §4.2.3): maintains materialized intermediate
//! layer outputs across labeling cycles.
//!
//! When a new batch of labeled data arrives, the materializer runs the
//! *output materialization graph* — the sub-DAG from raw inputs to the
//! chosen set `V`, everything computed — over just the new records and
//! appends the results to the feature store, one chunk per cycle
//! (incremental feature materialization). When a re-plan installs a new
//! `V`, features of newly chosen nodes are backfilled over the whole
//! snapshot by the same forward-and-append body
//! ([`Materializer::materialize`]) run on that subset, over the snapshot's
//! inputs read back from the store. Train and validation splits are kept
//! under separate keys so the trainer can evaluate on features too.

use crate::backend::Backend;
use crate::multimodel::{MNodeId, MultiModelGraph};
use crate::spec::CandidateModel;
use nautilus_dnn::exec::{forward, BatchInputs};
use nautilus_dnn::graph::{GraphError, ModelGraph, NodeId, ParamInit};
use nautilus_store::{DiskBudget, StoreError, TensorStore};
use nautilus_tensor::Tensor;
use nautilus_util::telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Materializer errors.
#[derive(Debug)]
pub enum MatError {
    /// Graph construction failed.
    Graph(GraphError),
    /// Tensor execution failed.
    Exec(String),
    /// Store failure.
    Store(StoreError),
    /// The storage budget `Bdisk` would be exceeded (the planner's
    /// constraint Eq 10 (e) should prevent this; hitting it indicates the
    /// configured `r` was wrong and backoff has not caught up yet).
    Budget(nautilus_store::budget::BudgetExceeded),
}

impl std::fmt::Display for MatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatError::Graph(e) => write!(f, "materializer graph: {e}"),
            MatError::Exec(e) => write!(f, "materializer execution: {e}"),
            MatError::Store(e) => write!(f, "materializer store: {e}"),
            MatError::Budget(e) => write!(f, "materializer budget: {e}"),
        }
    }
}

impl std::error::Error for MatError {}

impl From<GraphError> for MatError {
    fn from(e: GraphError) -> Self {
        MatError::Graph(e)
    }
}

impl From<StoreError> for MatError {
    fn from(e: StoreError) -> Self {
        MatError::Store(e)
    }
}

/// The sub-DAG that computes every node in `V` from the raw input.
#[derive(Debug)]
pub struct MaterializationGraph {
    /// Executable graph (raw input + computed ancestors of `V`).
    pub graph: ModelGraph,
    /// The single raw-input placeholder.
    pub raw_input: NodeId,
    /// `(merged node, plan node, store key)` per materialized output.
    pub outputs: Vec<(MNodeId, NodeId, String)>,
    /// Forward FLOPs per record for the whole sub-DAG.
    pub fwd_flops_per_record: f64,
}

/// Builds the materialization graph for a chosen set `V`.
pub fn build_materialization_graph(
    multi: &MultiModelGraph,
    candidates: &[CandidateModel],
    v: &BTreeSet<MNodeId>,
) -> Result<MaterializationGraph, MatError> {
    // Ancestors of V.
    let mut needed = vec![false; multi.nodes.len()];
    let mut stack: Vec<MNodeId> = v.iter().copied().collect();
    while let Some(m) = stack.pop() {
        if needed[m.index()] {
            continue;
        }
        needed[m.index()] = true;
        stack.extend(multi.node(m).parents.iter().copied());
    }
    let mut graph = ModelGraph::new();
    let mut mapping: BTreeMap<MNodeId, NodeId> = BTreeMap::new();
    let mut raw_input = None;
    let mut flops = 0.0f64;
    for (i, mnode) in multi.nodes.iter().enumerate() {
        if !needed[i] {
            continue;
        }
        let m = MNodeId(i);
        if mnode.is_input {
            let id = graph.add_input(mnode.name.clone(), mnode.out_shape().clone());
            if raw_input.is_some() {
                return Err(MatError::Exec(
                    "workloads with multiple raw inputs are not supported".into(),
                ));
            }
            raw_input = Some(id);
            mapping.insert(m, id);
        } else {
            let (mi, nid) = mnode.exemplar;
            let src = candidates[mi].graph.node(nid);
            let inputs: Vec<NodeId> =
                mnode.parents.iter().map(|p| mapping[p]).collect();
            let init = if src.params.is_empty() && !src.param_shapes.is_empty() {
                ParamInit::ShapesOnly { sig: src.param_sig }
            } else {
                ParamInit::Given(src.params.clone())
            };
            let id = graph.add_layer(mnode.name.clone(), src.kind.clone(), &inputs, true, init)?;
            mapping.insert(m, id);
            flops += mnode.profile.fwd_flops as f64;
        }
    }
    let raw_input = raw_input
        .ok_or_else(|| MatError::Exec("materialization graph has no raw input".into()))?;
    let mut outputs = Vec::with_capacity(v.len());
    for &m in v {
        let plan_node = mapping[&m];
        graph.add_output(plan_node)?;
        outputs.push((m, plan_node, multi.node(m).key.clone()));
    }
    Ok(MaterializationGraph { graph, raw_input, outputs, fwd_flops_per_record: flops })
}

/// Stateful materializer bound to a feature store.
#[derive(Debug)]
pub struct Materializer {
    /// The backing feature store.
    pub store: TensorStore,
    graph: Option<MaterializationGraph>,
    v: BTreeSet<MNodeId>,
    budget: DiskBudget,
}

impl Materializer {
    /// Creates a materializer over a feature store, enforcing `Bdisk` at
    /// write time (runtime belt-and-suspenders on top of the planner's
    /// Eq 10 (e)).
    pub fn new(store: TensorStore, disk_budget_bytes: u64) -> Self {
        Materializer {
            store,
            graph: None,
            v: BTreeSet::new(),
            budget: DiskBudget::new(disk_budget_bytes),
        }
    }

    /// Bytes of budget still available.
    pub fn budget_remaining(&self) -> u64 {
        self.budget.remaining()
    }

    /// The current materialized set.
    pub fn v(&self) -> &BTreeSet<MNodeId> {
        &self.v
    }

    /// Bytes of the installed `V`'s features, both splits (the store's
    /// snapshot and checkpoints count toward neither this nor `Bdisk`).
    pub fn feature_bytes(&self) -> u64 {
        let keys = self.graph.iter().flat_map(|g| &g.outputs);
        let splits = keys.flat_map(|(_, _, key)| ["train", "valid"].map(|s| format!("{key}:{s}")));
        splits.map(|key| self.store.bytes(&key)).sum()
    }

    /// Installs a (new) materialized set: drops features that are no longer
    /// chosen (releasing their budget), keeps still-valid keys (their records
    /// remain correct — keys are content-addressed by expression
    /// signature), and rebuilds the materialization graph. Returns the
    /// merged nodes whose features must be *backfilled* for the accumulated
    /// snapshot: those the feature store does not hold.
    pub fn install_v(
        &mut self,
        multi: &MultiModelGraph,
        candidates: &[CandidateModel],
        v: BTreeSet<MNodeId>,
    ) -> Result<BTreeSet<MNodeId>, MatError> {
        let _sp = telemetry::span("mat", "mat.install_v");
        if v == self.v && self.graph.is_some() {
            return Ok(BTreeSet::new());
        }
        for &m in self.v.difference(&v) {
            for split in ["train", "valid"] {
                let key = format!("{}:{split}", multi.node(m).key);
                let freed = self.store.delete(&key)?;
                self.budget.release(freed);
            }
        }
        self.graph = if v.is_empty() {
            None
        } else {
            Some(build_materialization_graph(multi, candidates, &v)?)
        };
        let backfill = v
            .iter()
            .copied()
            .filter(|&m| !self.store.contains(&format!("{}:train", multi.node(m).key)))
            .collect();
        self.v = v;
        Ok(backfill)
    }

    /// Runs the forward of `nodes` (a subset of `V`) over `n_records`
    /// records of one split (`"train"` / `"valid"`) and appends one chunk
    /// per key. All of `V` runs the installed materialization graph (a
    /// cycle's new batch); a strict subset runs its own sub-DAG (a backfill
    /// of newly chosen nodes over the snapshot, or a batch for the nodes a
    /// backfill did not cover).
    ///
    /// With the records' `inputs`, the forward executes and its outputs are
    /// stored; without them (the simulated backend) each key records a
    /// modeled chunk of the same shape. Either way the backend is charged
    /// the same compute, and the store and the budget the same bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn materialize(
        &mut self,
        multi: &MultiModelGraph,
        candidates: &[CandidateModel],
        nodes: &BTreeSet<MNodeId>,
        split: &str,
        inputs: Option<&Tensor>,
        n_records: usize,
        backend: &mut Backend,
    ) -> Result<(), MatError> {
        if nodes.is_empty() || n_records == 0 {
            return Ok(());
        }
        let _sp = telemetry::span("mat", "mat.batch");
        debug_assert!(nodes.is_subset(&self.v));
        let built;
        let mg = match &self.graph {
            Some(installed) if *nodes == self.v => installed,
            _ => {
                built = build_materialization_graph(multi, candidates, nodes)?;
                &built
            }
        };
        let keys = mg.outputs.iter().map(|(m, node, key)| (*m, *node, format!("{key}:{split}")));
        let (measured, sizes) = match inputs {
            Some(inputs) => {
                let mut feeds = BatchInputs::new();
                feeds.insert(mg.raw_input, inputs.clone());
                let start = Instant::now();
                let fwd = forward(&mg.graph, &feeds, false)
                    .map_err(|e| MatError::Exec(e.to_string()))?;
                let secs = start.elapsed().as_secs_f64();
                let items: Vec<(String, Tensor)> =
                    keys.map(|(_, node, key)| (key, fwd.output(node).clone())).collect();
                (Some(secs), self.store.append_many(&items)?)
            }
            None => {
                let items: Vec<_> = keys
                    .map(|(m, _, key)| (key, multi.node(m).out_shape().0.clone(), n_records))
                    .collect();
                (None, self.store.append_modeled(&items)?)
            }
        };
        backend.charge_compute(mg.fwd_flops_per_record * n_records as f64, measured);
        for bytes in sizes {
            self.budget.charge(bytes).map_err(MatError::Budget)?;
        }
        Ok(())
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use nautilus_data::Dataset;
    use crate::spec::Hyper;
    use crate::SystemConfig;
    use nautilus_dnn::{OptimizerSpec, TaskKind};
    use nautilus_models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
    use nautilus_models::BuildScale;
    use nautilus_store::SharedIoStats;
    use nautilus_tensor::Tensor;

    fn candidate() -> CandidateModel {
        let cfg = BertConfig::tiny(8, 50);
        CandidateModel {
            name: "ftr".into(),
            graph: feature_transfer_model(&cfg, FeatureStrategy::LastHidden, 9, BuildScale::Real)
                .unwrap(),
            hyper: Hyper { batch_size: 4, epochs: 1, optimizer: OptimizerSpec::sgd(0.1) },
            task: TaskKind::TokenTagging,
        }
    }

    fn token_dataset(n: usize) -> Dataset {
        let tokens: Vec<f32> = (0..n * 8).map(|i| (i % 50) as f32).collect();
        let labels = vec![0.0f32; n * 8];
        Dataset::new(
            Tensor::from_vec([n, 8], tokens).unwrap(),
            Tensor::from_vec([n, 8], labels).unwrap(),
        )
        .unwrap()
    }

    fn temp_store(tag: &str, io: SharedIoStats) -> TensorStore {
        let p = std::env::temp_dir().join(format!(
            "nautilus-matz-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        TensorStore::open(p, io).unwrap()
    }

    fn v_of(multi: &MultiModelGraph, name: &str) -> BTreeSet<MNodeId> {
        let mut v = BTreeSet::new();
        for (i, n) in multi.nodes.iter().enumerate() {
            if n.name == name {
                v.insert(MNodeId(i));
            }
        }
        assert!(!v.is_empty(), "node {name} not found");
        v
    }

    /// Materializes one batch of train records for every key of `V`.
    fn batch(
        mat: &mut Materializer,
        multi: &MultiModelGraph,
        cands: &[CandidateModel],
        data: Option<&Dataset>,
        n_records: usize,
        backend: &mut Backend,
    ) -> Result<(), MatError> {
        let v = mat.v().clone();
        mat.materialize(multi, cands, &v, "train", data.map(|d| &d.inputs), n_records, backend)
    }

    #[test]
    fn materialized_features_match_inline_computation() {
        let cands = vec![candidate()];
        let multi = MultiModelGraph::build(&cands);
        let io = SharedIoStats::new();
        let mut backend =
            Backend::new(BackendKind::Real, SystemConfig::tiny().hardware, io.clone());
        let mut mat = Materializer::new(temp_store("match", io), 64 << 20);
        let v = v_of(&multi, "bert/block5");
        mat.install_v(&multi, &cands, v.clone()).unwrap();

        let ds = token_dataset(6);
        batch(&mut mat, &multi, &cands, Some(&ds), 6, &mut backend).unwrap();
        let key = format!("{}:train", multi.node(*v.iter().next().unwrap()).key);
        let (stored, _) = mat.store.read_all(&key).unwrap();
        assert_eq!(stored.shape().0, vec![6, 8, 32]);

        // Inline: run the full candidate graph and compare block5's output.
        let g = &cands[0].graph;
        let block5 = g.ids().find(|&id| g.node(id).name == "bert/block5").unwrap();
        let input = g.input_ids()[0];
        let mut bi = BatchInputs::new();
        bi.insert(input, ds.inputs.clone());
        let fwd = forward(g, &bi, false).unwrap();
        assert_eq!(fwd.output(block5), &stored, "materialized == inline, bitwise");
    }

    #[test]
    fn incremental_appends_accumulate() {
        let cands = vec![candidate()];
        let multi = MultiModelGraph::build(&cands);
        let io = SharedIoStats::new();
        let mut backend =
            Backend::new(BackendKind::Real, SystemConfig::tiny().hardware, io.clone());
        let mut mat = Materializer::new(temp_store("incr", io), 64 << 20);
        let v = v_of(&multi, "bert/block3");
        mat.install_v(&multi, &cands, v.clone()).unwrap();
        batch(&mut mat, &multi, &cands, Some(&token_dataset(4)), 4, &mut backend)
            .unwrap();
        batch(&mut mat, &multi, &cands, Some(&token_dataset(3)), 3, &mut backend)
            .unwrap();
        let key = format!("{}:train", multi.node(*v.iter().next().unwrap()).key);
        assert_eq!(mat.store.num_records(&key), 7);
    }

    #[test]
    fn install_v_change_drops_old_features() {
        let cands = vec![candidate()];
        let multi = MultiModelGraph::build(&cands);
        let io = SharedIoStats::new();
        let mut backend =
            Backend::new(BackendKind::Real, SystemConfig::tiny().hardware, io.clone());
        let mut mat = Materializer::new(temp_store("swap", io), 64 << 20);
        let v1 = v_of(&multi, "bert/block3");
        mat.install_v(&multi, &cands, v1).unwrap();
        batch(&mut mat, &multi, &cands, Some(&token_dataset(4)), 4, &mut backend)
            .unwrap();
        assert!(mat.feature_bytes() > 0);
        let v2 = v_of(&multi, "bert/block5");
        let backfill = mat.install_v(&multi, &cands, v2.clone()).unwrap();
        assert_eq!(backfill, v2, "new nodes need backfill");
        assert_eq!(mat.feature_bytes(), 0, "old features dropped");
        // Reinstalling the same V is a no-op.
        let backfill = mat.install_v(&multi, &cands, v_of(&multi, "bert/block5"))
            .unwrap();
        assert!(backfill.is_empty());
    }

    #[test]
    fn simulated_materialization_charges_compute_and_writes() {
        let cands = vec![candidate()];
        let multi = MultiModelGraph::build(&cands);
        let io = SharedIoStats::new();
        let mut backend =
            Backend::new(BackendKind::Simulated, SystemConfig::tiny().hardware, io.clone());
        let budget = 64 << 20;
        let mut mat = Materializer::new(temp_store("sim", io.clone()), budget);
        let v = v_of(&multi, "bert/block5");
        mat.install_v(&multi, &cands, v.clone()).unwrap();
        batch(&mut mat, &multi, &cands, None, 100, &mut backend).unwrap();
        assert!(backend.elapsed_secs() > 0.0);
        // The exact encoded size of the `[100, 8, 32]` chunk: NTSR header
        // plus payload.
        let bytes = 36 + 100 * 8 * 32 * 4;
        assert_eq!(io.snapshot().disk_write_bytes, bytes);
        // The store is the ledger on this backend too: the modeled chunk is
        // recorded with its size, but it has no payload to read.
        assert_eq!(mat.feature_bytes(), bytes);
        assert_eq!(mat.budget_remaining(), budget - bytes);
        let key = format!("{}:train", multi.node(*v.iter().next().unwrap()).key);
        assert_eq!(mat.store.num_records(&key), 100);
        assert!(matches!(mat.store.read_all(&key), Err(StoreError::NoPayload(_))));
        // Swapping V drops the old key and releases its budget.
        let v2 = v_of(&multi, "bert/block3");
        let backfill = mat.install_v(&multi, &cands, v2.clone()).unwrap();
        assert_eq!(backfill, v2);
        assert_eq!(mat.feature_bytes(), 0);
        assert_eq!(mat.budget_remaining(), budget);
    }

    #[test]
    fn partial_v_change_keeps_retained_keys_and_backfills_new_ones() {
        let cands = vec![candidate()];
        let multi = MultiModelGraph::build(&cands);
        let io = SharedIoStats::new();
        let mut backend =
            Backend::new(BackendKind::Real, SystemConfig::tiny().hardware, io.clone());
        let mut mat = Materializer::new(temp_store("partial", io), 64 << 20);

        let b3 = v_of(&multi, "bert/block3");
        let b5 = v_of(&multi, "bert/block5");
        let mut v1 = b3.clone();
        v1.extend(&b5);
        mat.install_v(&multi, &cands, v1.clone()).unwrap();
        let snapshot = token_dataset(6);
        batch(&mut mat, &multi, &cands, Some(&snapshot), 6, &mut backend).unwrap();

        // Swap block3 -> block4 while keeping block5.
        let b4 = v_of(&multi, "bert/block4");
        let mut v2 = b4.clone();
        v2.extend(&b5);
        let backfill = mat.install_v(&multi, &cands, v2).unwrap();
        assert_eq!(backfill, b4, "only the new node needs backfill");
        // Retained key intact; removed key gone.
        let key = |m: &BTreeSet<MNodeId>| {
            format!("{}:train", multi.node(*m.iter().next().unwrap()).key)
        };
        assert_eq!(mat.store.num_records(&key(&b5)), 6);
        assert_eq!(mat.store.num_records(&key(&b3)), 0);
        // Backfill the full snapshot for the new node only.
        mat.materialize(&multi, &cands, &backfill, "train", Some(&snapshot.inputs), 6, &mut backend)
            .unwrap();
        assert_eq!(mat.store.num_records(&key(&b4)), 6);
        // Subsequent incremental batches cover both keys.
        batch(&mut mat, &multi, &cands, Some(&token_dataset(3)), 3, &mut backend)
            .unwrap();
        assert_eq!(mat.store.num_records(&key(&b5)), 9);
        assert_eq!(mat.store.num_records(&key(&b4)), 9);
        // And the backfilled features equal what a fresh materialization
        // would produce (content-addressed correctness).
        let (stored, _) = mat.store.read_all(&key(&b4)).unwrap();
        assert_eq!(stored.shape().dim(0), 9);
    }

    #[test]
    fn write_time_budget_enforcement() {
        let cands = vec![candidate()];
        let multi = MultiModelGraph::build(&cands);
        let io = SharedIoStats::new();
        let mut backend =
            Backend::new(BackendKind::Real, SystemConfig::tiny().hardware, io.clone());
        // A budget big enough for one small batch but not two.
        let one_batch_bytes = 4u64 * 8 * 32 * 4 + 64; // records x seq x dim x f32 + header
        let mut mat = Materializer::new(temp_store("budget", io), one_batch_bytes + 16);
        let v = v_of(&multi, "bert/block5");
        mat.install_v(&multi, &cands, v).unwrap();
        batch(&mut mat, &multi, &cands, Some(&token_dataset(4)), 4, &mut backend)
            .unwrap();
        let err = batch(&mut mat, &multi, &cands, Some(&token_dataset(4)), 4, &mut backend)
            .unwrap_err();
        assert!(matches!(err, MatError::Budget(_)), "{err}");
        assert!(mat.budget_remaining() < one_batch_bytes);
    }

    #[test]
    fn empty_v_is_a_no_op() {
        let cands = vec![candidate()];
        let multi = MultiModelGraph::build(&cands);
        let io = SharedIoStats::new();
        let mut backend =
            Backend::new(BackendKind::Real, SystemConfig::tiny().hardware, io.clone());
        let mut mat = Materializer::new(temp_store("empty", io), 64 << 20);
        mat.install_v(&multi, &cands, BTreeSet::new()).unwrap();
        batch(&mut mat, &multi, &cands, Some(&token_dataset(4)), 4, &mut backend)
            .unwrap();
        assert_eq!(mat.feature_bytes(), 0);
    }
}
