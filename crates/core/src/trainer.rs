//! The Trainer (paper §3): trains units according to the optimized plan.
//!
//! A unit trains all its member models in one pass over each mini-batch:
//! one shared forward over the fused graph, per-member losses seeded into
//! the member output heads, one shared backward, and one optimizer step
//! *per member branch* (the paper's multi-optimizer extension of Keras's
//! training loop). Mini-batches are drawn sequentially without shuffling,
//! which makes fused training step-for-step identical to training each
//! member alone — the property the accuracy-equivalence tests pin down.
//!
//! Every cycle retrains from the unit's start checkpoint (the paper's
//! `g(M, φ, D_k)` trains the candidate from its adapted initial state on
//! the full current snapshot). Everything a unit reads — that checkpoint,
//! the snapshot's inputs and labels, materialized features — comes from
//! the feature store, which accounts every read on both backends.

use crate::backend::Backend;
use crate::fusion::TrainUnit;
use crate::multimodel::MultiModelGraph;
use crate::plan::{ExecutablePlan, PlanFeed};
use crate::profiler::{profile_graph, total_fwd_flops};
use crate::session::Strategy;
use crate::spec::CandidateModel;
use nautilus_data::Dataset;
use nautilus_dnn::checkpoint;
use nautilus_dnn::exec::{backward, forward, BatchInputs};
use nautilus_dnn::{ModelGraph, NodeId, Optimizer};
use nautilus_store::{EpochPrefetcher, StoreError, TensorStore};
use nautilus_tensor::Tensor;
use nautilus_util::telemetry;
use std::collections::HashMap;
use std::time::Instant;

/// The record counts of the snapshot one cycle trains on (the records
/// themselves live in the feature store).
#[derive(Debug, Clone, Copy)]
pub struct CycleDataView {
    /// Accumulated training records.
    pub n_train: usize,
    /// Accumulated validation records.
    pub n_valid: usize,
}

/// Outcome of training one member for one cycle.
#[derive(Debug, Clone)]
pub struct MemberResult {
    /// Candidate index in the workload.
    pub candidate: usize,
    /// Candidate name.
    pub name: String,
    /// Validation accuracy (`None` on the simulated backend).
    pub accuracy: Option<f32>,
    /// Final-epoch mean training loss (`None` on the simulated backend).
    pub train_loss: Option<f32>,
}

/// Trainer errors.
#[derive(Debug)]
pub enum TrainError {
    /// Tensor execution failed.
    Exec(String),
    /// Feature/dataset store failure.
    Store(StoreError),
    /// Inconsistent data (missing tensors, shape drift).
    Data(String),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Exec(e) => write!(f, "trainer execution: {e}"),
            TrainError::Store(e) => write!(f, "trainer store: {e}"),
            TrainError::Data(e) => write!(f, "trainer data: {e}"),
        }
    }
}

impl std::error::Error for TrainError {}

impl From<StoreError> for TrainError {
    fn from(e: StoreError) -> Self {
        TrainError::Store(e)
    }
}

/// The store items of a labeled batch: inputs under `raw:{split}`, labels
/// under `labels:{split}`, train split first.
pub fn snapshot_items(train: &Dataset, valid: &Dataset) -> Vec<(String, Tensor)> {
    [("train", train), ("valid", valid)]
        .into_iter()
        .flat_map(|(split, d)| {
            [
                (format!("raw:{split}"), d.inputs.clone()),
                (format!("labels:{split}"), d.labels.clone()),
            ]
        })
        .collect()
}

/// The store object unit `index` starts from, and the candidate whose
/// original model it holds when it is not the unit's plan: the plan
/// checkpoint `ckpt:plan:{index}` under the optimizer strategies, the
/// single member's original checkpoint `ckpt:init:{candidate}` under
/// Current Practice.
pub fn start_checkpoint(
    strategy: Strategy,
    index: usize,
    unit: &TrainUnit,
) -> (String, Option<usize>) {
    if strategy.runs_optimizer() {
        (format!("ckpt:plan:{index}"), None)
    } else {
        (format!("ckpt:init:{}", unit.members[0]), Some(unit.members[0]))
    }
}

/// Trains unit `index` for one cycle, evaluates every member, and hands
/// back the trained plan graph.
///
/// One loop serves both backends: it reads the unit's start checkpoint
/// ([`start_checkpoint`]) and every epoch's feeds through the store, and
/// charges the session, epoch and batch overheads and the compute in the
/// same order either way. A step executes only when the start checkpoint
/// holds weights: on the simulated backend it and the snapshot are
/// modeled entries, read through the ledger without data. Per-epoch
/// shuffling draws a permutation seeded by `(record count, epoch)` only,
/// so every execution strategy — and every fused/solo arrangement — sees
/// the *identical* mini-batch sequence, preserving bit-exact equivalence.
///
/// With weights, the returned graph holds the post-training parameters for
/// every member in the unit (the session maps them back to per-candidate
/// models for export/serving, and checkpoints it). Without them nothing is
/// trained, so the graph, accuracies and losses are `None`.
#[allow(clippy::too_many_arguments)]
pub fn train_unit(
    multi: &MultiModelGraph,
    plan: &ExecutablePlan,
    unit: &TrainUnit,
    index: usize,
    candidates: &[CandidateModel],
    data: &CycleDataView,
    store: &TensorStore,
    backend: &mut Backend,
    strategy: Strategy,
    shuffle: bool,
) -> Result<(Vec<MemberResult>, Option<ModelGraph>), TrainError> {
    let _sp = telemetry::span("train", "train.unit");
    backend.charge_session_overhead();

    // The start checkpoint: the whole plan (frozen shared parameters are
    // read once per unit; Current Practice units are singletons, so this is
    // exactly one full model read there).
    let (key, original) = start_checkpoint(strategy, index, unit);
    let start = store.get_object(&key)?.map(|bytes| start_graph(multi, plan, original, &bytes));
    let start = start.transpose()?;
    let mut exec = start.map(|graph| Execution::new(plan, candidates, graph, data, shuffle));

    let (n_train, n_valid) = (data.n_train, data.n_valid);
    let batch = unit.batch_size.max(1);
    let batches_per_epoch = n_train.div_ceil(batch);

    // Per-record cost split of the plan graph: forward runs every epoch for
    // every present layer; each member's backward surcharge and optimizer
    // updates run only while that member is still within its epoch budget.
    let profiles = profile_graph(&plan.graph);
    let fwd_flops_per_record = total_fwd_flops(&profiles) as f64;
    let member_extras: Vec<f64> = unit
        .members
        .iter()
        .map(|&mi| crate::fusion::member_extra_flops(multi, &unit.plan.actions, mi))
        .collect();
    let member_update_flops: Vec<f64> = plan
        .member_trainables
        .iter()
        .map(|(_, nodes)| {
            4.0 * nodes
                .iter()
                .map(|&n| plan.graph.node(n).param_elements())
                .sum::<usize>() as f64
        })
        .collect();

    // Every epoch reads the feeds and the labels from the store on this
    // thread, key by key and chunk by chunk, through the ledger; repeat
    // reads are page-cache hits, as in the paper (§3).
    let mut reads = EpochPrefetcher::new(
        store,
        &feed_keys(plan, "train"),
        &feed_keys(plan, "valid"),
        unit.epochs,
    )?;
    for epoch in 0..unit.epochs {
        let _sp_epoch = telemetry::span("train", "train.epoch");
        backend.charge_epoch_overhead();
        let feeds = reads.epoch(epoch)?;
        let active: Vec<bool> = unit.member_epochs.iter().map(|&e| epoch < e).collect();
        let active_sum = |per_member: &[f64]| -> f64 {
            per_member.iter().zip(&active).filter(|(_, &a)| a).map(|(&x, _)| x).sum()
        };
        let (active_extra, active_updates) =
            (active_sum(&member_extras), active_sum(&member_update_flops));
        if let Some(exec) = &mut exec {
            exec.begin_epoch(epoch, feeds)?;
        }
        for b in 0..batches_per_epoch {
            let _sp_step = telemetry::span("train", "train.step");
            let (s, e) = (b * batch, ((b + 1) * batch).min(n_train));
            backend.charge_batch_overhead();
            let t0 = Instant::now();
            if let Some(exec) = &mut exec {
                exec.step(s..e, &active)?;
            }
            backend.charge_compute(
                (fwd_flops_per_record + active_extra) * (e - s) as f64 + active_updates,
                Some(t0.elapsed().as_secs_f64()),
            );
        }
    }

    // Validation: one forward pass over the valid split (member heads are
    // shared in the fused graph, so it is one pass total).
    let feeds = reads.valid()?;
    let mut results: Vec<MemberResult> = unit
        .members
        .iter()
        .map(|&mi| MemberResult {
            candidate: mi,
            name: candidates[mi].name.clone(),
            accuracy: None,
            train_loss: None,
        })
        .collect();
    let t0 = Instant::now();
    let trained =
        exec.map(|exec| exec.finish(feeds, &mut results, &unit.member_epochs)).transpose()?;
    backend.charge_compute(fwd_flops_per_record * n_valid as f64, Some(t0.elapsed().as_secs_f64()));
    Ok((results, trained))
}

/// Decodes a unit's start weights: a plan checkpoint is the plan graph
/// itself; an original checkpoint (`original` candidate's whole model) is
/// mapped onto the plan's nodes through the merged graph.
fn start_graph(
    multi: &MultiModelGraph,
    plan: &ExecutablePlan,
    original: Option<usize>,
    bytes: &[u8],
) -> Result<ModelGraph, TrainError> {
    let bad = |e: String| TrainError::Data(format!("start checkpoint: {e}"));
    let mut ckpt = checkpoint::load_from_bytes(bytes).map_err(|e| bad(e.to_string()))?;
    let graph = match original {
        None => ckpt,
        Some(ci) => {
            let mut graph = plan.graph.clone();
            for id in graph.ids().collect::<Vec<_>>() {
                graph.node_mut(id).params.clear();
            }
            for (i, m) in multi.mappings[ci].node_to_merged.iter().enumerate() {
                if let Some(&p) = plan.merged_to_plan.get(m) {
                    graph.node_mut(p).params = std::mem::take(&mut ckpt.node_mut(NodeId(i)).params);
                }
            }
            graph
        }
    };
    let fits = graph.len() == plan.graph.len()
        && graph.nodes().iter().zip(plan.graph.nodes()).all(|(x, y)| {
            x.param_shapes == y.param_shapes && x.params.len() == y.param_shapes.len()
        });
    if !fits {
        return Err(bad("weights do not fit the unit's plan".into()));
    }
    Ok(graph)
}

/// The executed side of one unit's training, present only when the unit's
/// start checkpoint holds weights: the parameters it starts from, one
/// optimizer per member, and the current epoch's feeds, record order and
/// per-member losses.
struct Execution<'a> {
    plan: &'a ExecutablePlan,
    candidates: &'a [CandidateModel],
    data: CycleDataView,
    shuffle: bool,
    graph: ModelGraph,
    optimizers: Vec<Optimizer>,
    feeds: Feeds,
    targets: Vec<i64>,
    targets_per_record: usize,
    order: Vec<usize>,
    /// Summed training loss per epoch, per member.
    epoch_loss: Vec<Vec<f32>>,
}

impl<'a> Execution<'a> {
    fn new(
        plan: &'a ExecutablePlan,
        candidates: &'a [CandidateModel],
        graph: ModelGraph,
        data: &CycleDataView,
        shuffle: bool,
    ) -> Self {
        Execution {
            plan,
            candidates,
            data: *data,
            shuffle,
            graph,
            optimizers: plan
                .member_trainables
                .iter()
                .map(|(mi, nodes)| candidates[*mi].hyper.optimizer.build(nodes))
                .collect(),
            feeds: Vec::new(),
            targets: Vec::new(),
            targets_per_record: 0,
            order: Vec::new(),
            epoch_loss: Vec::new(),
        }
    }

    /// Takes epoch `epoch`'s feeds and labels from the store and draws its
    /// record order.
    fn begin_epoch(&mut self, epoch: usize, tensors: Vec<Tensor>) -> Result<(), TrainError> {
        let n = self.data.n_train;
        (self.feeds, self.targets) = assemble_feeds(self.plan, tensors, "train", n)?;
        self.targets_per_record = self.targets.len().checked_div(n).unwrap_or(0);
        self.order = (0..n).collect();
        if self.shuffle {
            use nautilus_util::rng::SliceRandom;
            let seed = (n as u64) << 20 | epoch as u64;
            let mut rng = nautilus_tensor::init::seeded_rng(seed ^ 0x5EEDu64);
            self.order.shuffle(&mut rng);
        }
        self.epoch_loss.push(vec![0.0; self.optimizers.len()]);
        Ok(())
    }

    /// One mini-batch over `order[range]`: a shared forward, per-member
    /// losses seeded into the active members' heads, one shared backward,
    /// and one optimizer step per active member.
    fn step(&mut self, range: std::ops::Range<usize>, active: &[bool]) -> Result<(), TrainError> {
        let idx = &self.order[range];
        let mut inputs = BatchInputs::new();
        for (node, tensor) in &self.feeds {
            inputs.insert(*node, gather_records(tensor, idx));
        }
        let fwd =
            forward(&self.graph, &inputs, true).map_err(|err| TrainError::Exec(err.to_string()))?;
        let per = self.targets_per_record;
        let batch_targets: Vec<i64> = idx
            .iter()
            .flat_map(|&r| self.targets[r * per..(r + 1) * per].iter().copied())
            .collect();
        let epoch_loss = self.epoch_loss.last_mut().expect("begin_epoch ran");
        let mut out_grads: HashMap<NodeId, Tensor> = HashMap::new();
        for (k, (mi, out_node)) in self.plan.member_outputs.iter().enumerate() {
            if !active[k] {
                continue; // this member finished its epoch budget
            }
            let (loss, grad) = self.candidates[*mi]
                .task
                .loss(fwd.output(*out_node), &batch_targets)
                .map_err(|err| TrainError::Exec(err.to_string()))?;
            epoch_loss[k] += loss * idx.len() as f32;
            out_grads.insert(*out_node, grad);
        }
        let grads = backward(&self.graph, &fwd, out_grads)
            .map_err(|err| TrainError::Exec(err.to_string()))?;
        for (opt, _) in self.optimizers.iter_mut().zip(active).filter(|(_, &a)| a) {
            opt.step(&mut self.graph, &grads);
        }
        Ok(())
    }

    /// Evaluates every member on the validation split's feeds and labels,
    /// filling its accuracy and its last active epoch's mean training loss
    /// into `results`, and returns the trained graph.
    fn finish(
        self,
        tensors: Vec<Tensor>,
        results: &mut [MemberResult],
        member_epochs: &[usize],
    ) -> Result<ModelGraph, TrainError> {
        let (feeds, valid_targets) =
            assemble_feeds(self.plan, tensors, "valid", self.data.n_valid)?;
        let mut inputs = BatchInputs::new();
        for (node, tensor) in feeds {
            inputs.insert(node, tensor);
        }
        let fwd =
            forward(&self.graph, &inputs, false).map_err(|err| TrainError::Exec(err.to_string()))?;
        let n_train = self.data.n_train.max(1) as f32;
        for (k, (mi, out_node)) in self.plan.member_outputs.iter().enumerate() {
            let acc = self.candidates[*mi]
                .task
                .accuracy(fwd.output(*out_node), &valid_targets)
                .map_err(|err| TrainError::Exec(err.to_string()))?;
            let last = member_epochs[k].min(self.epoch_loss.len()).checked_sub(1);
            results[k].accuracy = Some(acc);
            results[k].train_loss = Some(last.map_or(0.0, |e| self.epoch_loss[e][k] / n_train));
        }
        Ok(self.graph)
    }
}

/// Store keys a plan reads per split, in feed order: `raw:{split}` for the
/// raw input, `{key}:{split}` for each materialized feature, then
/// `labels:{split}`.
fn feed_keys(plan: &ExecutablePlan, split: &str) -> Vec<String> {
    let feeds = plan.feeds.iter().map(|feed| match feed {
        PlanFeed::Raw { .. } => format!("raw:{split}"),
        PlanFeed::Materialized { key, .. } => format!("{key}:{split}"),
    });
    feeds.chain([format!("labels:{split}")]).collect()
}

/// A plan's input nodes with the tensors fed to them.
type Feeds = Vec<(NodeId, Tensor)>;

/// Pairs one split's tensors (in [`feed_keys`] order) with the plan's
/// input nodes, and turns its labels into integer targets; every tensor
/// must hold the split's `records`.
fn assemble_feeds(
    plan: &ExecutablePlan,
    mut tensors: Vec<Tensor>,
    split: &str,
    records: usize,
) -> Result<(Feeds, Vec<i64>), TrainError> {
    if tensors.len() != plan.feeds.len() + 1 {
        return Err(TrainError::Data(format!(
            "{} {split} feeds read for {} plan inputs and the labels",
            tensors.len(),
            plan.feeds.len()
        )));
    }
    if let Some(t) = tensors.iter().find(|t| t.shape().dim(0) != records) {
        return Err(TrainError::Data(format!(
            "a {split} feed holds {} records, the snapshot {records}",
            t.shape().dim(0)
        )));
    }
    let labels = tensors.pop().expect("labels read last");
    let targets = labels.data().iter().map(|&x| x as i64).collect();
    let nodes = plan.feeds.iter().map(|feed| match feed {
        PlanFeed::Raw { plan_node, .. } | PlanFeed::Materialized { plan_node, .. } => *plan_node,
    });
    Ok((nodes.zip(tensors).collect(), targets))
}

fn gather_records(t: &Tensor, indices: &[usize]) -> Tensor {
    let record = t.shape().without_batch();
    let n = record.num_elements();
    let mut data = Vec::with_capacity(indices.len() * n);
    for &i in indices {
        data.extend_from_slice(&t.data()[i * n..(i + 1) * n]);
    }
    Tensor::from_vec(record.with_batch(indices.len()), data).expect("gather shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendKind;
    use crate::fusion::fuse_models;
    use crate::spec::Hyper;
    use crate::SystemConfig;
    use nautilus_dnn::{OptimizerSpec, TaskKind};
    use nautilus_models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
    use nautilus_models::BuildScale;
    use nautilus_store::{Object, SharedIoStats};
    use std::collections::BTreeSet;

    fn candidate(lr: f32) -> CandidateModel {
        let cfg = BertConfig::tiny(8, 30);
        CandidateModel {
            name: format!("ftr-{lr}"),
            graph: feature_transfer_model(&cfg, FeatureStrategy::LastHidden, 5, BuildScale::Real)
                .unwrap(),
            hyper: Hyper { batch_size: 4, epochs: 2, optimizer: OptimizerSpec::sgd(lr) },
            task: TaskKind::TokenTagging,
        }
    }

    fn token_dataset(n: usize, seed: u64) -> Dataset {
        use nautilus_util::rng::Rng;
        let mut rng = nautilus_tensor::init::seeded_rng(seed);
        let tokens: Vec<f32> = (0..n * 8).map(|_| rng.gen_range(0..30) as f32).collect();
        let labels: Vec<f32> = tokens.iter().map(|&t| (t as usize % 5) as f32).collect();
        Dataset::new(
            Tensor::from_vec([n, 8], tokens).unwrap(),
            Tensor::from_vec([n, 8], labels).unwrap(),
        )
        .unwrap()
    }

    fn temp_store(tag: &str, io: SharedIoStats) -> TensorStore {
        let p = std::env::temp_dir().join(format!(
            "nautilus-trn-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        TensorStore::open(p, io).unwrap()
    }

    /// A store holding the `(train, valid)` snapshot, and its counts.
    fn snapshot(tag: &str, train: &Dataset, valid: &Dataset) -> (TensorStore, CycleDataView) {
        let mut store = temp_store(tag, SharedIoStats::new());
        store.append_many(&snapshot_items(train, valid)).unwrap();
        (store, CycleDataView { n_train: train.len(), n_valid: valid.len() })
    }

    /// Checkpoints `plan` as unit 0's plan and trains the unit from it on
    /// the real backend.
    fn run_unit(
        multi: &MultiModelGraph,
        cands: &[CandidateModel],
        unit: &TrainUnit,
        store: &mut TensorStore,
        data: &CycleDataView,
        shuffle: bool,
    ) -> (Vec<MemberResult>, Option<ModelGraph>, Backend) {
        let plan = ExecutablePlan::build(multi, cands, unit).unwrap();
        let bytes = checkpoint::save_to_bytes(&plan.graph);
        store.put_objects(vec![("ckpt:plan:0".into(), Object::Bytes(bytes))]).unwrap();
        let cfg = SystemConfig::tiny();
        let mut backend = Backend::new(BackendKind::Real, cfg.hardware, SharedIoStats::new());
        let (r, trained) = train_unit(
            multi, &plan, unit, 0, cands, data, store, &mut backend, Strategy::Nautilus, shuffle,
        )
        .unwrap();
        (r, trained, backend)
    }

    #[test]
    fn fused_training_equals_solo_training() {
        let cfg = SystemConfig::tiny();
        let cands = vec![candidate(0.3), candidate(0.1)];
        let multi = MultiModelGraph::build(&cands);
        let (mut store, data) = snapshot("equiv", &token_dataset(12, 1), &token_dataset(6, 2));

        // Solo units.
        let solo_units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let mut solo_acc = Vec::new();
        for unit in &solo_units {
            let (r, _, _) = run_unit(&multi, &cands, unit, &mut store, &data, false);
            solo_acc.push((r[0].candidate, r[0].accuracy.unwrap(), r[0].train_loss.unwrap()));
        }

        // Fused unit.
        let fused_units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, true);
        assert_eq!(fused_units.len(), 1);
        let (fused, _, _) = run_unit(&multi, &cands, &fused_units[0], &mut store, &data, false);

        for r in &fused {
            let (_, sa, sl) =
                solo_acc.iter().find(|(c, _, _)| *c == r.candidate).copied().unwrap();
            assert_eq!(r.accuracy.unwrap(), sa, "member {}", r.name);
            assert!((r.train_loss.unwrap() - sl).abs() < 1e-6);
        }
    }

    #[test]
    fn mixed_epoch_fused_training_equals_solo_training() {
        // Members with different epoch budgets fuse into one unit; each must
        // end up bit-identical to training it alone for its own epochs.
        let cfg = SystemConfig::tiny();
        let mut a = candidate(0.3);
        a.hyper.epochs = 2;
        a.name = "short".into();
        let mut b = candidate(0.1);
        b.hyper.epochs = 4;
        b.name = "long".into();
        let cands = vec![a, b];
        let multi = MultiModelGraph::build(&cands);
        let (mut store, data) = snapshot("mixed", &token_dataset(12, 5), &token_dataset(6, 6));

        let solo_units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let mut solo = Vec::new();
        for unit in &solo_units {
            let (r, _, _) = run_unit(&multi, &cands, unit, &mut store, &data, false);
            solo.push((r[0].candidate, r[0].accuracy.unwrap(), r[0].train_loss.unwrap()));
        }

        let fused_units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, true);
        assert_eq!(fused_units.len(), 1, "2- and 4-epoch members must fuse");
        assert_eq!(fused_units[0].member_epochs, vec![2, 4]);
        let (fused, _, _) = run_unit(&multi, &cands, &fused_units[0], &mut store, &data, false);
        for r in &fused {
            let (_, sa, sl) =
                solo.iter().find(|(c, _, _)| *c == r.candidate).copied().unwrap();
            assert_eq!(r.accuracy.unwrap(), sa, "member {}", r.name);
            assert!((r.train_loss.unwrap() - sl).abs() < 1e-6, "member {}", r.name);
        }
    }

    #[test]
    fn training_learns_the_token_task() {
        let cfg = SystemConfig::tiny();
        let mut c = candidate(0.0);
        c.hyper.optimizer = OptimizerSpec::adam(0.01);
        c.hyper.epochs = 12;
        let cands = vec![c];
        let multi = MultiModelGraph::build(&cands);
        let (mut store, data) = snapshot("learn", &token_dataset(64, 3), &token_dataset(16, 4));
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let (r, _, backend) = run_unit(&multi, &cands, &units[0], &mut store, &data, false);
        // Token labels are a deterministic function of the token: the model
        // must beat the 1/5 chance rate comfortably.
        assert!(r[0].accuracy.unwrap() > 0.4, "accuracy {:?}", r[0].accuracy);
        assert!(backend.busy_secs() > 0.0);
    }

    #[test]
    fn shuffled_training_stays_equivalent_but_differs_from_sequential() {
        let cfg = SystemConfig::tiny();
        let cands = vec![candidate(0.3), candidate(0.1)];
        let multi = MultiModelGraph::build(&cands);
        // A ragged final batch on purpose.
        let (mut store, data) = snapshot("shuffle", &token_dataset(13, 7), &token_dataset(6, 8));

        let mut run = |fuse: bool, shuffle: bool| -> Vec<(usize, f32, f32)> {
            let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, fuse);
            let mut out = Vec::new();
            for unit in &units {
                let (r, _, _) = run_unit(&multi, &cands, unit, &mut store, &data, shuffle);
                for m in r {
                    out.push((m.candidate, m.accuracy.unwrap(), m.train_loss.unwrap()));
                }
            }
            out.sort_by_key(|(c, _, _)| *c);
            out
        };

        let solo = run(false, true);
        let fused = run(true, true);
        assert_eq!(solo, fused, "shuffling must preserve fused/solo equivalence");
        let sequential = run(false, false);
        assert_ne!(
            solo.iter().map(|(_, _, l)| *l).collect::<Vec<_>>(),
            sequential.iter().map(|(_, _, l)| *l).collect::<Vec<_>>(),
            "shuffling must actually change the batch sequence"
        );
    }

    #[test]
    fn virtual_training_charges_time_and_io() {
        let cfg = SystemConfig::tiny();
        let cands = vec![candidate(0.1)];
        let multi = MultiModelGraph::build(&cands);
        let io = SharedIoStats::new();
        let mut store = temp_store("virt", io.clone());
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        // The simulated snapshot and start checkpoint: modeled entries.
        let (n_train, n_valid) = (100, 25);
        let items: Vec<_> = [("train", n_train), ("valid", n_valid)]
            .into_iter()
            .flat_map(|(split, n)| {
                [(format!("raw:{split}"), vec![8], n), (format!("labels:{split}"), vec![8], n)]
            })
            .collect();
        let snapshot: u64 = store.append_modeled(&items).unwrap().iter().sum();
        let ckpt = checkpoint::encoded_len(&cands[0].graph, false);
        store.put_objects(vec![("ckpt:init:0".into(), Object::Modeled(ckpt))]).unwrap();
        let written = io.snapshot();
        assert_eq!(written.disk_write_bytes, snapshot + ckpt);

        let mut backend = Backend::new(BackendKind::Simulated, cfg.hardware, io.clone());
        let data = CycleDataView { n_train, n_valid };
        let (r, trained) = train_unit(
            &multi, &plan, &units[0], 0, &cands, &data, &store, &mut backend,
            Strategy::CurrentPractice, false,
        )
        .unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].accuracy.is_none() && trained.is_none(), "nothing executes");
        assert!(backend.elapsed_secs() > 0.0);
        assert!(backend.total_flops() > 0.0);
        // The start checkpoint once, the train split's inputs and labels
        // every epoch, the valid split once; the unit writes nothing.
        let split =
            |s: &str| store.bytes(&format!("raw:{s}")) + store.bytes(&format!("labels:{s}"));
        let reads = ckpt + 2 * split("train") + split("valid");
        let snap = io.snapshot();
        assert_eq!(snap.total_read_bytes(), reads);
        assert_eq!(snap.disk_write_bytes, written.disk_write_bytes);
    }

    #[test]
    fn full_checkpoints_write_more_than_pruned() {
        // The session checkpoints a trained unit full under Current
        // Practice and trainable-only otherwise; the modeled sizes are
        // exactly what the trained graph encodes to.
        let cfg = SystemConfig::tiny();
        let cands = vec![candidate(0.1)];
        let multi = MultiModelGraph::build(&cands);
        let (mut store, data) = snapshot("ckpt", &token_dataset(8, 9), &token_dataset(4, 10));
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        let (_, trained, _) = run_unit(&multi, &cands, &units[0], &mut store, &data, false);
        let trained = trained.unwrap();
        let sizes: Vec<u64> = [true, false]
            .into_iter()
            .map(|full| {
                let bytes = checkpoint::save_to_bytes_with(&trained, !full).len() as u64;
                assert_eq!(bytes, checkpoint::encoded_len(&plan.graph, !full));
                bytes
            })
            .collect();
        assert!(sizes[0] > sizes[1], "full {} <= pruned {}", sizes[0], sizes[1]);
    }

    #[test]
    fn original_checkpoint_maps_onto_the_plan_bit_for_bit() {
        let cfg = SystemConfig::tiny();
        let cands = vec![candidate(0.3), candidate(0.1)];
        let multi = MultiModelGraph::build(&cands);
        for unit in fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false) {
            let plan = ExecutablePlan::build(&multi, &cands, &unit).unwrap();
            let ci = unit.members[0];
            let bytes = checkpoint::save_to_bytes(&cands[ci].graph);
            let start = start_graph(&multi, &plan, Some(ci), &bytes).unwrap();
            let plan_bytes = checkpoint::save_to_bytes(&plan.graph);
            assert_eq!(checkpoint::save_to_bytes(&start), plan_bytes, "candidate {ci}");
            // A checkpoint of another shape fails closed.
            let pruned = checkpoint::save_to_bytes_with(&cands[ci].graph, true);
            assert!(start_graph(&multi, &plan, Some(ci), &pruned).is_err());
        }
    }
}
