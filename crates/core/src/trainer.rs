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
//! Every cycle retrains from the initial checkpoints (the paper's
//! `g(M, φ, D_k)` trains the candidate from its adapted initial state on
//! the full current snapshot).

use crate::backend::Backend;
use crate::fusion::TrainUnit;
use crate::multimodel::MultiModelGraph;
use crate::plan::{ExecutablePlan, PlanFeed};
use crate::profiler::{profile_graph, total_fwd_flops};
use crate::spec::CandidateModel;
use nautilus_data::Dataset;
use nautilus_dnn::checkpoint::checkpoint_bytes;
use nautilus_dnn::exec::{backward, forward, BatchInputs};
use nautilus_dnn::{ModelGraph, NodeId, Optimizer};
use nautilus_store::{EpochPrefetcher, StoreError, TensorStore};
use nautilus_tensor::Tensor;
use nautilus_util::telemetry;
use std::collections::HashMap;
use std::time::Instant;

/// The data visible to one cycle: the snapshot's record counts, plus the
/// records themselves when the backend executes.
#[derive(Debug, Clone, Copy)]
pub struct CycleDataView<'a> {
    /// Accumulated training records.
    pub n_train: usize,
    /// Accumulated validation records.
    pub n_valid: usize,
    /// The accumulated `(train, valid)` records; `None` on the simulated
    /// backend, which charges the same work without executing it.
    pub records: Option<(&'a Dataset, &'a Dataset)>,
}

impl<'a> CycleDataView<'a> {
    /// A view over records.
    pub fn records(train: &'a Dataset, valid: &'a Dataset) -> Self {
        CycleDataView { n_train: train.len(), n_valid: valid.len(), records: Some((train, valid)) }
    }
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

/// Trains one unit for one cycle, evaluates every member, and hands back
/// the trained plan graph.
///
/// One loop serves both backends: it charges the session, epoch and batch
/// overheads, the feed reads and the compute in the same order either way,
/// and executes each step only when the cycle carries records. Per-epoch
/// shuffling draws a permutation seeded by `(record count, epoch)` only, so
/// every execution strategy — and every fused/solo arrangement — sees the
/// *identical* mini-batch sequence, preserving bit-exact equivalence.
///
/// With records, the returned graph holds the post-training parameters for
/// every member in the unit (the session maps them back to per-candidate
/// models for export/serving). Without them nothing is trained, so the
/// graph, accuracies and losses are `None`.
#[allow(clippy::too_many_arguments)]
pub fn train_unit(
    multi: &MultiModelGraph,
    plan: &ExecutablePlan,
    unit: &TrainUnit,
    candidates: &[CandidateModel],
    data: &CycleDataView<'_>,
    store: &TensorStore,
    backend: &mut Backend,
    full_checkpoints: bool,
    shuffle: bool,
) -> Result<(Vec<MemberResult>, Option<ModelGraph>), TrainError> {
    let _sp = telemetry::span("train", "train.unit");
    backend.charge_session_overhead();

    // Initial checkpoint read: the whole plan (frozen shared parameters are
    // read once per unit; Current Practice units are singletons, so this is
    // exactly one full model read there).
    let init_ckpt = checkpoint_bytes(&plan.graph, false);
    backend.charge_read(&format!("ckpt:init:{}", unit.members[0]), init_ckpt);

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

    let mut exec = data
        .records
        .map(|(train, valid)| Execution::new(plan, unit, candidates, store, train, valid, shuffle))
        .transpose()?;
    for epoch in 0..unit.epochs {
        let _sp_epoch = telemetry::span("train", "train.epoch");
        backend.charge_epoch_overhead();
        charge_feed_reads(multi, plan, "train", n_train, backend);
        let active: Vec<bool> = unit.member_epochs.iter().map(|&e| epoch < e).collect();
        let active_sum = |per_member: &[f64]| -> f64 {
            per_member.iter().zip(&active).filter(|(_, &a)| a).map(|(&x, _)| x).sum()
        };
        let (active_extra, active_updates) =
            (active_sum(&member_extras), active_sum(&member_update_flops));
        if let Some(exec) = &mut exec {
            exec.begin_epoch(epoch)?;
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
    // shared in the fused graph, so it is one pass total), its features
    // prefetched alongside the last training epoch.
    charge_feed_reads(multi, plan, "valid", n_valid, backend);
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
    let trained = exec.map(|exec| exec.finish(&mut results, &unit.member_epochs)).transpose()?;
    backend.charge_compute(fwd_flops_per_record * n_valid as f64, Some(t0.elapsed().as_secs_f64()));

    // Trained-model checkpoint write: full models under Current Practice,
    // pruned (trainable-only) plans under Nautilus.
    let out_ckpt = checkpoint_bytes(&plan.graph, !full_checkpoints);
    let out_key = format!("ckpt:out:{}", unit.members[0]);
    backend.write(&out_key, out_ckpt, || Ok::<_, TrainError>(()))?;

    Ok((results, trained))
}

/// The executed side of one unit's training, present only when the cycle
/// carries records: fresh parameters (every cycle retrains from the initial
/// checkpoints), one optimizer per member, the feature prefetcher, and the
/// current epoch's feeds, record order and per-member losses.
struct Execution<'a> {
    plan: &'a ExecutablePlan,
    candidates: &'a [CandidateModel],
    train: &'a Dataset,
    valid: &'a Dataset,
    shuffle: bool,
    graph: ModelGraph,
    optimizers: Vec<Optimizer>,
    prefetcher: EpochPrefetcher<'a>,
    train_targets: Vec<i64>,
    targets_per_record: usize,
    feeds: Vec<(NodeId, Tensor)>,
    order: Vec<usize>,
    /// Summed training loss per epoch, per member.
    epoch_loss: Vec<Vec<f32>>,
}

impl<'a> Execution<'a> {
    fn new(
        plan: &'a ExecutablePlan,
        unit: &TrainUnit,
        candidates: &'a [CandidateModel],
        store: &'a TensorStore,
        train: &'a Dataset,
        valid: &'a Dataset,
        shuffle: bool,
    ) -> Result<Self, TrainError> {
        let train_targets = train.targets();
        // Materialized feeds stream from the store through the epoch
        // prefetcher: generation e+1 (and, during the last epoch, the
        // validation split) is read and decoded on I/O threads while epoch
        // e computes. The prefetcher keeps all accounting on this thread in
        // the synchronous order, so results and IO counters are
        // bit-identical to synchronous reads.
        let prefetcher = EpochPrefetcher::new(
            store,
            &mat_feed_keys(plan, "train"),
            &mat_feed_keys(plan, "valid"),
            unit.epochs,
        )?;
        Ok(Execution {
            plan,
            candidates,
            train,
            valid,
            shuffle,
            graph: plan.graph.clone(),
            optimizers: plan
                .member_trainables
                .iter()
                .map(|(mi, nodes)| candidates[*mi].hyper.optimizer.build(nodes))
                .collect(),
            prefetcher,
            targets_per_record: train_targets.len().checked_div(train.len()).unwrap_or(0),
            train_targets,
            feeds: Vec::new(),
            order: Vec::new(),
            epoch_loss: Vec::new(),
        })
    }

    /// Takes epoch `epoch`'s feeds from the prefetcher and draws its record
    /// order.
    fn begin_epoch(&mut self, epoch: usize) -> Result<(), TrainError> {
        self.feeds = assemble_feeds(self.plan, self.prefetcher.epoch(epoch)?, "train", self.train)?;
        let n = self.train.len();
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
            .flat_map(|&r| self.train_targets[r * per..(r + 1) * per].iter().copied())
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

    /// Evaluates every member on the validation split, filling its accuracy
    /// and its last active epoch's mean training loss into `results`, and
    /// returns the trained graph.
    fn finish(
        mut self,
        results: &mut [MemberResult],
        member_epochs: &[usize],
    ) -> Result<ModelGraph, TrainError> {
        let feeds = assemble_feeds(self.plan, self.prefetcher.valid()?, "valid", self.valid)?;
        let valid_targets = self.valid.targets();
        let mut inputs = BatchInputs::new();
        for (node, tensor) in feeds {
            inputs.insert(node, tensor);
        }
        let fwd =
            forward(&self.graph, &inputs, false).map_err(|err| TrainError::Exec(err.to_string()))?;
        let n_train = self.train.len().max(1) as f32;
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

/// Modeled per-epoch data reads: every feed key (raw data / materialized
/// features) is read in full through the simulated device's page-cache
/// model (a no-op on the real backend, whose store counts its own reads).
fn charge_feed_reads(
    multi: &MultiModelGraph,
    plan: &ExecutablePlan,
    split: &str,
    records: usize,
    backend: &mut Backend,
) {
    for feed in &plan.feeds {
        match feed {
            PlanFeed::Raw { merged, .. } => {
                let bytes = multi.node(*merged).profile.out_bytes * records as u64;
                backend.charge_read(&format!("raw:{split}"), bytes);
            }
            PlanFeed::Materialized { merged, key, .. } => {
                let bytes = multi.node(*merged).profile.out_bytes * records as u64;
                backend.charge_read(&format!("{key}:{split}"), bytes);
            }
        }
    }
}

/// Store keys for the plan's materialized feeds, in feed order.
fn mat_feed_keys(plan: &ExecutablePlan, split: &str) -> Vec<String> {
    plan.feeds
        .iter()
        .filter_map(|feed| match feed {
            PlanFeed::Raw { .. } => None,
            PlanFeed::Materialized { key, .. } => Some(format!("{key}:{split}")),
        })
        .collect()
}

/// Real per-epoch data feeds: raw feeds slice the in-memory dataset,
/// materialized feeds take the tensors produced for this generation by the
/// [`EpochPrefetcher`] (chunk-granular store reads, one tensor per
/// materialized feed in feed order).
fn assemble_feeds(
    plan: &ExecutablePlan,
    mats: Vec<Tensor>,
    split: &str,
    data: &Dataset,
) -> Result<Vec<(NodeId, Tensor)>, TrainError> {
    let mut mats = mats.into_iter();
    let mut feeds = Vec::with_capacity(plan.feeds.len());
    for feed in &plan.feeds {
        match feed {
            PlanFeed::Raw { plan_node, .. } => {
                feeds.push((*plan_node, data.inputs.clone()));
            }
            PlanFeed::Materialized { plan_node, key, .. } => {
                let tensor = mats.next().ok_or_else(|| {
                    TrainError::Data(format!("missing prefetched feed '{key}:{split}'"))
                })?;
                if tensor.shape().dim(0) != data.len() {
                    return Err(TrainError::Data(format!(
                        "feature '{key}:{split}' has {} records, dataset has {}",
                        tensor.shape().dim(0),
                        data.len()
                    )));
                }
                feeds.push((*plan_node, tensor));
            }
        }
    }
    Ok(feeds)
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
    use nautilus_store::SharedIoStats;
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

    #[test]
    fn fused_training_equals_solo_training() {
        let cfg = SystemConfig::tiny();
        let cands = vec![candidate(0.3), candidate(0.1)];
        let multi = MultiModelGraph::build(&cands);
        let train = token_dataset(12, 1);
        let valid = token_dataset(6, 2);
        let data = CycleDataView::records(&train, &valid);
        let io = SharedIoStats::new();
        let store = temp_store("equiv", io.clone());

        // Solo units.
        let solo_units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let mut solo_acc = Vec::new();
        for unit in &solo_units {
            let plan = ExecutablePlan::build(&multi, &cands, unit).unwrap();
            let mut backend = Backend::new(BackendKind::Real, cfg.hardware, io.clone());
            let (r, _) =
                train_unit(&multi, &plan, unit, &cands, &data, &store, &mut backend, true, false)
                    .unwrap();
            solo_acc.push((r[0].candidate, r[0].accuracy.unwrap(), r[0].train_loss.unwrap()));
        }

        // Fused unit.
        let fused_units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, true);
        assert_eq!(fused_units.len(), 1);
        let plan = ExecutablePlan::build(&multi, &cands, &fused_units[0]).unwrap();
        let mut backend = Backend::new(BackendKind::Real, cfg.hardware, io.clone());
        let (fused, _) = train_unit(
            &multi,
            &plan,
            &fused_units[0],
            &cands,
            &data,
            &store,
            &mut backend,
            false,
            false,
        )
        .unwrap();

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
        let train = token_dataset(12, 5);
        let valid = token_dataset(6, 6);
        let data = CycleDataView::records(&train, &valid);
        let io = SharedIoStats::new();
        let store = temp_store("mixed", io.clone());

        let solo_units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let mut solo = Vec::new();
        for unit in &solo_units {
            let plan = ExecutablePlan::build(&multi, &cands, unit).unwrap();
            let mut backend = Backend::new(BackendKind::Real, cfg.hardware, io.clone());
            let (r, _) =
                train_unit(&multi, &plan, unit, &cands, &data, &store, &mut backend, true, false)
                    .unwrap();
            solo.push((r[0].candidate, r[0].accuracy.unwrap(), r[0].train_loss.unwrap()));
        }

        let fused_units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, true);
        assert_eq!(fused_units.len(), 1, "2- and 4-epoch members must fuse");
        assert_eq!(fused_units[0].member_epochs, vec![2, 4]);
        let plan = ExecutablePlan::build(&multi, &cands, &fused_units[0]).unwrap();
        let mut backend = Backend::new(BackendKind::Real, cfg.hardware, io);
        let (fused, _) = train_unit(
            &multi,
            &plan,
            &fused_units[0],
            &cands,
            &data,
            &store,
            &mut backend,
            false,
            false,
        )
        .unwrap();
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
        let train = token_dataset(64, 3);
        let valid = token_dataset(16, 4);
        let data = CycleDataView::records(&train, &valid);
        let io = SharedIoStats::new();
        let store = temp_store("learn", io.clone());
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        let mut backend = Backend::new(BackendKind::Real, cfg.hardware, io);
        let (r, _) =
            train_unit(&multi, &plan, &units[0], &cands, &data, &store, &mut backend, true, false)
                .unwrap();
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
        let train = token_dataset(13, 7); // ragged final batch on purpose
        let valid = token_dataset(6, 8);
        let data = CycleDataView::records(&train, &valid);
        let io = SharedIoStats::new();
        let store = temp_store("shuffle", io.clone());

        let run = |fuse: bool, shuffle: bool| -> Vec<(usize, f32, f32)> {
            let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, fuse);
            let mut out = Vec::new();
            for unit in &units {
                let plan = ExecutablePlan::build(&multi, &cands, unit).unwrap();
                let mut backend = Backend::new(BackendKind::Real, cfg.hardware, io.clone());
                let (r, _) = train_unit(
                    &multi, &plan, unit, &cands, &data, &store, &mut backend, true, shuffle,
                )
                .unwrap();
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
        let store = temp_store("virt", io.clone());
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        let mut backend = Backend::new(BackendKind::Simulated, cfg.hardware, io.clone());
        let data = CycleDataView { n_train: 100, n_valid: 25, records: None };
        let (r, _) =
            train_unit(&multi, &plan, &units[0], &cands, &data, &store, &mut backend, true, false)
                .unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].accuracy.is_none());
        assert!(backend.elapsed_secs() > 0.0);
        assert!(backend.total_flops() > 0.0);
        let snap = io.snapshot();
        assert!(snap.disk_read_bytes > 0); // raw data + checkpoint reads
        assert!(snap.disk_write_bytes > 0); // checkpoint write
    }

    #[test]
    fn full_checkpoints_write_more_than_pruned() {
        let cfg = SystemConfig::tiny();
        let cands = vec![candidate(0.1)];
        let multi = MultiModelGraph::build(&cands);
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        let data = CycleDataView { n_train: 50, n_valid: 10, records: None };

        let mut writes = Vec::new();
        for full in [true, false] {
            let io = SharedIoStats::new();
            let store = temp_store(&format!("ckpt{full}"), io.clone());
            let mut backend = Backend::new(BackendKind::Simulated, cfg.hardware, io.clone());
            train_unit(&multi, &plan, &units[0], &cands, &data, &store, &mut backend, full, false)
                .unwrap();
            writes.push(io.snapshot().disk_write_bytes);
        }
        assert!(writes[0] > writes[1], "full {} <= pruned {}", writes[0], writes[1]);
    }
}
