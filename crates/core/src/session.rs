//! The user-facing model-selection session (paper §3's API + component
//! orchestration).
//!
//! [`ModelSelection::new`] performs workload initialization: original
//! model checkpoints, profiling, the materialization MILP, model fusion,
//! and optimized-plan checkpoints (the four init phases broken out in
//! Fig 6B). [`ModelSelection::fit`] is then called once per labeling cycle
//! with the newly labeled batch: it updates the dataset and the
//! incremental feature materialization (§4.2.3, including the exponential
//! backoff of `r`), retrains every unit on the full snapshot, and returns
//! the per-candidate validation accuracies. Where the units train is the
//! session's [`UnitExecutor`]: [`LocalUnits`] by default, or a remote one
//! (the distributed plane's lease scheduler) set with
//! [`ModelSelection::set_unit_executor`].
//!
//! A plan changes in one place. Whenever its inputs change — the
//! candidates (`new`, [`ModelSelection::update_workload`], which run the
//! same init phases), `r` (the backoff in `fit`), or a restored `r`
//! ([`ModelSelection::restore_state`]) — one re-plan chooses `V`, builds
//! the units, installs `V` and backfills newly chosen features over the
//! whole snapshot; `fit` then appends its batch to every other feature.
//!
//! Everything the session keeps between cycles lives in the feature store,
//! the one IO ledger on both backends: the labeled snapshot (`raw:{split}`
//! inputs and `labels:{split}` labels, appended each cycle), the
//! materialized features, and the checkpoints (`ckpt:init:{candidate}`,
//! `ckpt:plan:{unit}`, and each unit's trained `ckpt:out:{first member}`).
//! The real backend writes and reads their bytes; the simulated one records
//! modeled entries of the same exact sizes.

use crate::backend::{Backend, BackendKind};
use crate::config::SystemConfig;
use crate::fusion::{fuse_models, fuse_with, TrainUnit};
use crate::mat_opt::{choose_materialization, mat_all_plan, no_reuse_plan, MilpRunStats};
use crate::materializer::{MatError, Materializer};
use crate::metrics::{CycleReport, InitReport, RunStats};
use crate::multimodel::{MNodeId, MultiModelGraph};
use crate::plan::ExecutablePlan;
use crate::profiler::profile_graph;
use crate::spec::CandidateModel;
use crate::speedup::theoretical_speedup;
use crate::trainer::{snapshot_items, CycleDataView, MemberResult, TrainError};
use nautilus_data::Dataset;
use nautilus_dnn::checkpoint;
use nautilus_dnn::graph::GraphError;
use nautilus_dnn::{ModelGraph, NodeId};
use nautilus_store::{IoCalibration, Object, SharedIoStats, StoreError, TensorStore};
use nautilus_tensor::Shape;
use nautilus_util::{eventlog, telemetry};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Instant;

/// Execution strategy: the paper's system points (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Train unmodified models independently; full checkpoints (baseline).
    CurrentPractice,
    /// Materialize and load *all* materializable layers (baseline).
    MatAll,
    /// Nautilus with only the materialization optimization (ablation).
    MatOnly,
    /// Nautilus with only the model-fusion optimization (ablation).
    FuseOnly,
    /// Full Nautilus: materialization + fusion.
    Nautilus,
}

impl Strategy {
    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::CurrentPractice => "current-practice",
            Strategy::MatAll => "mat-all",
            Strategy::MatOnly => "nautilus-w/o-fuse",
            Strategy::FuseOnly => "nautilus-w/o-mat",
            Strategy::Nautilus => "nautilus",
        }
    }

    /// Parses a [`Strategy::label`] back into the strategy (wire DTOs ship
    /// strategies by label).
    pub fn from_label(label: &str) -> Option<Strategy> {
        [
            Strategy::CurrentPractice,
            Strategy::MatAll,
            Strategy::MatOnly,
            Strategy::FuseOnly,
            Strategy::Nautilus,
        ]
        .into_iter()
        .find(|s| s.label() == label)
    }

    /// Whether this strategy runs the MAT-OPT optimizer.
    pub fn runs_optimizer(&self) -> bool {
        !matches!(self, Strategy::CurrentPractice)
    }

    /// Whether model fusion (FUSE) is enabled.
    pub fn fuse_enabled(&self) -> bool {
        matches!(self, Strategy::FuseOnly | Strategy::Nautilus)
    }

    /// Whether per-member full checkpoints are kept during training.
    pub fn full_checkpoints(&self) -> bool {
        matches!(self, Strategy::CurrentPractice)
    }
}

/// Data handed to one `fit` call.
#[derive(Debug, Clone)]
pub enum CycleInput {
    /// Real labeled batches (real backend).
    Real {
        /// Newly labeled training records.
        train: Dataset,
        /// Newly labeled validation records.
        valid: Dataset,
    },
    /// Record counts only (simulated backend).
    Virtual {
        /// Newly labeled training records.
        n_train: usize,
        /// Newly labeled validation records.
        n_valid: usize,
    },
}

/// Session errors.
#[derive(Debug)]
pub enum SessionError {
    /// Graph/plan construction failed.
    Graph(GraphError),
    /// Materializer failure.
    Materializer(MatError),
    /// Trainer failure.
    Trainer(TrainError),
    /// Store failure.
    Store(StoreError),
    /// Misuse (wrong backend/input pairing, empty workload, ...).
    Invalid(String),
    /// A [`UnitExecutor`]'s own failure (e.g. the distributed plane's
    /// typed error), recoverable by downcast.
    Executor(Box<dyn std::error::Error + Send + Sync>),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Graph(e) => write!(f, "session graph: {e}"),
            SessionError::Materializer(e) => write!(f, "session materializer: {e}"),
            SessionError::Trainer(e) => write!(f, "session trainer: {e}"),
            SessionError::Store(e) => write!(f, "session store: {e}"),
            SessionError::Invalid(m) => write!(f, "session: {m}"),
            SessionError::Executor(e) => write!(f, "session unit executor: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<GraphError> for SessionError {
    fn from(e: GraphError) -> Self {
        SessionError::Graph(e)
    }
}
impl From<MatError> for SessionError {
    fn from(e: MatError) -> Self {
        SessionError::Materializer(e)
    }
}
impl From<TrainError> for SessionError {
    fn from(e: TrainError) -> Self {
        SessionError::Trainer(e)
    }
}
impl From<StoreError> for SessionError {
    fn from(e: StoreError) -> Self {
        SessionError::Store(e)
    }
}

/// A model-selection session over evolving training data.
pub struct ModelSelection {
    config: SystemConfig,
    strategy: Strategy,
    candidates: Vec<CandidateModel>,
    multi: MultiModelGraph,
    units: Vec<(TrainUnit, ExecutablePlan)>,
    materializer: Materializer,
    /// The clock, holding the ledger's counters the store records into.
    backend: Backend,
    init: InitReport,
    milp: Option<MilpRunStats>,
    /// Current `r` (grows by exponential backoff).
    max_records: usize,
    cycle: usize,
    /// Records of the snapshot (which lives in the feature store).
    n_train: usize,
    n_valid: usize,
    /// Measured I/O bandwidths from the startup micro-probe (real backend
    /// with `config.io.calibrate`); `None` means the planner keeps its
    /// static disk constant.
    calibration: Option<IoCalibration>,
    best_so_far: Option<(usize, f32)>,
    /// Best candidate's *trained* graph (real backend only): the plan
    /// graph's post-training parameters mapped back onto the candidate's
    /// own topology, ready for checkpointing or serving.
    best_trained: Option<(usize, ModelGraph)>,
    /// Where `fit` trains the units ([`LocalUnits`] unless replaced).
    executor: Box<dyn UnitExecutor>,
}

/// The borrowed training work of one cycle, handed to a [`UnitExecutor`]:
/// the session's plan, its *effective* configuration (after I/O
/// calibration and the re-plan blend), the installed `V`, the feature
/// store holding it and the snapshot, and the snapshot's record counts.
pub struct CycleWork<'a> {
    /// The multi-model graph.
    pub multi: &'a MultiModelGraph,
    /// The candidate set.
    pub candidates: &'a [CandidateModel],
    /// The training units with their plans, in unit order.
    pub units: &'a [(TrainUnit, ExecutablePlan)],
    /// The installed materialized set `V`.
    pub v: &'a BTreeSet<MNodeId>,
    /// The session's effective configuration.
    pub config: &'a SystemConfig,
    /// Execution strategy.
    pub strategy: Strategy,
    /// The feature store holding the snapshot, the features the units'
    /// plans load and their start checkpoints.
    pub store: &'a TensorStore,
    /// The accumulated snapshot's record counts.
    pub data: CycleDataView,
}

/// One unit's training outcome: per-member results in `unit.members`
/// order, plus the trained plan graph (real backend).
pub type UnitOutcome = (Vec<MemberResult>, Option<ModelGraph>);

/// Where a cycle's units train. `fit` hands each cycle's [`CycleWork`] to
/// its executor and folds the outcomes itself (best-pick, export), so
/// every executor yields the same selection as the single box.
pub trait UnitExecutor: Send {
    /// Trains every unit of `work`, returning one outcome per unit in unit
    /// order, with the compute already charged to or absorbed into
    /// `backend`.
    fn train_units(
        &mut self,
        work: &CycleWork<'_>,
        backend: &mut Backend,
    ) -> Result<Vec<UnitOutcome>, SessionError>;
}

/// The default executor: trains every unit in this process. On the real
/// backend independent units run concurrently on the shared pool, each
/// task with its own accounting backend whose compute is absorbed in unit
/// order.
pub struct LocalUnits;

impl UnitExecutor for LocalUnits {
    fn train_units(
        &mut self,
        work: &CycleWork<'_>,
        backend: &mut Backend,
    ) -> Result<Vec<UnitOutcome>, SessionError> {
        let train = |index: usize, backend: &mut Backend| {
            let (unit, plan) = &work.units[index];
            crate::trainer::train_unit(
                work.multi, plan, unit, index, work.candidates, &work.data, work.store, backend,
                work.strategy, work.config.shuffle_each_epoch,
            )
        };
        // The simulated backend stays serial: its virtual clock is a single
        // timeline, so concurrent units would each charge it in turn anyway.
        if !(backend.is_real() && work.units.len() > 1 && nautilus_util::pool::num_threads() > 1)
        {
            return (0..work.units.len()).map(|u| train(u, backend).map_err(Into::into)).collect();
        }
        type UnitOut = Result<(UnitOutcome, f64, f64), TrainError>;
        let tasks: Vec<Box<dyn FnOnce() -> UnitOut + Send>> = (0..work.units.len())
            .map(|u| {
                let mut worker = backend.fork();
                Box::new(move || {
                    let outcome = train(u, &mut worker)?;
                    Ok((outcome, worker.busy_secs(), worker.total_flops()))
                }) as Box<dyn FnOnce() -> UnitOut + Send>
            })
            .collect();
        let mut outcomes = Vec::with_capacity(work.units.len());
        for out in nautilus_util::pool::join_all(tasks) {
            let (outcome, busy, flops) = out?;
            backend.absorb_compute(busy, flops);
            outcomes.push(outcome);
        }
        Ok(outcomes)
    }
}

/// Turns `config` into process and store settings — the one place this
/// happens, for the session and the remote worker alike: requests the
/// shared pool's width, applies the GEMM kernel preference, and opens the
/// feature store at `dir` with the configured page-cache size and I/O
/// policy.
pub fn open_feature_store(
    config: &SystemConfig,
    dir: PathBuf,
    io: SharedIoStats,
) -> Result<TensorStore, StoreError> {
    if config.threads > 0 {
        // Best-effort: ignored if NAUTILUS_THREADS is set or the shared
        // pool has already been started.
        let _ = nautilus_util::pool::request_threads(config.threads);
    }
    // The NAUTILUS_GEMM_KERNEL env override still wins inside the dispatch
    // layer, and unsupported hosts degrade to safe.
    if let Some(kind) = nautilus_tensor::ops::gemm::KernelKind::parse(&config.gemm_kernel) {
        nautilus_tensor::ops::gemm::set_kernel_preference(kind);
    }
    let mut store = TensorStore::open(dir, io)?;
    // The store models the OS page cache of its chunk files at the size the
    // hardware profile declares (the simulated backend reads through its
    // own per-object model instead).
    store.set_page_cache_bytes(config.hardware.page_cache_bytes);
    Ok(store)
}

/// The JSON header of a saved session state: the evolving scalars (the
/// snapshot itself lives in the feature store).
struct StateHeader {
    version: u32,
    cycle: usize,
    n_train: usize,
    n_valid: usize,
    max_records: usize,
    best_so_far: Option<(usize, f32)>,
}
nautilus_util::json_struct!(StateHeader {
    version,
    cycle,
    n_train,
    n_valid,
    max_records,
    best_so_far
});

/// The current [`StateHeader`] version: 2 keeps the snapshot in the store
/// (version 1 carried it in the state file and no longer restores).
const STATE_VERSION: u32 = 2;

impl ModelSelection {
    /// Initializes a workload: profiles candidates, runs the optimizer for
    /// the chosen strategy, and prepares training units.
    pub fn new(
        candidates: Vec<CandidateModel>,
        config: SystemConfig,
        strategy: Strategy,
        backend_kind: BackendKind,
        workdir: impl Into<PathBuf>,
    ) -> Result<Self, SessionError> {
        if candidates.is_empty() {
            return Err(SessionError::Invalid("empty candidate set".into()));
        }
        let workdir = workdir.into();
        std::fs::create_dir_all(&workdir)
            .map_err(|e| SessionError::Invalid(format!("workdir: {e}")))?;
        telemetry::init_from_env();
        eventlog::init_from_env();
        if let Some(path) = &config.trace {
            telemetry::enable_to(path.clone());
        }
        let _sp_init = telemetry::span("core", "session.init");
        let backend = Backend::new(backend_kind, config.hardware, SharedIoStats::new());
        let store = open_feature_store(&config, workdir.join("features"), backend.io.clone())?;

        // Measured I/O calibration (opt-in): every plan then reads the
        // machine's actual sequential bandwidth in place of the planner's
        // static disk constant, blended with DRAM speed at the page-cache
        // hit rate observed so far (see `replan`). Real backend only: the
        // probe measures this machine's disk, which the simulated device
        // does not use.
        let calibration = if backend.is_real() && config.io.calibrate {
            // A failed probe (exotic filesystem, no space) is not fatal:
            // keep the static constant.
            nautilus_store::calibrate::probe(&workdir, config.io.calibrate_probe_bytes)
                .ok()
                .inspect(|cal| {
                    if telemetry::metrics_enabled() {
                        telemetry::CALIBRATED_SEQ_READ_BPS
                            .set(cal.seq_read_bytes_per_sec as i64);
                        telemetry::CALIBRATED_RAND_READ_BPS
                            .set(cal.rand_read_bytes_per_sec as i64);
                        telemetry::CALIBRATED_WRITE_BPS.set(cal.write_bytes_per_sec as i64);
                    }
                    eventlog::info(
                        "io.calibration",
                        &[
                            ("seq_read_bps", eventlog::Value::F64(cal.seq_read_bytes_per_sec)),
                            ("rand_read_bps", eventlog::Value::F64(cal.rand_read_bytes_per_sec)),
                            ("write_bps", eventlog::Value::F64(cal.write_bytes_per_sec)),
                            ("probe_bytes", eventlog::Value::U64(cal.probe_bytes)),
                        ],
                    );
                })
        } else {
            None
        };

        // MAT-ALL is the paper's unbounded baseline: it materializes every
        // materializable layer "irrespective of whether it is efficient"
        // (§5.1), so it is exempt from the Bdisk enforcement that guards
        // planner-chosen sets.
        let enforced_budget = if strategy == Strategy::MatAll {
            u64::MAX
        } else {
            config.disk_budget_bytes
        };
        let mut session = ModelSelection {
            max_records: config.max_records,
            config,
            strategy,
            candidates: Vec::new(),
            multi: MultiModelGraph::build(&[]),
            units: Vec::new(),
            materializer: Materializer::new(store, enforced_budget),
            backend,
            init: InitReport::default(),
            milp: None,
            cycle: 0,
            n_train: 0,
            n_valid: 0,
            calibration,
            best_so_far: None,
            best_trained: None,
            executor: Box::new(LocalUnits),
        };
        session.init = session.initialize(candidates)?;
        Ok(session)
    }

    /// Runs the four initialization phases (Fig 6B) for `candidates`, for
    /// a new session and a replaced workload alike: original checkpoints,
    /// profiling, the optimizer (one [`Self::replan`]) and checkpoints of
    /// the optimized plans.
    fn initialize(&mut self, candidates: Vec<CandidateModel>) -> Result<InitReport, SessionError> {
        let c_start = self.backend.elapsed_secs();

        // Phase 1: original model checkpoints (all strategies).
        let sp = telemetry::span("core", "init.original_checkpoints");
        let (t0, c0) = (Instant::now(), self.backend.elapsed_secs());
        let originals = candidates.iter().enumerate();
        let objects = originals.map(|(i, c)| {
            (format!("ckpt:init:{i}"), Self::checkpoint(&self.backend, &c.graph, false))
        });
        self.materializer.store.put_objects(objects)?;
        let original_checkpoints_secs = end_phase(&mut self.backend, t0, c0);
        drop(sp);

        // Phase 2: profiling (optimizer strategies only).
        let sp = telemetry::span("core", "init.profiling");
        let (t0, c0) = (Instant::now(), self.backend.elapsed_secs());
        self.multi = MultiModelGraph::build(&candidates);
        if self.strategy.runs_optimizer() {
            // Profiling runs a couple of measurement batches per candidate.
            for c in &candidates {
                let profiles = profile_graph(&c.graph);
                let fwd: u64 = profiles.iter().map(|p| p.fwd_flops).sum();
                self.backend.charge_compute(2.0 * fwd as f64 * c.hyper.batch_size as f64, None);
            }
        }
        self.candidates = candidates;
        let profiling_secs = end_phase(&mut self.backend, t0, c0);
        drop(sp);

        // Phase 3: the optimizer (MILP + fusion).
        let sp = telemetry::span("core", "init.optimize");
        let (_, optimize_secs) = self.replan()?;
        drop(sp);

        // Phase 4: checkpoints for the optimized plans.
        let sp = telemetry::span("core", "init.plan_checkpoints");
        let (t0, c0) = (Instant::now(), self.backend.elapsed_secs());
        self.save_plan_checkpoints()?;
        let plan_checkpoints_secs = end_phase(&mut self.backend, t0, c0);
        drop(sp);

        Ok(InitReport {
            original_checkpoints_secs,
            profiling_secs,
            optimize_secs,
            plan_checkpoints_secs,
            milp_secs: self.milp.as_ref().map_or(0.0, |m| m.elapsed.as_secs_f64()),
            total_secs: self.backend.elapsed_secs() - c_start,
            num_units: self.units.len(),
            num_materialized: self.materializer.v().len(),
            theoretical_speedup: theoretical_speedup(&self.candidates),
        })
    }

    /// Re-plans after the plan inputs changed (a new workload, a grown `r`,
    /// a restored `r`) — the one place a plan changes. Blends the measured
    /// disk bandwidth with DRAM speed at the page-cache hit rate the store
    /// has observed, chooses `V`, builds the units, charges the planning
    /// time, installs `V`, and backfills every newly chosen feature over the
    /// whole accumulated snapshot. Returns the backfilled set and the
    /// planning seconds.
    fn replan(&mut self) -> Result<(BTreeSet<MNodeId>, f64), SessionError> {
        let (t0, c0) = (Instant::now(), self.backend.elapsed_secs());
        if let Some(cal) = &self.calibration {
            let hit = self.materializer.store.cache_stats().hit_fraction();
            self.config.planner.disk_bytes_per_sec =
                cal.effective_read_bandwidth(hit, self.config.hardware.dram_bytes_per_sec);
        }
        let (multi, candidates) = (&self.multi, &self.candidates);
        let (v, milp) =
            Self::choose_v(multi, candidates, &self.config, self.strategy, self.max_records);
        self.milp = milp.or(self.milp.take());
        self.units = Self::build_units(multi, candidates, &self.config, self.strategy, &v)?;
        let plan_secs = end_phase(&mut self.backend, t0, c0);
        let backfill = self.materializer.install_v(multi, candidates, v)?;
        for (split, n) in [("train", self.n_train), ("valid", self.n_valid)] {
            if backfill.is_empty() || n == 0 {
                continue;
            }
            // The snapshot's inputs, read back through the ledger.
            let mat = &mut self.materializer;
            let inputs = mat.store.scan(&format!("raw:{split}"))?;
            let backend = &mut self.backend;
            mat.materialize(multi, candidates, &backfill, split, inputs.as_ref(), n, backend)?;
        }
        Ok((backfill, plan_secs))
    }

    /// Checkpoints every unit's plan as `ckpt:plan:{unit}` (optimizer
    /// strategies only: Current Practice units start from the original
    /// checkpoints) — after every re-plan, before any unit trains.
    fn save_plan_checkpoints(&mut self) -> Result<(), SessionError> {
        if self.strategy.runs_optimizer() {
            let objects = self.units.iter().enumerate().map(|(u, (_, plan))| {
                (format!("ckpt:plan:{u}"), Self::checkpoint(&self.backend, &plan.graph, false))
            });
            self.materializer.store.put_objects(objects)?;
        }
        Ok(())
    }

    /// Replaces where `fit` trains the units (default [`LocalUnits`]).
    /// Planning, materialization and the best-pick fold stay here, so the
    /// selection output does not depend on the executor.
    pub fn set_unit_executor(&mut self, executor: Box<dyn UnitExecutor>) {
        self.executor = executor;
    }

    /// Chooses the materialized set `V` for `strategy` — empty for the
    /// no-reuse strategies, everything for MatAll, the MILP optimum
    /// otherwise. Deterministic in its inputs.
    pub fn choose_v(
        multi: &MultiModelGraph,
        candidates: &[CandidateModel],
        config: &SystemConfig,
        strategy: Strategy,
        max_records: usize,
    ) -> (BTreeSet<MNodeId>, Option<MilpRunStats>) {
        match strategy {
            Strategy::CurrentPractice | Strategy::FuseOnly => (BTreeSet::new(), None),
            Strategy::MatAll => (multi.mat_candidates().into_iter().collect(), None),
            Strategy::MatOnly | Strategy::Nautilus => {
                let res = choose_materialization(multi, candidates, config, max_records);
                (res.materialized, Some(res.milp))
            }
        }
    }

    /// Builds the training units and their executable plans for a chosen
    /// `V`: Algorithm 1 over the fixed-`V` reuse plans, or, for the
    /// baselines, singleton units over the no-reuse (Current Practice) or
    /// load-everything (MAT-ALL) plans. Deterministic in its inputs (greedy
    /// fusion iterates in fixed order), so a remote worker rebuilding the
    /// unit list from the same candidates/config/strategy/`V` gets
    /// byte-identical plan graphs — the foundation of the distributed
    /// bit-identity contract.
    pub fn build_units(
        multi: &MultiModelGraph,
        candidates: &[CandidateModel],
        config: &SystemConfig,
        strategy: Strategy,
        v: &BTreeSet<MNodeId>,
    ) -> Result<Vec<(TrainUnit, ExecutablePlan)>, SessionError> {
        let units = match strategy {
            Strategy::CurrentPractice => {
                fuse_with(multi, candidates, config, false, |m| no_reuse_plan(multi, m, config))
            }
            Strategy::MatAll => {
                fuse_with(multi, candidates, config, false, |m| mat_all_plan(multi, m, config))
            }
            _ => fuse_models(multi, candidates, v, config, strategy.fuse_enabled()),
        };
        units
            .into_iter()
            .map(|u| {
                let plan = ExecutablePlan::build(multi, candidates, &u)?;
                Ok((u, plan))
            })
            .collect()
    }

    /// The initialization report (Fig 6B's phases).
    pub fn init_report(&self) -> InitReport {
        self.init
    }

    /// MILP statistics, when the strategy ran the optimizer.
    pub fn milp_stats(&self) -> Option<&MilpRunStats> {
        self.milp.as_ref()
    }

    /// The candidate set.
    pub fn candidates(&self) -> &[CandidateModel] {
        &self.candidates
    }

    /// The multi-model graph.
    pub fn multi(&self) -> &MultiModelGraph {
        &self.multi
    }

    /// The training units with their plans.
    pub fn units(&self) -> &[(TrainUnit, ExecutablePlan)] {
        &self.units
    }

    /// Current expected-maximum-records value `r`.
    pub fn max_records(&self) -> usize {
        self.max_records
    }

    /// Measured I/O bandwidths from the startup probe, if calibration ran.
    pub fn calibration(&self) -> Option<&IoCalibration> {
        self.calibration.as_ref()
    }

    /// Cumulative run statistics.
    pub fn stats(&self) -> RunStats {
        RunStats::from_parts(
            self.backend.elapsed_secs(),
            self.backend.busy_secs(),
            self.backend.total_flops(),
            self.backend.io.snapshot(),
        )
    }

    /// Total bytes of the installed materialized features in the feature
    /// store (modeled ones on the simulated backend); the snapshot and the
    /// checkpoints are not features.
    pub fn feature_bytes(&self) -> u64 {
        self.materializer.feature_bytes()
    }

    /// A checkpoint of `graph` as the store keeps it, without frozen
    /// parameters when `trainable_only`: its bytes on the real backend, its
    /// exact size on the simulated one (see [`Self::check_payload`]).
    fn checkpoint(backend: &Backend, graph: &ModelGraph, trainable_only: bool) -> Object {
        if backend.is_real() {
            Object::Bytes(checkpoint::save_to_bytes_with(graph, trainable_only))
        } else {
            Object::Modeled(checkpoint::encoded_len(graph, trainable_only))
        }
    }

    /// The one place what the session stores meets the backend: a batch or
    /// a restored snapshot must carry records exactly when the backend
    /// executes (and checkpoints are bytes exactly then).
    fn check_payload(&self, present: bool) -> Result<(), SessionError> {
        if present != self.backend.is_real() {
            return Err(SessionError::Invalid("CycleInput kind must match the backend kind".into()));
        }
        Ok(())
    }

    /// Runs one model-selection cycle on a newly labeled batch.
    pub fn fit(&mut self, input: CycleInput) -> Result<CycleReport, SessionError> {
        // 1. Ingest the new batch, resolved once into its counts and records.
        let (batch, dn_train, dn_valid) = match input {
            CycleInput::Real { train, valid } => {
                let (n_train, n_valid) = (train.len(), valid.len());
                (Some((train, valid)), n_train, n_valid)
            }
            CycleInput::Virtual { n_train, n_valid } => (None, n_train, n_valid),
        };
        self.check_payload(batch.is_some())?;
        self.cycle += 1;
        let _sp_cycle = telemetry::span("core", "cycle.fit");
        let sp_mat = telemetry::span("core", "cycle.materialize");
        let t_cycle = self.backend.elapsed_secs();
        // The labeled snapshot is stored: the batch's records, or modeled
        // chunks of the same shapes.
        let store = &mut self.materializer.store;
        match &batch {
            Some((train, valid)) => store.append_many(&snapshot_items(train, valid))?,
            None => {
                let (input, label) = record_shapes(&self.candidates[0]);
                let items: Vec<_> = [("train", dn_train), ("valid", dn_valid)]
                    .into_iter()
                    .flat_map(|(split, n)| {
                        [
                            (format!("raw:{split}"), input.clone(), n),
                            (format!("labels:{split}"), label.clone(), n),
                        ]
                    })
                    .collect();
                store.append_modeled(&items)?
            }
        };
        self.n_train += dn_train;
        self.n_valid += dn_valid;

        // 2. Exponential backoff of `r` (§4.2.3): when the snapshot outgrows
        // the planned maximum, double `r` and re-plan. The re-plan backfills
        // newly chosen features over the whole snapshot, this cycle's batch
        // included.
        let mut backfilled = BTreeSet::new();
        if self.n_train + self.n_valid > self.max_records && self.strategy.runs_optimizer() {
            while self.n_train + self.n_valid > self.max_records {
                self.max_records *= 2;
            }
            backfilled = self.replan()?.0;
            self.save_plan_checkpoints()?;
        }

        // 3. Incremental materialization: this cycle's batch for every
        // feature the backfill did not already cover.
        let fresh: BTreeSet<MNodeId> =
            self.materializer.v().difference(&backfilled).copied().collect();
        for (split, data, n) in [
            ("train", batch.as_ref().map(|(t, _)| &t.inputs), dn_train),
            ("valid", batch.as_ref().map(|(_, v)| &v.inputs), dn_valid),
        ] {
            let (multi, candidates) = (&self.multi, &self.candidates);
            self.materializer.materialize(
                multi, candidates, &fresh, split, data, n, &mut self.backend,
            )?;
        }
        drop(sp_mat);
        let materialize_secs = self.backend.elapsed_secs() - t_cycle;

        // 4. Train every unit on the full snapshot, wherever the executor
        // trains them. Outcomes come back in unit order, so the first-wins
        // best-pick below is the same for every executor.
        let sp_train = telemetry::span("core", "cycle.train");
        let t_train = self.backend.elapsed_secs();
        let work = CycleWork {
            multi: &self.multi,
            candidates: &self.candidates,
            units: &self.units,
            v: self.materializer.v(),
            config: &self.config,
            strategy: self.strategy,
            store: &self.materializer.store,
            data: CycleDataView { n_train: self.n_train, n_valid: self.n_valid },
        };
        let unit_results = self.executor.train_units(&work, &mut self.backend)?;
        if unit_results.len() != self.units.len() {
            return Err(SessionError::Invalid(format!(
                "unit executor returned {} outcomes for {} units",
                unit_results.len(),
                self.units.len()
            )));
        }
        // Each unit's trained checkpoint, in unit order whatever the
        // executor: full under Current Practice, trainable-only otherwise.
        // The simulated backend trains nothing and models the plan's.
        let trainable_only = !self.strategy.full_checkpoints();
        let trained = self.units.iter().zip(&unit_results).map(|((unit, plan), (_, trained))| {
            let graph = trained.as_ref().unwrap_or(&plan.graph);
            let object = Self::checkpoint(&self.backend, graph, trainable_only);
            (format!("ckpt:out:{}", unit.members[0]), object)
        });
        self.materializer.store.put_objects(trained)?;
        let mut accuracies: Vec<(String, Option<f32>)> = Vec::new();
        let mut best: Option<(usize, String, f32)> = None;
        let mut best_unit = 0usize;
        for (ui, (results, _)) in unit_results.iter().enumerate() {
            for r in results {
                if let Some(acc) = r.accuracy {
                    if best.as_ref().is_none_or(|(_, _, b)| acc > *b) {
                        best = Some((r.candidate, r.name.clone(), acc));
                        best_unit = ui;
                    }
                }
                accuracies.push((r.name.clone(), r.accuracy));
            }
        }
        if let Some((ci, _, acc)) = &best {
            self.best_so_far = Some((*ci, *acc));
            if let Some(trained) = &unit_results[best_unit].1 {
                let (_, plan) = &self.units[best_unit];
                let exported =
                    export_candidate(&self.multi, &self.candidates, plan, trained, *ci);
                self.best_trained = Some((*ci, exported));
            }
        }
        drop(sp_train);
        let now = self.backend.elapsed_secs();

        Ok(CycleReport {
            cycle: self.cycle,
            train_records: self.n_train,
            valid_records: self.n_valid,
            materialize_secs,
            train_secs: now - t_train,
            cycle_secs: now - t_cycle,
            accuracies,
            best: best.map(|(_, n, a)| (n, a)),
            stats: self.stats(),
        })
    }

    /// Replaces the model-selection workload mid-session (the paper's
    /// "evolving model selection workloads" extension, §2.5: re-run the
    /// optimization and update the materialized layers).
    ///
    /// The accumulated labeled dataset is kept. The new candidate set goes
    /// through the same initialization phases as [`ModelSelection::new`]
    /// (original checkpoints, profiling, the optimizer, plan checkpoints),
    /// and the re-plan backfills newly chosen features over the snapshot.
    /// The new candidates must consume the same input shape as the old
    /// ones.
    pub fn update_workload(
        &mut self,
        candidates: Vec<CandidateModel>,
    ) -> Result<InitReport, SessionError> {
        if candidates.is_empty() {
            return Err(SessionError::Invalid("empty candidate set".into()));
        }
        let (new_in, old_in) = (input_shape(&candidates[0]), input_shape(&self.candidates[0]));
        if new_in != old_in {
            return Err(SessionError::Invalid(format!(
                "new workload input shape {:?} != existing {:?}",
                new_in.0, old_in.0
            )));
        }
        let _sp_upd = telemetry::span("core", "session.update_workload");
        self.best_so_far = None;
        self.best_trained = None;
        self.init = self.initialize(candidates)?;
        Ok(self.init)
    }

    /// Persists the session's evolving state (cycle counter, snapshot record
    /// counts, backoff-adjusted `r`) to `path` so a labeling campaign can
    /// survive a process restart. The snapshot and the materialized
    /// features already live in the feature store; plans are recomputed
    /// deterministically on resume.
    pub fn save_state(&self, path: &std::path::Path) -> Result<(), SessionError> {
        let header = StateHeader {
            version: STATE_VERSION,
            cycle: self.cycle,
            n_train: self.n_train,
            n_valid: self.n_valid,
            max_records: self.max_records,
            best_so_far: self.best_so_far,
        };
        let header_json = nautilus_util::json::to_vec(&header);
        let mut buf = (header_json.len() as u64).to_le_bytes().to_vec();
        buf.extend_from_slice(&header_json);
        std::fs::write(path, &buf)
            .map_err(|e| SessionError::Invalid(format!("state write: {e}")))?;
        Ok(())
    }

    /// Restores state saved by [`ModelSelection::save_state`] into a freshly
    /// constructed session (same candidates, config, strategy, and workdir —
    /// the feature store under the workdir is reused as-is). Fails closed
    /// with [`SessionError::Invalid`] when the header's record counts
    /// disagree with the store's snapshot or with any materialized key of
    /// either split, or when the snapshot is not this backend's.
    pub fn restore_state(&mut self, path: &std::path::Path) -> Result<(), SessionError> {
        let data = std::fs::read(path)
            .map_err(|e| SessionError::Invalid(format!("state read: {e}")))?;
        if data.len() < 8 {
            return Err(SessionError::Invalid("truncated session state".into()));
        }
        let hlen = u64::from_le_bytes(data[..8].try_into().expect("8 bytes")) as usize;
        if data.len() != 8 + hlen {
            return Err(SessionError::Invalid("session state length mismatch".into()));
        }
        let header: StateHeader = nautilus_util::json::from_slice(&data[8..])
            .map_err(|e| SessionError::Invalid(format!("state header: {e}")))?;
        if header.version != STATE_VERSION {
            return Err(SessionError::Invalid(format!(
                "unsupported session state version {}",
                header.version
            )));
        }
        let store = &self.materializer.store;
        for (split, n) in [("train", header.n_train), ("valid", header.n_valid)] {
            for key in [format!("raw:{split}"), format!("labels:{split}")] {
                if store.num_records(&key) != n {
                    return Err(SessionError::Invalid(format!(
                        "snapshot out of sync for '{key}': {} records vs state {n}",
                        store.num_records(&key)
                    )));
                }
            }
        }
        // A state saved before its first cycle carries nothing to check.
        if header.n_train + header.n_valid > 0 {
            self.check_payload(store.holds_payload("raw:train")?)?;
        }
        self.cycle = header.cycle;
        self.n_train = header.n_train;
        self.n_valid = header.n_valid;
        self.best_so_far = header.best_so_far;
        // Trained parameters are not persisted in session state; the next
        // fit cycle repopulates the exportable model.
        self.best_trained = None;
        if header.max_records != self.max_records {
            // Re-plan under the persisted (backoff-grown) r.
            self.max_records = header.max_records;
            self.replan()?;
            self.save_plan_checkpoints()?;
        }
        // Feature-store consistency: every materialized key of both splits
        // must already hold exactly the snapshot's records.
        for &m in self.materializer.v() {
            for (split, n) in [("train", self.n_train), ("valid", self.n_valid)] {
                let key = format!("{}:{split}", self.multi.node(m).key);
                let stored = self.materializer.store.num_records(&key);
                if stored != n {
                    return Err(SessionError::Invalid(format!(
                        "feature store out of sync for '{key}': {stored} records vs snapshot {n}"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Scores unlabeled records with the best model so far, returning
    /// per-record class-probability vectors for active-learning samplers
    /// (token probabilities are averaged per record). Needs a trained model,
    /// so it errors on the simulated backend, which trains none.
    pub fn score_unlabeled(
        &self,
        pool_inputs: &nautilus_tensor::Tensor,
    ) -> Result<Vec<Vec<f32>>, SessionError> {
        let Some((best, _)) = self.best_so_far else {
            return Err(SessionError::Invalid("no trained model yet".into()));
        };
        let cand = &self.candidates[best];
        let g = &cand.graph;
        let input = g.input_ids()[0];
        let mut bi = nautilus_dnn::exec::BatchInputs::new();
        bi.insert(input, pool_inputs.clone());
        let fwd = nautilus_dnn::exec::forward(g, &bi, false)
            .map_err(|e| SessionError::Invalid(format!("scoring: {e}")))?;
        let logits = fwd.output(g.outputs()[0]);
        let probs = nautilus_tensor::ops::softmax_last(logits);
        let n = pool_inputs.shape().dim(0);
        let (rows, cols, data) = probs.as_matrix();
        let rows_per_record = rows / n.max(1);
        let mut out = Vec::with_capacity(n);
        for r in 0..n {
            let mut avg = vec![0.0f32; cols];
            for t in 0..rows_per_record {
                let row = &data[(r * rows_per_record + t) * cols..][..cols];
                for (a, &p) in avg.iter_mut().zip(row) {
                    *a += p / rows_per_record as f32;
                }
            }
            out.push(avg);
        }
        Ok(out)
    }

    /// Exports the best candidate trained so far as `(candidate index,
    /// trained graph)` — the candidate's own topology carrying the
    /// post-training parameters from its (possibly fused) execution plan.
    ///
    /// The returned graph is checkpoint- and serving-ready: save it with
    /// [`nautilus_dnn::checkpoint::save`] or publish it to a
    /// `nautilus-serve` model registry. Errors on the simulated backend
    /// (nothing is actually trained there) and before the first real
    /// `fit` cycle.
    pub fn export_best(&self) -> Result<(usize, ModelGraph), SessionError> {
        match &self.best_trained {
            Some((ci, g)) => Ok((*ci, g.clone())),
            None => Err(SessionError::Invalid("no trained model yet".into())),
        }
    }

    /// [`export_best`] plus the int8 serving form: every dense layer of
    /// the exported graph row-quantized (per-channel symmetric scales) at
    /// export time, ready to hand to a quantized serving path — the same
    /// representation `ModelRegistry::publish_with` builds when
    /// `quantize_int8` is on.
    pub fn export_best_quantized(
        &self,
    ) -> Result<(usize, ModelGraph, nautilus_dnn::QuantizedModel), SessionError> {
        let (ci, g) = self.export_best()?;
        let quant = nautilus_dnn::QuantizedModel::from_graph(&g, None)
            .map_err(|e| SessionError::Invalid(e.to_string()))?;
        Ok((ci, g, quant))
    }
}

/// Maps the trained plan graph's parameters back onto candidate `ci`'s own
/// topology: candidate node → merged node (`mappings[ci]`) → plan node
/// (`merged_to_plan`). Nodes the plan pruned or loaded from materialized
/// features keep their initial (frozen) parameters — the optimizer never
/// touches those, so the result equals full solo training of the candidate.
fn export_candidate(
    multi: &MultiModelGraph,
    candidates: &[CandidateModel],
    plan: &ExecutablePlan,
    trained: &ModelGraph,
    ci: usize,
) -> ModelGraph {
    let mut g = candidates[ci].graph.clone();
    for idx in 0..g.len() {
        let m = multi.mappings[ci].node_to_merged[idx];
        let Some(&p) = plan.merged_to_plan.get(&m) else { continue };
        let src = &trained.node(p).params;
        let dst = &mut g.node_mut(NodeId(idx)).params;
        if !src.is_empty() && src.len() == dst.len() {
            dst.clone_from(src);
        }
    }
    g
}

impl Drop for ModelSelection {
    fn drop(&mut self) {
        // Best-effort trace flush: a no-op unless a sink was configured
        // (NAUTILUS_TRACE or SystemConfig::trace). Sequential sessions
        // re-export cumulatively, so the file always holds the full run.
        let _ = telemetry::export();
    }
}

/// Ends a phase begun at wall instant `t0` and clock reading `clock0`:
/// charges the phase's measured wall time as overhead (the CPU work of
/// planning and checkpointing is real on either backend, and the real clock
/// has already run) and returns the phase's duration on the backend clock.
fn end_phase(backend: &mut Backend, t0: Instant, clock0: f64) -> f64 {
    backend.charge_overhead(t0.elapsed().as_secs_f64());
    backend.elapsed_secs() - clock0
}

/// The shape of a candidate's (single) raw input.
fn input_shape(candidate: &CandidateModel) -> &Shape {
    let g = &candidate.graph;
    g.shape(g.input_ids()[0])
}

/// Per-record shapes of a candidate's inputs and labels: a label per
/// output row, i.e. the output's shape without its class dimension
/// (`[seq]` for token tagging, `[]` for classification).
fn record_shapes(candidate: &CandidateModel) -> (Vec<usize>, Vec<usize>) {
    let g = &candidate.graph;
    let out = &g.shape(g.outputs()[0]).0;
    (input_shape(candidate).0.clone(), out[..out.len().saturating_sub(1)].to_vec())
}
