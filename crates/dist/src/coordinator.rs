//! The coordinator: one model-selection cycle as a `ModelSelection` whose
//! units train on [`RemoteUnits`].
//!
//! Planning, materialization, the best-pick fold and the export all run in
//! the session's own `fit`, exactly as on a single box; only where the
//! units train differs. Training itself is deterministic given the plan
//! graphs, datasets, and config (mini-batch permutations are seeded by
//! record count and epoch only), and every float crosses the wire as exact
//! bits, so the report matches a single box at any worker count.

use crate::remote::RemoteUnits;
use nautilus_core::backend::BackendKind;
use nautilus_core::config::SystemConfig;
use nautilus_core::session::{CycleInput, ModelSelection, SessionError, Strategy};
use nautilus_core::spec::CandidateModel;
use nautilus_data::Dataset;
use nautilus_dnn::ModelGraph;
use nautilus_util::{eventlog, telemetry};
use std::path::Path;

/// One model-selection cycle to run distributed.
#[derive(Debug, Clone)]
pub struct DistJob {
    /// The candidate workload.
    pub candidates: Vec<CandidateModel>,
    /// System configuration; the session's effective form of it (after
    /// I/O calibration) ships to every worker.
    pub config: SystemConfig,
    /// Execution strategy.
    pub strategy: Strategy,
    /// Accumulated training split.
    pub train: Dataset,
    /// Accumulated validation split.
    pub valid: Dataset,
}

/// Per-shard accounting for the report/bench output.
#[derive(Debug, Clone)]
pub struct ShardStat {
    /// Unit index this shard trained.
    pub unit_index: usize,
    /// Worker address that completed it.
    pub worker: String,
    /// Dispatch attempts (1 = no retry).
    pub attempts: u32,
    /// Request body bytes shipped on the successful attempt.
    pub bytes_shipped: u64,
    /// Wall seconds of the successful dispatch (ship + train + reply).
    pub secs: f64,
}

/// Outcome of a distributed search.
#[derive(Debug)]
pub struct DistReport {
    /// `(name, accuracy)` per member, in unit/member order — identical to
    /// `CycleReport::accuracies` from a single-box `fit`.
    pub accuracies: Vec<(String, Option<f32>)>,
    /// Best model by validation accuracy (first-wins on ties).
    pub best: Option<(String, f32)>,
    /// Candidate index of the best model.
    pub best_candidate: Option<usize>,
    /// The best candidate's trained graph, mapped back to its own topology.
    pub best_trained: Option<ModelGraph>,
    /// Number of training units sharded.
    pub units: usize,
    /// Total dispatch retries across all shards.
    pub retries: u64,
    /// Leases that expired (read timeout) rather than erroring fast.
    pub lease_timeouts: u64,
    /// Workers still alive at the end.
    pub workers_alive: usize,
    /// Per-shard accounting, in unit order.
    pub shard_stats: Vec<ShardStat>,
    /// Median measured coordinator→worker bandwidth (bytes/sec; 0 when the
    /// probe was skipped).
    pub net_bytes_per_sec: f64,
    /// Wall seconds of the cycle's train phase (dispatch + train + fold).
    pub train_secs: f64,
    /// The session's busy seconds, every shard's absorbed.
    pub busy_secs: f64,
    /// The session's FLOPs — equal to a single box's `stats().flops`.
    pub total_flops: f64,
}

/// Coordinator errors.
#[derive(Debug)]
pub enum DistError {
    /// Transport/filesystem failure outside the retry loop.
    Io(String),
    /// The session failed (planning, materialization, ...).
    Session(SessionError),
    /// No live workers (at start, or after losing all of them).
    NoWorkers(String),
    /// A shard ran out of retries.
    ShardFailed {
        /// The failing unit index.
        unit: usize,
        /// Attempts made.
        attempts: u32,
        /// Last error observed.
        last: String,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Io(e) => write!(f, "dist io: {e}"),
            DistError::Session(e) => write!(f, "dist session: {e}"),
            DistError::NoWorkers(e) => write!(f, "no live workers: {e}"),
            DistError::ShardFailed { unit, attempts, last } => {
                write!(f, "shard {unit} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for DistError {}

/// Recovers [`RemoteUnits`]' own typed error from the session's executor
/// variant; any other session failure stays wrapped.
impl From<SessionError> for DistError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::Executor(inner) if inner.is::<DistError>() => {
                *inner.downcast::<DistError>().expect("checked by is::<DistError>")
            }
            e => DistError::Session(e),
        }
    }
}

/// Runs one distributed model-selection cycle over `workers` (host:port
/// addresses). `workdir` holds the coordinator session's checkpoints and
/// feature store.
pub fn run_search(
    job: &DistJob,
    workers: &[String],
    workdir: &Path,
) -> Result<DistReport, DistError> {
    telemetry::init_from_env();
    eventlog::init_from_env();
    let remote = RemoteUnits::connect(workers, job.config.dist)?;
    let ledger = remote.ledger();
    let mut session = ModelSelection::new(
        job.candidates.clone(),
        job.config.clone(),
        job.strategy,
        BackendKind::Real,
        workdir,
    )?;
    session.set_unit_executor(Box::new(remote));
    let report =
        session.fit(CycleInput::Real { train: job.train.clone(), valid: job.valid.clone() })?;
    let exported = session.export_best().ok();
    let stats = session.stats();
    let mut ledger = ledger.lock().expect("lease ledger lock poisoned");
    Ok(DistReport {
        accuracies: report.accuracies,
        best: report.best,
        best_candidate: exported.as_ref().map(|(ci, _)| *ci),
        best_trained: exported.map(|(_, graph)| graph),
        units: session.units().len(),
        retries: ledger.retries,
        lease_timeouts: ledger.lease_timeouts,
        workers_alive: ledger.workers_alive,
        shard_stats: std::mem::take(&mut ledger.shard_stats),
        net_bytes_per_sec: ledger.net_bytes_per_sec,
        train_secs: report.train_secs,
        busy_secs: stats.busy_secs,
        total_flops: stats.flops,
    })
}
