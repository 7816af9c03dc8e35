//! The coordinator: shards one model-selection cycle across workers and
//! folds the results into the single-box answer, bit for bit.
//!
//! Scheduling model: every training unit is one *shard*, and every shard
//! dispatch is a *lease* whose duration is the HTTP read timeout
//! (`dist.lease_timeout_ms`). A failed or expired lease requeues the shard
//! with capped exponential backoff; the failing worker is re-probed and, if
//! dead, leaves the pool (its in-flight shard is reassigned to whoever is
//! left). A shard that exhausts `dist.max_shard_retries` fails the search;
//! losing every worker fails it immediately.
//!
//! Determinism contract: shards may complete in any order on any worker,
//! but the fold walks units in index order, absorbing each worker backend's
//! `(busy_secs, flops)` and applying the same strict-`>` first-wins
//! best-pick as `ModelSelection::fit`. Training itself is deterministic
//! given the plan graphs, datasets, and config (mini-batch permutations are
//! seeded by record count and epoch only), and every float crosses the wire
//! as exact bits, so the report matches a single box at any worker count.

use crate::proto;
use nautilus_core::backend::{Backend, BackendKind};
use nautilus_core::config::SystemConfig;
use nautilus_core::materializer::{MatError, Materializer};
use nautilus_core::multimodel::MultiModelGraph;
use nautilus_core::session::{self, ModelSelection, SessionError, Strategy};
use nautilus_core::spec::CandidateModel;
use nautilus_data::Dataset;
use nautilus_dnn::{checkpoint, ModelGraph};
use nautilus_store::{IoPolicy, SharedIoStats, StoreError, TensorStore};
use nautilus_util::http;
use nautilus_util::{eventlog, telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// One model-selection cycle to run distributed.
#[derive(Debug, Clone)]
pub struct DistJob {
    /// The candidate workload.
    pub candidates: Vec<CandidateModel>,
    /// System configuration, shipped verbatim to every worker.
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
    /// Wall seconds of the dispatch+train+fold phase.
    pub train_secs: f64,
    /// Folded busy seconds across all worker backends.
    pub busy_secs: f64,
    /// Folded FLOPs across all worker backends.
    pub total_flops: f64,
}

/// Coordinator errors.
#[derive(Debug)]
pub enum DistError {
    /// Transport/filesystem failure outside the retry loop.
    Io(String),
    /// Wire encode/decode failure.
    Proto(proto::ProtoError),
    /// Planning failed (shared with the single-box session).
    Session(SessionError),
    /// Feature materialization failed.
    Mat(MatError),
    /// Feature store failure.
    Store(StoreError),
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
            DistError::Proto(e) => write!(f, "dist proto: {e}"),
            DistError::Session(e) => write!(f, "dist planning: {e}"),
            DistError::Mat(e) => write!(f, "dist materialization: {e}"),
            DistError::Store(e) => write!(f, "dist store: {e}"),
            DistError::NoWorkers(e) => write!(f, "no live workers: {e}"),
            DistError::ShardFailed { unit, attempts, last } => {
                write!(f, "shard {unit} failed after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<proto::ProtoError> for DistError {
    fn from(e: proto::ProtoError) -> Self {
        DistError::Proto(e)
    }
}

impl From<SessionError> for DistError {
    fn from(e: SessionError) -> Self {
        DistError::Session(e)
    }
}

impl From<MatError> for DistError {
    fn from(e: MatError) -> Self {
        DistError::Mat(e)
    }
}

impl From<StoreError> for DistError {
    fn from(e: StoreError) -> Self {
        DistError::Store(e)
    }
}

impl From<std::io::Error> for DistError {
    fn from(e: std::io::Error) -> Self {
        DistError::Io(e.to_string())
    }
}

/// One worker's slot in the pool.
struct WorkerSlot {
    addr: String,
    alive: AtomicBool,
    busy: AtomicBool,
}

/// Shared scheduler state between the main loop and dispatch threads.
struct Sched {
    workers: Vec<WorkerSlot>,
    /// `(unit_index, attempts, not_before)` — shards awaiting dispatch.
    queue: Mutex<VecDeque<(usize, u32, Instant)>>,
    retries: AtomicU64,
    lease_timeouts: AtomicU64,
    inflight: AtomicU64,
}

impl Sched {
    fn alive_count(&self) -> usize {
        self.workers.iter().filter(|w| w.alive.load(Ordering::SeqCst)).count()
    }

    fn mark_dead(&self, wi: usize) {
        if self.workers[wi].alive.swap(false, Ordering::SeqCst) {
            telemetry::DIST_WORKERS_ALIVE.set(self.alive_count() as i64);
            eventlog::warn(
                "dist.worker_leave",
                &[("worker", eventlog::Value::Str(&self.workers[wi].addr))],
            );
        }
    }
}

fn healthz(addr: &str, timeout: Duration) -> bool {
    matches!(http::request(addr, "GET", "/healthz", None, timeout), Ok((200, _)))
}

/// Probes each live worker with an echo payload and returns the median
/// measured round-trip bandwidth in bytes/sec (payload travels both ways,
/// so one probe moves `2 * probe_bytes`).
fn probe_net(workers: &[&str], probe_bytes: usize, timeout: Duration) -> f64 {
    let payload = vec![0xA5u8; probe_bytes.max(1)];
    let mut rates = Vec::new();
    for addr in workers {
        let t0 = Instant::now();
        match http::request(addr, "POST", "/work/probe", Some(&payload), timeout) {
            Ok((200, echo)) if echo.len() == payload.len() => {
                let secs = t0.elapsed().as_secs_f64().max(1e-9);
                rates.push(2.0 * payload.len() as f64 / secs);
            }
            _ => {}
        }
    }
    if rates.is_empty() {
        return 0.0;
    }
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}

/// Serializes the feature chunks one unit's plan loads, in store append
/// order, as `(store key, records, encoded bytes)` manifest entries.
fn unit_features(
    store: &TensorStore,
    plan: &nautilus_core::plan::ExecutablePlan,
) -> Result<Vec<(String, u64, Vec<u8>)>, DistError> {
    let mut out = Vec::new();
    for base in plan.materialized_keys() {
        for split in ["train", "valid"] {
            let key = format!("{base}:{split}");
            let cp = store.chunk_plan(&key)?;
            for chunk in &cp.chunks {
                let bytes = std::fs::read(&chunk.path)
                    .map_err(|e| DistError::Io(format!("chunk {}: {e}", chunk.path.display())))?;
                out.push((key.clone(), chunk.records as u64, bytes));
            }
        }
    }
    Ok(out)
}

/// Runs one distributed model-selection cycle over `workers` (host:port
/// addresses). `workdir` holds the coordinator-side feature store.
pub fn run_search(
    job: &DistJob,
    workers: &[String],
    workdir: &Path,
) -> Result<DistReport, DistError> {
    telemetry::init_from_env();
    eventlog::init_from_env();
    let mut config = job.config.clone();
    let dcfg = config.dist;
    let connect_timeout = Duration::from_millis(dcfg.connect_timeout_ms.max(1));
    let lease_timeout = Duration::from_millis(dcfg.lease_timeout_ms.max(1));
    let heartbeat = Duration::from_millis(dcfg.heartbeat_ms.max(1));

    // --- Worker admission: health-probe the roster. ---
    let mut alive: Vec<String> = Vec::new();
    for addr in workers {
        if healthz(addr, connect_timeout) {
            eventlog::info("dist.worker_join", &[("worker", eventlog::Value::Str(addr))]);
            alive.push(addr.clone());
        } else {
            eventlog::warn(
                "dist.worker_unreachable",
                &[("worker", eventlog::Value::Str(addr))],
            );
        }
    }
    if alive.is_empty() {
        return Err(DistError::NoWorkers(format!("none of {} workers answered", workers.len())));
    }
    telemetry::DIST_WORKERS_ALIVE.set(alive.len() as i64);

    // --- Network micro-probe: extend the I/O calibration with a measured
    // bytes-over-wire term. Telemetry always reports the measurement; the
    // planner only consumes it when `dist.calibrate_net` is set, because a
    // changed planner constant can change `V` — and the default contract is
    // bit-identity with a single box planning from the same config. ---
    let net_bps = probe_net(
        &alive.iter().map(String::as_str).collect::<Vec<_>>(),
        dcfg.net_probe_bytes as usize,
        connect_timeout.max(Duration::from_secs(5)),
    );
    if net_bps > 0.0 {
        telemetry::CALIBRATED_NET_BPS.set(net_bps as i64);
        eventlog::info(
            "dist.net_probe",
            &[
                ("bytes", eventlog::Value::U64(dcfg.net_probe_bytes as u64)),
                ("bytes_per_sec", eventlog::Value::F64(net_bps)),
                ("workers", eventlog::Value::U64(alive.len() as u64)),
            ],
        );
        if dcfg.calibrate_net {
            config.planner.net_bytes_per_sec = net_bps;
        }
    }

    // --- Deterministic planning, identical to the single-box session. ---
    if let Some(kind) = nautilus_tensor::ops::gemm::KernelKind::parse(&config.gemm_kernel) {
        nautilus_tensor::ops::gemm::set_kernel_preference(kind);
    }
    if config.threads > 0 {
        let _ = nautilus_util::pool::request_threads(config.threads);
    }
    let multi = MultiModelGraph::build(&job.candidates);
    // Mirror the session's exponential backoff of `r` (§4.2.3): when the
    // snapshot outgrows the configured maximum, the single-box `fit`
    // re-plans with a doubled `r` — the coordinator must plan with the
    // same effective value or `V` (and the plans) could differ.
    let mut max_records = config.max_records;
    let snapshot = job.train.len() + job.valid.len();
    if snapshot > max_records && job.strategy.runs_optimizer() {
        while snapshot > max_records {
            max_records *= 2;
        }
    }
    let (v, _milp) =
        ModelSelection::choose_v(&multi, &job.candidates, &config, job.strategy, max_records);
    let units = ModelSelection::build_units(&multi, &job.candidates, &config, job.strategy, &v)?;

    // --- Local feature materialization (the coordinator owns the store;
    // workers get the chunks shipped per shard). ---
    std::fs::create_dir_all(workdir).map_err(|e| DistError::Io(format!("workdir: {e}")))?;
    let io = SharedIoStats::new();
    let mut store = TensorStore::open(workdir.join("features"), io.clone())?;
    store.set_page_cache_bytes(config.hardware.page_cache_bytes);
    store.set_io_policy(IoPolicy {
        prefetch: config.io.prefetch,
        io_threads: config.io.io_threads,
        write_behind: config.io.write_behind,
        read_delay_ms: config.io.read_delay_ms,
    });
    let enforced_budget =
        if job.strategy == Strategy::MatAll { u64::MAX } else { config.disk_budget_bytes };
    let mut materializer = Materializer::new(store, enforced_budget);
    let mut backend = Backend::new(BackendKind::Real, config.hardware, io);
    let _ = materializer.install_v(&multi, &job.candidates, v.clone(), &mut backend)?;
    materializer.materialize_batch(&multi, "train", Some(&job.train), job.train.len(), &mut backend)?;
    materializer.materialize_batch(&multi, "valid", Some(&job.valid), job.valid.len(), &mut backend)?;
    materializer.store.flush_writes()?;

    // --- Shard payloads: shared blocks once, per-unit feature manifests. ---
    let graph_blocks: Vec<Vec<u8>> =
        job.candidates.iter().map(|c| checkpoint::save_to_bytes(&c.graph)).collect();
    let data_block = proto::encode_data_block(&job.train, &job.valid);
    let mut payloads: Vec<Arc<Vec<u8>>> = Vec::with_capacity(units.len());
    for (ui, (_, plan)) in units.iter().enumerate() {
        let features = unit_features(&materializer.store, plan)?;
        payloads.push(Arc::new(proto::encode_train_request(
            job.strategy,
            ui,
            max_records,
            &v,
            &config,
            &job.candidates,
            &data_block,
            &graph_blocks,
            &features,
        )));
    }

    // --- Lease-based dispatch across the worker pool. ---
    let t_train = Instant::now();
    let sched = Arc::new(Sched {
        workers: alive
            .iter()
            .map(|addr| WorkerSlot {
                addr: addr.clone(),
                alive: AtomicBool::new(true),
                busy: AtomicBool::new(false),
            })
            .collect(),
        queue: Mutex::new(
            (0..units.len()).map(|ui| (ui, 0u32, Instant::now())).collect(),
        ),
        retries: AtomicU64::new(0),
        lease_timeouts: AtomicU64::new(0),
        inflight: AtomicU64::new(0),
    });

    let (tx, rx) = mpsc::channel::<Outcome>();

    let mut handles = Vec::new();
    for wi in 0..sched.workers.len() {
        let sched = Arc::clone(&sched);
        let payloads = payloads.clone();
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            dispatch_loop(wi, &sched, &payloads, &tx, dcfg, lease_timeout, connect_timeout);
        }));
    }
    drop(tx);

    // --- Collect; heartbeat idle workers between arrivals. ---
    let mut done: BTreeMap<usize, (proto::TrainResponse, ShardStat)> = BTreeMap::new();
    let mut failure: Option<DistError> = None;
    while done.len() < units.len() {
        match rx.recv_timeout(heartbeat) {
            Ok(Outcome::Done { unit, resp, stat }) => {
                telemetry::DIST_SHARDS_DONE.add(1);
                done.insert(unit, (resp, stat));
            }
            Ok(Outcome::Failed { unit, attempts, last }) => {
                failure = Some(if sched.alive_count() == 0 {
                    DistError::NoWorkers(last)
                } else {
                    DistError::ShardFailed { unit, attempts, last }
                });
                break;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Heartbeat: silent deaths between dispatches get noticed
                // here rather than on the next (possibly huge) ship.
                for (wi, w) in sched.workers.iter().enumerate() {
                    if w.alive.load(Ordering::SeqCst)
                        && !w.busy.load(Ordering::SeqCst)
                        && !healthz(&w.addr, connect_timeout)
                    {
                        sched.mark_dead(wi);
                    }
                }
                if sched.alive_count() == 0 {
                    failure = Some(DistError::NoWorkers("all workers died".into()));
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                if done.len() < units.len() && failure.is_none() {
                    failure = Some(DistError::NoWorkers("dispatchers exited early".into()));
                }
                break;
            }
        }
    }
    // Wind down: capture the surviving pool, then retire every dispatcher.
    let workers_alive = sched.alive_count();
    sched.queue.lock().unwrap().clear();
    for w in &sched.workers {
        w.alive.store(false, Ordering::SeqCst);
    }
    while let Ok(Outcome::Done { unit, resp, stat }) = rx.try_recv() {
        telemetry::DIST_SHARDS_DONE.add(1);
        done.insert(unit, (resp, stat));
    }
    for h in handles {
        let _ = h.join();
    }
    telemetry::DIST_SHARDS_INFLIGHT.set(0);
    if let Some(e) = failure {
        if done.len() < units.len() {
            return Err(e);
        }
    }

    // --- Deterministic fold, in unit order (same discipline as `fit`). ---
    let _sp_fold = telemetry::span("dist", "dist.fold");
    let mut accuracies: Vec<(String, Option<f32>)> = Vec::new();
    let mut best: Option<(usize, String, f32)> = None;
    let mut best_unit = 0usize;
    let mut shard_stats = Vec::with_capacity(units.len());
    for ui in 0..units.len() {
        let (resp, stat) = done
            .get(&ui)
            .ok_or_else(|| DistError::Io(format!("shard {ui} missing from fold")))?;
        backend.absorb_compute(resp.busy_secs, resp.flops);
        for r in &resp.members {
            if let Some(acc) = r.accuracy {
                if best.as_ref().is_none_or(|(_, _, b)| acc > *b) {
                    best = Some((r.candidate, r.name.clone(), acc));
                    best_unit = ui;
                }
            }
            accuracies.push((r.name.clone(), r.accuracy));
        }
        shard_stats.push(stat.clone());
    }
    let best_trained = match &best {
        Some((ci, _, _)) => done[&best_unit].0.trained.as_ref().map(|trained| {
            let (_, plan) = &units[best_unit];
            session::export_candidate(&multi, &job.candidates, plan, trained, *ci)
        }),
        None => None,
    };

    Ok(DistReport {
        accuracies,
        best: best.as_ref().map(|(_, n, a)| (n.clone(), *a)),
        best_candidate: best.as_ref().map(|(ci, _, _)| *ci),
        best_trained,
        units: units.len(),
        retries: sched.retries.load(Ordering::SeqCst),
        lease_timeouts: sched.lease_timeouts.load(Ordering::SeqCst),
        workers_alive,
        shard_stats,
        net_bytes_per_sec: net_bps,
        train_secs: t_train.elapsed().as_secs_f64(),
        busy_secs: backend.busy_secs(),
        total_flops: backend.total_flops(),
    })
}

/// A dispatch thread's verdict on one shard.
enum Outcome {
    /// The shard completed; `resp` is the decoded worker reply.
    Done { unit: usize, resp: proto::TrainResponse, stat: ShardStat },
    /// The shard ran out of retries (or workers).
    Failed { unit: usize, attempts: u32, last: String },
}

/// One worker's dispatch loop: pull ready shards, ship with the lease
/// timeout, classify failures (expiry vs. fast error), requeue with capped
/// exponential backoff, and retire the worker when it stops answering
/// health probes. Exits when its worker dies or the queue stays empty.
fn dispatch_loop(
    wi: usize,
    sched: &Sched,
    payloads: &[Arc<Vec<u8>>],
    tx: &mpsc::Sender<Outcome>,
    dcfg: nautilus_core::config::DistConfig,
    lease_timeout: Duration,
    connect_timeout: Duration,
) {
    let me = &sched.workers[wi];
    // One persistent connection per worker for the whole search; the read
    // timeout on it is the lease.
    let mut client = http::Client::new(&me.addr, lease_timeout);
    loop {
        if !me.alive.load(Ordering::SeqCst) {
            return;
        }
        // Pop the first *ready* shard; respect backoff deadlines. An empty
        // queue is NOT an exit condition — a shard in flight on another
        // worker may fail and requeue, so idle threads stay available
        // until the main loop retires them (`alive = false`).
        let job = {
            let mut q = sched.queue.lock().unwrap();
            let now = Instant::now();
            q.iter().position(|&(_, _, nb)| nb <= now).and_then(|i| q.remove(i))
        };
        let Some((unit, attempts, _)) = job else {
            std::thread::sleep(Duration::from_millis(dcfg.heartbeat_ms.max(1).min(50)));
            continue;
        };

        me.busy.store(true, Ordering::SeqCst);
        telemetry::DIST_SHARDS_INFLIGHT
            .set(sched.inflight.fetch_add(1, Ordering::SeqCst) as i64 + 1);
        let payload = &payloads[unit];
        let t0 = Instant::now();
        let result = {
            let _sp = telemetry::span("dist", "dist.ship");
            client.request("POST", "/work/train", Some(payload))
        };
        telemetry::DIST_SHARDS_INFLIGHT
            .set(sched.inflight.fetch_sub(1, Ordering::SeqCst) as i64 - 1);
        me.busy.store(false, Ordering::SeqCst);

        let err = match result {
            Ok((200, body)) => match proto::decode_train_response(&body) {
                Ok(resp) => {
                    let stat = ShardStat {
                        unit_index: unit,
                        worker: me.addr.clone(),
                        attempts: attempts + 1,
                        bytes_shipped: payload.len() as u64,
                        secs: t0.elapsed().as_secs_f64(),
                    };
                    let _ = tx.send(Outcome::Done { unit, resp, stat });
                    continue;
                }
                Err(e) => format!("worker {}: {e}", me.addr),
            },
            Ok((status, body)) => format!(
                "worker {}: status {status}: {}",
                me.addr,
                String::from_utf8_lossy(&body[..body.len().min(200)])
            ),
            Err(e) => {
                let timed_out = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                if timed_out {
                    sched.lease_timeouts.fetch_add(1, Ordering::SeqCst);
                    telemetry::DIST_LEASE_TIMEOUTS.add(1);
                    eventlog::warn(
                        "dist.lease_timeout",
                        &[
                            ("worker", eventlog::Value::Str(&me.addr)),
                            ("unit", eventlog::Value::U64(unit as u64)),
                        ],
                    );
                }
                format!("worker {}: {e}", me.addr)
            }
        };

        // The lease is broken. Re-probe the worker: a dead worker leaves
        // the pool and its shard is reassigned to the survivors.
        if !healthz(&me.addr, connect_timeout) {
            sched.mark_dead(wi);
        }
        let attempts = attempts + 1;
        if attempts > dcfg.max_shard_retries {
            let _ = tx.send(Outcome::Failed { unit, attempts, last: err });
            continue;
        }
        sched.retries.fetch_add(1, Ordering::SeqCst);
        telemetry::DIST_RETRIES.add(1);
        let backoff_ms = dcfg
            .retry_backoff_ms
            .saturating_mul(1u64 << (attempts - 1).min(16))
            .min(dcfg.retry_backoff_cap_ms);
        eventlog::warn(
            "dist.lease_reassign",
            &[
                ("unit", eventlog::Value::U64(unit as u64)),
                ("attempts", eventlog::Value::U64(attempts as u64)),
                ("backoff_ms", eventlog::Value::U64(backoff_ms)),
                ("error", eventlog::Value::Str(&err)),
            ],
        );
        sched
            .queue
            .lock()
            .unwrap()
            .push_back((unit, attempts, Instant::now() + Duration::from_millis(backoff_ms)));
        if sched.alive_count() == 0 {
            let _ = tx.send(Outcome::Failed { unit, attempts, last: err });
            return;
        }
    }
}
