//! [`RemoteUnits`]: the session's [`UnitExecutor`] that trains units on
//! remote workers under leases.
//!
//! Scheduling model: every training unit is one *shard*, and every shard
//! dispatch is a *lease* whose duration is the HTTP read timeout
//! (`dist.lease_timeout_ms`). A failed or expired lease — or a reply for
//! another unit or member list — requeues the shard with capped
//! exponential backoff; the failing worker is re-probed and, if dead,
//! leaves the pool (its in-flight shard is reassigned to whoever is left).
//! A shard that exhausts `dist.max_shard_retries` fails the cycle; losing
//! every worker fails it immediately.
//!
//! Shards may complete in any order on any worker; outcomes are returned
//! in unit order, each worker backend's `(busy_secs, flops)` absorbed, and
//! `ModelSelection::fit` folds them exactly as it folds local units.

use crate::coordinator::{DistError, ShardStat};
use crate::proto;
use nautilus_core::backend::Backend;
use nautilus_core::config::DistConfig;
use nautilus_core::plan::ExecutablePlan;
use nautilus_core::session::{CycleWork, SessionError, UnitExecutor, UnitOutcome};
use nautilus_data::Dataset;
use nautilus_dnn::checkpoint;
use nautilus_store::TensorStore;
use nautilus_util::http;
use nautilus_util::{eventlog, telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Lease accounting of the most recent completed cycle, shared with
/// whoever reports on the search (see [`RemoteUnits::ledger`]).
#[derive(Debug, Default)]
pub struct LeaseLedger {
    /// Dispatch retries across all shards.
    pub retries: u64,
    /// Leases that expired (read timeout) rather than erroring fast.
    pub lease_timeouts: u64,
    /// Workers still alive at the end.
    pub workers_alive: usize,
    /// Per-shard accounting, in unit order.
    pub shard_stats: Vec<ShardStat>,
    /// Median measured coordinator→worker bandwidth at connect (bytes/sec;
    /// 0 when no probe answered).
    pub net_bytes_per_sec: f64,
}

/// Trains a session's units on remote workers (see the module docs).
pub struct RemoteUnits {
    workers: Vec<String>,
    dcfg: DistConfig,
    ledger: Arc<Mutex<LeaseLedger>>,
}

/// One worker's slot in the pool.
struct WorkerSlot {
    addr: String,
    alive: AtomicBool,
    busy: AtomicBool,
}

/// One unit's wire payload and the member list its reply must echo.
struct Shard {
    payload: Vec<u8>,
    members: Vec<usize>,
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
fn probe_net(workers: &[String], probe_bytes: usize, timeout: Duration) -> f64 {
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
/// order, as `(store key, records, encoded bytes)` manifest entries, read
/// through the store's ledger.
fn unit_features(
    store: &TensorStore,
    plan: &ExecutablePlan,
) -> Result<Vec<(String, u64, Vec<u8>)>, DistError> {
    let mut out = Vec::new();
    for base in plan.materialized_keys() {
        for split in ["train", "valid"] {
            let key = format!("{base}:{split}");
            let chunks = store
                .read_encoded(&key)
                .map_err(|e| DistError::Io(format!("features {key}: {e}")))?;
            for (records, bytes) in chunks {
                out.push((key.clone(), records as u64, bytes));
            }
        }
    }
    Ok(out)
}

impl RemoteUnits {
    /// Admits the `workers` (host:port) that answer a health probe and
    /// measures the network to them with an echo micro-probe.
    pub fn connect(workers: &[String], dcfg: DistConfig) -> Result<RemoteUnits, DistError> {
        let connect_timeout = Duration::from_millis(dcfg.connect_timeout_ms.max(1));
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
            return Err(DistError::NoWorkers(format!(
                "none of {} workers answered",
                workers.len()
            )));
        }
        telemetry::DIST_WORKERS_ALIVE.set(alive.len() as i64);

        // Reported only: the planner never sees it, so the plan stays the
        // single box's.
        let net_bps = probe_net(
            &alive,
            dcfg.net_probe_bytes as usize,
            connect_timeout.max(Duration::from_secs(5)),
        );
        if net_bps > 0.0 {
            telemetry::CALIBRATED_NET_BPS.set(net_bps as i64);
            eventlog::info(
                "dist.net_probe",
                &[
                    ("bytes", eventlog::Value::U64(dcfg.net_probe_bytes)),
                    ("bytes_per_sec", eventlog::Value::F64(net_bps)),
                    ("workers", eventlog::Value::U64(alive.len() as u64)),
                ],
            );
        }
        let ledger = LeaseLedger { net_bytes_per_sec: net_bps, ..LeaseLedger::default() };
        Ok(RemoteUnits { workers: alive, dcfg, ledger: Arc::new(Mutex::new(ledger)) })
    }

    /// A handle on the lease accounting, readable after the executor has
    /// been handed to a session.
    pub fn ledger(&self) -> Arc<Mutex<LeaseLedger>> {
        Arc::clone(&self.ledger)
    }
}

impl UnitExecutor for RemoteUnits {
    /// Leases every unit of `work` to the worker pool and returns the
    /// outcomes in unit order; a [`DistError`] comes back boxed in
    /// `SessionError::Executor`.
    fn train_units(
        &mut self,
        work: &CycleWork<'_>,
        backend: &mut Backend,
    ) -> Result<Vec<UnitOutcome>, SessionError> {
        // The snapshot ships with every shard, read from the store (a
        // simulated session's modeled snapshot fails closed here).
        let split = |s: &str| -> Result<Dataset, SessionError> {
            let (inputs, _) = work.store.read_all(&format!("raw:{s}"))?;
            let (labels, _) = work.store.read_all(&format!("labels:{s}"))?;
            Dataset::new(inputs, labels).map_err(|e| SessionError::Invalid(format!("{s}: {e}")))
        };
        let (train, valid) = (split("train")?, split("valid")?);
        let fail = |e: DistError| SessionError::Executor(Box::new(e));
        let dcfg = self.dcfg;
        let connect_timeout = Duration::from_millis(dcfg.connect_timeout_ms.max(1));
        let lease_timeout = Duration::from_millis(dcfg.lease_timeout_ms.max(1));
        let heartbeat = Duration::from_millis(dcfg.heartbeat_ms.max(1));

        // Shard payloads: shared blocks once, per-unit feature manifests.
        let graph_blocks: Vec<Vec<u8>> =
            work.candidates.iter().map(|c| checkpoint::save_to_bytes(&c.graph)).collect();
        let data_block = proto::encode_data_block(&train, &valid);
        let shards = work
            .units
            .iter()
            .enumerate()
            .map(|(ui, (unit, plan))| {
                let payload = proto::encode_train_request(
                    work.strategy,
                    ui,
                    work.v,
                    work.config,
                    work.candidates,
                    &data_block,
                    &graph_blocks,
                    &unit_features(work.store, plan)?,
                );
                Ok(Shard { payload, members: unit.members.clone() })
            })
            .collect::<Result<Vec<_>, DistError>>()
            .map_err(fail)?;
        let shards = Arc::new(shards);
        let n = shards.len();

        let sched = Arc::new(Sched {
            workers: self
                .workers
                .iter()
                .map(|addr| WorkerSlot {
                    addr: addr.clone(),
                    alive: AtomicBool::new(true),
                    busy: AtomicBool::new(false),
                })
                .collect(),
            queue: Mutex::new((0..n).map(|ui| (ui, 0u32, Instant::now())).collect()),
            retries: AtomicU64::new(0),
            lease_timeouts: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        });

        let (tx, rx) = mpsc::channel::<Outcome>();
        let mut handles = Vec::new();
        for wi in 0..sched.workers.len() {
            let sched = Arc::clone(&sched);
            let shards = Arc::clone(&shards);
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                dispatch_loop(wi, &sched, &shards, &tx, dcfg, lease_timeout, connect_timeout);
            }));
        }
        drop(tx);

        // Collect; heartbeat idle workers between arrivals.
        let mut done: BTreeMap<usize, (proto::TrainResponse, ShardStat)> = BTreeMap::new();
        let mut failure: Option<DistError> = None;
        while done.len() < n {
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
                    // Heartbeat: silent deaths between dispatches get
                    // noticed here rather than on the next (possibly huge)
                    // ship.
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
                    failure = Some(DistError::NoWorkers("dispatchers exited early".into()));
                    break;
                }
            }
        }
        // Wind down: capture the surviving pool, then retire every
        // dispatcher.
        let workers_alive = sched.alive_count();
        sched.queue.lock().expect("lease queue lock poisoned").clear();
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
            if done.len() < n {
                return Err(fail(e));
            }
        }

        // Every shard is in: hand back the outcomes in unit order.
        let mut ledger = self.ledger.lock().expect("lease ledger lock poisoned");
        ledger.retries = sched.retries.load(Ordering::SeqCst);
        ledger.lease_timeouts = sched.lease_timeouts.load(Ordering::SeqCst);
        ledger.workers_alive = workers_alive;
        ledger.shard_stats.clear();
        let mut outcomes = Vec::with_capacity(n);
        for (resp, stat) in done.into_values() {
            backend.absorb_compute(resp.busy_secs, resp.flops);
            outcomes.push((resp.members, resp.trained));
            ledger.shard_stats.push(stat);
        }
        Ok(outcomes)
    }
}

/// A dispatch thread's verdict on one shard.
enum Outcome {
    /// The shard completed; `resp` is the decoded worker reply.
    Done { unit: usize, resp: proto::TrainResponse, stat: ShardStat },
    /// The shard ran out of retries (or workers).
    Failed { unit: usize, attempts: u32, last: String },
}

/// One worker's dispatch loop: pull ready shards, ship with the lease
/// timeout, classify failures (expiry vs. fast error vs. a reply for
/// another unit), requeue with capped exponential backoff, and retire the
/// worker when it stops answering health probes. Exits when its worker
/// dies or the main loop retires it.
fn dispatch_loop(
    wi: usize,
    sched: &Sched,
    shards: &[Shard],
    tx: &mpsc::Sender<Outcome>,
    dcfg: DistConfig,
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
            let mut q = sched.queue.lock().expect("lease queue lock poisoned");
            let now = Instant::now();
            q.iter().position(|&(_, _, nb)| nb <= now).and_then(|i| q.remove(i))
        };
        let Some((unit, attempts, _)) = job else {
            std::thread::sleep(Duration::from_millis(dcfg.heartbeat_ms.clamp(1, 50)));
            continue;
        };

        me.busy.store(true, Ordering::SeqCst);
        telemetry::DIST_SHARDS_INFLIGHT
            .set(sched.inflight.fetch_add(1, Ordering::SeqCst) as i64 + 1);
        let shard = &shards[unit];
        let t0 = Instant::now();
        let result = {
            let _sp = telemetry::span("dist", "dist.ship");
            client.request("POST", "/work/train", Some(&shard.payload))
        };
        telemetry::DIST_SHARDS_INFLIGHT
            .set(sched.inflight.fetch_sub(1, Ordering::SeqCst) as i64 - 1);
        me.busy.store(false, Ordering::SeqCst);

        let err = match result {
            Ok((200, body)) => match proto::decode_train_response(&body) {
                // Fail closed: only a reply for the leased unit and its
                // exact member list is folded.
                Ok(resp)
                    if resp.unit_index == unit
                        && resp.members.iter().map(|m| m.candidate).eq(shard.members.clone()) =>
                {
                    let stat = ShardStat {
                        unit_index: unit,
                        worker: me.addr.clone(),
                        attempts: attempts + 1,
                        bytes_shipped: shard.payload.len() as u64,
                        secs: t0.elapsed().as_secs_f64(),
                    };
                    let _ = tx.send(Outcome::Done { unit, resp, stat });
                    continue;
                }
                Ok(resp) => format!(
                    "worker {}: reply for unit {} does not match leased unit {unit}",
                    me.addr, resp.unit_index
                ),
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
            .expect("lease queue lock poisoned")
            .push_back((unit, attempts, Instant::now() + Duration::from_millis(backoff_ms)));
        if sched.alive_count() == 0 {
            let _ = tx.send(Outcome::Failed { unit, attempts, last: err });
            return;
        }
    }
}
