//! The remote worker: a small HTTP server that trains shipped units.
//!
//! Routes:
//!
//! - `GET /healthz` — liveness + wire version (also the heartbeat target).
//! - `GET /work/status` — idle/training state and shard counters.
//! - `POST /work/probe` — echoes the body; the coordinator times a
//!   round-trip of `dist.net_probe_bytes` to measure (and report)
//!   loopback/NIC bandwidth.
//! - `POST /work/train` — a framed [`crate::proto`] train request; the
//!   worker rejects an empty candidate list or a `V` outside the
//!   materializable nodes with `422`, rebuilds the deterministic unit list
//!   from the shipped `(candidates, config, strategy, V)`, replays the
//!   feature chunks into a fresh local store (preserving the coordinator's
//!   chunk boundaries) beside the shipped snapshot and the unit's start
//!   checkpoint, trains the requested unit, and answers with framed
//!   metrics + the trained plan graph.
//!
//! The worker is stateless across requests: every shard gets a fresh
//! `TensorStore` under `workdir/shard-<seq>`, so retried or reassigned
//! leases cannot observe a half-written store from a previous attempt.

use crate::proto;
use nautilus_core::backend::{Backend, BackendKind};
use nautilus_core::multimodel::MultiModelGraph;
use nautilus_core::session::{open_feature_store, ModelSelection};
use nautilus_core::trainer::{snapshot_items, start_checkpoint, CycleDataView};
use nautilus_dnn::checkpoint;
use nautilus_store::{Object, SharedIoStats};
use nautilus_util::http::{serve, Limits, Request, Response, ServerHandle};
use nautilus_util::json::Json;
use nautilus_util::{eventlog, telemetry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Worker server options.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Scratch directory for per-shard feature stores.
    pub workdir: PathBuf,
    /// Accept threads (each serves one connection at a time).
    pub threads: usize,
    /// Maximum accepted request body (train requests carry datasets).
    pub max_body_bytes: usize,
    /// Per-connection read timeout.
    pub read_timeout_ms: u64,
    /// Fault injection for recovery tests: once this many trains have
    /// completed, the *next* train request kills the process (exit 3)
    /// after reading the request and before replying — the worst case for
    /// the coordinator's lease logic.
    pub crash_after_trains: Option<u64>,
}

impl Default for WorkerOptions {
    fn default() -> Self {
        WorkerOptions {
            addr: "127.0.0.1:0".into(),
            workdir: std::env::temp_dir().join("nautilus-dist-worker"),
            threads: 2,
            max_body_bytes: 256 << 20,
            read_timeout_ms: 60_000,
            crash_after_trains: None,
        }
    }
}

struct WorkerState {
    workdir: PathBuf,
    trains_done: AtomicU64,
    trains_failed: AtomicU64,
    shard_seq: AtomicU64,
    busy: AtomicBool,
    crash_after_trains: Option<u64>,
}

/// Starts the worker server; returns once the listener is bound.
pub fn run_worker(opts: WorkerOptions) -> std::io::Result<ServerHandle> {
    telemetry::init_from_env();
    eventlog::init_from_env();
    std::fs::create_dir_all(&opts.workdir)?;
    let listener = std::net::TcpListener::bind(&opts.addr)?;
    let state = Arc::new(WorkerState {
        workdir: opts.workdir.clone(),
        trains_done: AtomicU64::new(0),
        trains_failed: AtomicU64::new(0),
        shard_seq: AtomicU64::new(0),
        busy: AtomicBool::new(false),
        crash_after_trains: opts.crash_after_trains,
    });
    let limits = Limits { max_head_bytes: 16 * 1024, max_body_bytes: opts.max_body_bytes };
    let read_timeout = Duration::from_millis(opts.read_timeout_ms.max(1));
    serve(
        listener,
        limits,
        read_timeout,
        opts.threads,
        Arc::new(move |req: &Request| route(req, &state)),
    )
}

fn route(req: &Request, state: &WorkerState) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Response::json(
            200,
            &Json::obj([
                ("ok", Json::Bool(true)),
                ("wire_version", Json::Num(proto::WIRE_VERSION as f64)),
            ]),
        ),
        ("GET", "/work/status") => {
            let busy = state.busy.load(Ordering::SeqCst);
            Response::json(
                200,
                &Json::obj([
                    ("state", Json::Str(if busy { "training" } else { "idle" }.into())),
                    (
                        "shards_done",
                        Json::Num(state.trains_done.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "shards_failed",
                        Json::Num(state.trains_failed.load(Ordering::SeqCst) as f64),
                    ),
                ]),
            )
        }
        ("POST", "/work/probe") => {
            Response::text(200, "application/octet-stream", req.body.clone())
        }
        ("POST", "/work/train") => handle_train(req, state),
        ("GET" | "POST", _) => Response::error(404, "unknown route"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// Resets the busy flag even when training panics or errors out.
struct BusyGuard<'a>(&'a AtomicBool);

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::SeqCst);
    }
}

fn handle_train(req: &Request, state: &WorkerState) -> Response {
    // Fault injection: die mid-lease, after the coordinator has committed
    // the shard to us but before any reply — its retry path must reassign.
    if let Some(n) = state.crash_after_trains {
        if state.trains_done.load(Ordering::SeqCst) >= n {
            eventlog::warn("dist.worker_crash_injected", &[("after_trains", eventlog::Value::U64(n))]);
            std::process::exit(3);
        }
    }
    state.busy.store(true, Ordering::SeqCst);
    let _guard = BusyGuard(&state.busy);
    let seq = state.shard_seq.fetch_add(1, Ordering::SeqCst);
    match train_shard(req, state, seq) {
        Ok(body) => Response::text(200, "application/octet-stream", body),
        Err(e) => {
            state.trains_failed.fetch_add(1, Ordering::SeqCst);
            eventlog::warn("dist.worker_train_error", &[("error", eventlog::Value::Str(&e.1))]);
            Response::error(e.0, &e.1)
        }
    }
}

fn train_shard(
    req: &Request,
    state: &WorkerState,
    seq: u64,
) -> Result<Vec<u8>, (u16, String)> {
    let _sp = telemetry::span("dist", "dist.train");
    let spec = proto::decode_train_request(&req.body)
        .map_err(|e| (400u16, format!("decode: {e}")))?;
    // Fail closed on shipped inputs the plan rebuild would index blindly.
    if spec.candidates.is_empty() {
        return Err((422, "empty candidate list".into()));
    }
    let multi = MultiModelGraph::build(&spec.candidates);
    let materializable = multi.mat_candidates();
    if let Some(m) = spec.v.iter().find(|m| !materializable.contains(m)) {
        return Err((422, format!("V index {} is not a materializable node", m.index())));
    }

    // Bit-identity prerequisites: the same process and store settings as
    // the coordinator's session. A fresh per-shard store; replaying chunks
    // in manifest order reproduces the coordinator's chunk boundaries (and
    // thus the same reads in the same order).
    let io = SharedIoStats::new();
    let dir = state.workdir.join(format!("shard-{seq}"));
    let mut store = open_feature_store(&spec.config, dir, io.clone())
        .map_err(|e| (500u16, format!("store: {e}")))?;

    // Rebuild the deterministic unit list from the shipped inputs; the
    // resulting plan graphs are byte-identical to the coordinator's.
    let units =
        ModelSelection::build_units(&multi, &spec.candidates, &spec.config, spec.strategy, &spec.v)
            .map_err(|e| (422u16, format!("build_units: {e}")))?;
    let Some((unit, plan)) = units.get(spec.unit_index) else {
        return Err((
            422,
            format!("unit index {} out of range ({} units)", spec.unit_index, units.len()),
        ));
    };
    // Everything the unit reads: the features, the snapshot, and its start
    // checkpoint, rebuilt from the shipped candidates.
    let (key, original) = start_checkpoint(spec.strategy, spec.unit_index, unit);
    let start_graph = original.map_or(&plan.graph, |c| &spec.candidates[c].graph);
    let start = checkpoint::save_to_bytes(start_graph);
    let stored = store
        .append_many(&spec.features)
        .and_then(|_| store.append_many(&snapshot_items(&spec.train, &spec.valid)))
        .and_then(|_| store.put_objects(vec![(key, Object::Bytes(start))]));
    stored.map_err(|e| (500u16, format!("store: {e}")))?;

    let mut backend = Backend::new(BackendKind::Real, spec.config.hardware, io);
    let data = CycleDataView { n_train: spec.train.len(), n_valid: spec.valid.len() };
    let (results, trained) = nautilus_core::trainer::train_unit(
        &multi,
        plan,
        unit,
        spec.unit_index,
        &spec.candidates,
        &data,
        &store,
        &mut backend,
        spec.strategy,
        spec.config.shuffle_each_epoch,
    )
    .map_err(|e| (500u16, format!("train: {e}")))?;

    state.trains_done.fetch_add(1, Ordering::SeqCst);
    eventlog::info(
        "dist.shard_trained",
        &[
            ("unit", eventlog::Value::U64(spec.unit_index as u64)),
            ("members", eventlog::Value::U64(results.len() as u64)),
        ],
    );
    Ok(proto::encode_train_response(
        spec.unit_index,
        backend.busy_secs(),
        backend.total_flops(),
        &results,
        trained.as_ref(),
    ))
}
