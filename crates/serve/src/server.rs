//! The serving front-end: accept loop, bounded connection queue, handler
//! threads, request routing, load shedding, and graceful drain.
//!
//! Threading model (all `std`):
//!
//! * one **accept thread** owns the `TcpListener`. Accepted connections
//!   go into the bounded queue of the shared connection plane
//!   ([`http::Connections`]); when the queue is full the accept thread
//!   itself answers `503` + `Retry-After` and closes (load shedding costs
//!   one small write, never a handler slot);
//! * `handler_threads` **handler threads** pop connections and run the
//!   plane's per-connection loop: requests are answered one after another
//!   on the same socket until the client or an error ends it, and every
//!   request that started arriving gets a response. Idle persistent
//!   connections never hold a handler against a waiting one (the plane
//!   wakes the longest-parked);
//! * predictions flow through the shared [`MicroBatcher`], so concurrent
//!   requests fuse into batched forwards. A predict request announces
//!   itself to the batcher before its body is decoded, which is what lets
//!   the batcher dispatch at once when nobody else is on the way.
//!
//! Graceful drain ([`Server::shutdown`]): stop accepting, answer every
//! queued connection and request in flight, wake idle persistent
//! connections, flush the batcher, join all threads.

use crate::batcher::{MicroBatcher, PredictError};
use crate::registry::{ModelRegistry, RegistryError};
use nautilus_core::config::{ObservabilityConfig, ServingConfig};
use nautilus_util::http::{self, Connections, Limits, Request, Response};
use nautilus_util::json::Json;
use nautilus_util::{eventlog, telemetry};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Always-on serving statistics (plain atomics, independent of whether
/// the telemetry layer is enabled).
#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    requests: AtomicU64,
    predictions: AtomicU64,
    shed: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
    /// Successful predictions per tenant (reported under
    /// `/stats.tenants`; kept out of [`ServerStatsSnapshot`] so the
    /// snapshot stays `Copy`).
    per_tenant: Mutex<std::collections::BTreeMap<String, u64>>,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections a handler picked up (`requests / connections` is the
    /// reuse a persistent connection bought).
    pub connections: u64,
    /// Requests that reached a handler (all endpoints).
    pub requests: u64,
    /// Successful predictions.
    pub predictions: u64,
    /// Connections shed with `503` at the accept queue.
    pub shed: u64,
    /// Requests answered with a 4xx.
    pub client_errors: u64,
    /// Requests answered with a 5xx.
    pub server_errors: u64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            predictions: self.predictions.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            server_errors: self.server_errors.load(Ordering::Relaxed),
        }
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    batcher: MicroBatcher,
    limits: Limits,
    request_timeout: Duration,
    queue_limit: usize,
    conns: Connections,
    stop: AtomicBool,
    stats: ServerStats,
    obs: ObservabilityConfig,
    /// Set by the watchdog while any rolling-window SLO is breached;
    /// `/healthz` reports `degraded` (503) while it holds.
    degraded: AtomicBool,
    /// Human-readable descriptions of the currently breached SLOs
    /// (empty when healthy); written by the watchdog, read by `/healthz`.
    breaches: Mutex<Vec<String>>,
}

/// A running inference server bound to a loopback port.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    handler_threads: Vec<JoinHandle<()>>,
    watchdog_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:0` (or `127.0.0.1:port`) and starts the accept,
    /// handler, and batcher threads, with default observability (metric
    /// recording on, watchdog sampling, no SLOs enforced).
    pub fn start(
        registry: Arc<ModelRegistry>,
        cfg: &ServingConfig,
        port: u16,
    ) -> std::io::Result<Server> {
        Self::start_with(registry, cfg, &ObservabilityConfig::default(), port)
    }

    /// [`Server::start`] with an explicit observability plane: metric
    /// recording, event-log destination, and the health watchdog's tick,
    /// window, and SLO thresholds all come from `obs`.
    pub fn start_with(
        registry: Arc<ModelRegistry>,
        cfg: &ServingConfig,
        obs: &ObservabilityConfig,
        port: u16,
    ) -> std::io::Result<Server> {
        if obs.metrics {
            telemetry::enable_metrics();
        }
        let level = eventlog::Level::parse(&obs.log_level).unwrap_or(eventlog::Level::Info);
        match obs.log.as_deref() {
            Some("stderr") | Some("-") => eventlog::init_stderr(level),
            Some(path) => eventlog::init_file(std::path::Path::new(path), level)?,
            None => {
                eventlog::init_from_env();
            }
        }

        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            batcher: MicroBatcher::start(Arc::clone(&registry), cfg),
            registry,
            limits: Limits { max_head_bytes: 8 * 1024, max_body_bytes: cfg.max_body_bytes },
            request_timeout: Duration::from_millis(cfg.request_timeout_ms.max(1)),
            queue_limit: cfg.queue_limit.max(1),
            conns: Connections::new(cfg.queue_limit),
            stop: AtomicBool::new(false),
            stats: ServerStats::default(),
            obs: obs.clone(),
            degraded: AtomicBool::new(false),
            breaches: Mutex::new(Vec::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("nautilus-serve-accept".into())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        let handler_threads = (0..cfg.handler_threads.max(1))
            .map(|i| {
                let h_shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("nautilus-serve-h{i}"))
                    .spawn(move || handler_loop(&h_shared))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let watchdog_thread = if obs.watchdog_tick_ms > 0 {
            let w_shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("nautilus-serve-watchdog".into())
                    .spawn(move || watchdog_loop(&w_shared))?,
            )
        } else {
            None
        };

        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            handler_threads,
            watchdog_thread,
        })
    }

    /// The bound address (`127.0.0.1:port`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry this server serves from (publish here to hot-swap).
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// The micro-batcher predictions flow through ([`MicroBatcher::announce`]
    /// here holds its door, which is how tests stall the request path).
    pub fn batcher(&self) -> &MicroBatcher {
        &self.shared.batcher
    }

    /// Current counter values.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Graceful drain: stop accepting, answer everything already queued,
    /// flush the batcher, join every thread. Returns the final stats.
    pub fn shutdown(mut self) -> ServerStatsSnapshot {
        self.drain();
        self.shared.stats.snapshot()
    }

    fn drain(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept thread with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        // Handlers finish what is queued or in flight; idle persistent
        // connections are woken rather than waited out.
        self.shared.conns.drain();
        for h in self.handler_threads.drain(..) {
            let _ = h.join();
        }
        // The watchdog notices `stop` within one tick.
        if let Some(h) = self.watchdog_thread.take() {
            let _ = h.join();
        }
        // MicroBatcher::drop flushes pending predictions; nothing is
        // enqueued anymore because all handlers have exited.
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.handler_threads.is_empty() || self.accept_thread.is_some() {
            self.drain();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            // The wake-up connection (and any racer) is dropped after the
            // queue handoff stops; queued connections still get answered.
            break;
        }
        let Ok(stream) = conn else { continue };
        match shared.conns.offer(stream) {
            Ok(depth) => telemetry::SERVE_CONN_QUEUE_DEPTH.set(depth as i64),
            Err(stream) => shed(stream, shared),
        }
    }
}

/// Pushes `v` into a rolling window of at most `cap` samples.
fn push_window<T>(w: &mut VecDeque<T>, cap: usize, v: T) {
    if w.len() >= cap {
        w.pop_front();
    }
    w.push_back(v);
}

/// The health watchdog: every `watchdog_tick_ms` it samples the
/// connection and batcher queue depths (publishing them as gauges), the
/// shed counter, and the `serve.batch_us` histogram into rolling windows
/// of `watchdog_window` ticks, then evaluates the configured SLOs over
/// those windows. `/healthz` flips to `degraded` while any SLO is
/// breached; because the window is a rolling max/delta, health recovers
/// one clean window after the signal subsides.
fn watchdog_loop(shared: &Shared) {
    let obs = &shared.obs;
    let tick = Duration::from_millis(obs.watchdog_tick_ms.max(1));
    let window = obs.watchdog_window.max(1);
    let mut depths: VecDeque<usize> = VecDeque::with_capacity(window);
    let mut sheds: VecDeque<u64> = VecDeque::with_capacity(window + 1);
    let mut hists: VecDeque<[u64; telemetry::HIST_BUCKETS]> =
        VecDeque::with_capacity(window + 1);
    sheds.push_back(shared.stats.shed.load(Ordering::Relaxed));
    hists.push_back(telemetry::SERVE_BATCH_US.bucket_counts());
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(tick);

        let conn_depth = shared.conns.depth();
        let batch_depth = shared.batcher.queue_depth();
        if telemetry::metrics_enabled() {
            telemetry::SERVE_CONN_QUEUE_DEPTH.set(conn_depth as i64);
            telemetry::SERVE_BATCH_QUEUE_DEPTH.set(batch_depth as i64);
        }
        push_window(&mut depths, window, conn_depth + batch_depth);
        // Cumulative signals keep window+1 snapshots so back-front spans
        // exactly `window` ticks.
        push_window(&mut sheds, window + 1, shared.stats.shed.load(Ordering::Relaxed));
        push_window(&mut hists, window + 1, telemetry::SERVE_BATCH_US.bucket_counts());

        let mut breaches = Vec::new();
        if obs.slo_queue_depth > 0 {
            let worst = depths.iter().copied().max().unwrap_or(0);
            if worst > obs.slo_queue_depth {
                breaches
                    .push(format!("queue depth {worst} > slo {}", obs.slo_queue_depth));
            }
        }
        if obs.slo_shed_per_window > 0 && sheds.len() >= 2 {
            let shed = sheds.back().unwrap() - sheds.front().unwrap();
            if shed > obs.slo_shed_per_window {
                breaches.push(format!(
                    "shed {shed}/window > slo {}",
                    obs.slo_shed_per_window
                ));
            }
        }
        if obs.slo_batch_p99_us > 0 && hists.len() >= 2 {
            let newest = hists.back().unwrap();
            let oldest = hists.front().unwrap();
            let mut delta = [0u64; telemetry::HIST_BUCKETS];
            for (d, (n, o)) in delta.iter_mut().zip(newest.iter().zip(oldest.iter())) {
                *d = n.saturating_sub(*o);
            }
            let p99 = telemetry::Histogram::quantile_from_counts(
                &delta,
                telemetry::SERVE_BATCH_US.max(),
                0.99,
            );
            if p99 > obs.slo_batch_p99_us {
                breaches
                    .push(format!("batch p99 {p99}us > slo {}us", obs.slo_batch_p99_us));
            }
        }

        let was = shared.degraded.swap(!breaches.is_empty(), Ordering::Relaxed);
        if !breaches.is_empty() && !was {
            eventlog::warn(
                "serve.slo_breach",
                &[("detail", eventlog::Value::Str(&breaches.join("; ")))],
            );
        } else if breaches.is_empty() && was {
            eventlog::info("serve.slo_recover", &[]);
        }
        *shared.breaches.lock().expect("breach list") = breaches;
    }
}

/// Answers an over-capacity connection with `503` + `Retry-After` from the
/// accept thread (bounded work: one small write plus a bounded drain).
fn shed(stream: TcpStream, shared: &Shared) {
    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
    telemetry::SERVE_SHED.add(1);
    eventlog::warn(
        "serve.shed",
        &[("queue_limit", eventlog::Value::U64(shared.queue_limit as u64))],
    );
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let resp = Response::error(503, "server overloaded").with_header("Retry-After", "1");
    http::finish_connection(&stream, resp);
}

fn handler_loop(shared: &Shared) {
    while let Some(stream) = shared.conns.next() {
        shared.stats.connections.fetch_add(1, Ordering::Relaxed);
        telemetry::SERVE_CONNECTIONS.add(1);
        shared.conns.serve_connection(stream, &shared.limits, shared.request_timeout, shared);
    }
}

impl Shared {
    fn count_error(&self, resp: Response) -> Response {
        match resp.status {
            400..=499 => self.stats.client_errors.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.stats.server_errors.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        resp
    }
}

impl http::Handler for Shared {
    fn handle(&self, req: &Request) -> Response {
        self.count_error(route(req, self))
    }

    fn reject(&self, status: u16) -> Response {
        let why = if status == 408 { "request timed out" } else { "malformed request" };
        self.count_error(Response::error(status, why))
    }
}

/// The tenant a request addresses: the path suffix (`/predict/<id>`,
/// `/model/<id>`) wins, then the `X-Model-Id` header, then the
/// registry's default tenant.
fn tenant_of<'a>(req: &'a Request, prefix: &str, shared: &'a Shared) -> &'a str {
    if let Some(rest) = req.path.strip_prefix(prefix) {
        if let Some(id) = rest.strip_prefix('/') {
            if !id.is_empty() {
                return id;
            }
        }
    }
    match req.header("x-model-id") {
        Some(id) if !id.is_empty() => id,
        _ => shared.registry.default_id().as_str(),
    }
}

/// Bounded-cardinality endpoint label for the `serve.request_us` and
/// `serve.errors` metric families: known routes by name, anything else
/// `"other"` (raw paths must never become label values).
fn endpoint_of(req: &Request) -> &'static str {
    let p = req.path.as_str();
    if p == "/predict" || p.starts_with("/predict/") {
        "predict"
    } else if p == "/healthz" {
        "healthz"
    } else if p == "/stats" {
        "stats"
    } else if p == "/metrics" {
        "metrics"
    } else if p == "/models" {
        "models"
    } else if p == "/model" || p.starts_with("/model/") {
        "model"
    } else {
        "other"
    }
}

fn route(req: &Request, shared: &Shared) -> Response {
    let _sp = telemetry::span("serve", "serve.request");
    let t0 = Instant::now();
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    telemetry::SERVE_REQUESTS.add(1);
    let resp = match (req.method.as_str(), req.path.as_str()) {
        ("POST", p) if p == "/predict" || p.starts_with("/predict/") => {
            predict(req, tenant_of(req, "/predict", shared), shared)
        }
        ("GET", "/healthz") => health(shared),
        ("GET", "/metrics") => Response::text(
            200,
            "text/plain; version=0.0.4",
            telemetry::prometheus_text(),
        ),
        ("GET", "/stats") => stats(shared),
        ("GET", "/models") => {
            let rows = shared
                .registry
                .list()
                .into_iter()
                .map(|m| {
                    Json::obj([
                        ("id", Json::Str(m.id.as_str().into())),
                        ("version", Json::Int(m.version as i128)),
                        ("resident", Json::Bool(m.resident)),
                        ("delta_bytes", Json::Int(m.delta_bytes as i128)),
                    ])
                })
                .collect();
            Response::json(200, &Json::obj([("models", Json::Arr(rows))]))
        }
        ("GET", p) if p == "/model" || p.starts_with("/model/") => {
            model_meta(tenant_of(req, "/model", shared), shared)
        }
        ("POST" | "GET", _) => Response::error(404, "unknown endpoint"),
        _ => Response::error(405, "method not allowed"),
    };
    let us = t0.elapsed().as_micros() as u64;
    telemetry::SERVE_REQUEST_US.record(us);
    if telemetry::metrics_enabled() {
        let endpoint = endpoint_of(req);
        if endpoint == "predict" {
            let tenant = tenant_of(req, "/predict", shared);
            telemetry::histogram_with(
                "serve.request_us",
                &[("tenant", tenant), ("endpoint", endpoint)],
            )
            .record(us);
        } else {
            telemetry::histogram_with("serve.request_us", &[("endpoint", endpoint)])
                .record(us);
        }
        if resp.status >= 400 {
            let status = resp.status.to_string();
            telemetry::counter_with(
                "serve.errors",
                &[("endpoint", endpoint), ("status", &status)],
            )
            .add(1);
        }
    }
    resp
}

/// `GET /healthz`: per-component readiness (registry residency vs cap,
/// delta-store writability, queue depths vs the shed limit, worker-pool
/// liveness, and the watchdog's SLO verdict) aggregated into one
/// `ok|degraded` status — `200` when ok, `503` when degraded. The
/// pre-observability top-level keys are kept for compatibility.
fn health(shared: &Shared) -> Response {
    let s = shared.registry.stats();
    let max_resident = shared.registry.max_resident();
    let registry_ok = s.resident_variants <= max_resident;
    let store_writable = shared.registry.store_writable();
    let store_ok = store_writable.unwrap_or(true);
    let conn_depth = shared.conns.depth();
    let batch_depth = shared.batcher.queue_depth();
    let batcher_ok = conn_depth + batch_depth <= shared.queue_limit;
    let workers = nautilus_util::pool::num_threads();
    let pool_ok = workers > 0;
    let breaches = shared.breaches.lock().expect("breach list").clone();
    let watchdog_ok = breaches.is_empty() && !shared.degraded.load(Ordering::Relaxed);
    let ok = registry_ok && store_ok && batcher_ok && pool_ok && watchdog_ok;
    let verdict = |ok: bool| Json::Str(if ok { "ok" } else { "degraded" }.into());
    let body = Json::obj([
        ("status", verdict(ok)),
        ("resident_variants", Json::Int(s.resident_variants as i128)),
        ("evicted_variants", Json::Int(s.evicted_variants as i128)),
        (
            "components",
            Json::obj([
                (
                    "registry",
                    Json::obj([
                        ("status", verdict(registry_ok)),
                        ("resident_variants", Json::Int(s.resident_variants as i128)),
                        (
                            "max_resident_variants",
                            if max_resident == usize::MAX {
                                Json::Null
                            } else {
                                Json::Int(max_resident as i128)
                            },
                        ),
                    ]),
                ),
                (
                    "delta_store",
                    Json::obj([
                        ("status", verdict(store_ok)),
                        ("configured", Json::Bool(store_writable.is_some())),
                        ("writable", store_writable.map_or(Json::Null, Json::Bool)),
                    ]),
                ),
                (
                    "batcher",
                    Json::obj([
                        ("status", verdict(batcher_ok)),
                        ("conn_queue_depth", Json::Int(conn_depth as i128)),
                        ("batch_queue_depth", Json::Int(batch_depth as i128)),
                        ("queue_limit", Json::Int(shared.queue_limit as i128)),
                    ]),
                ),
                (
                    "pool",
                    Json::obj([
                        ("status", verdict(pool_ok)),
                        ("workers", Json::Int(workers as i128)),
                    ]),
                ),
                (
                    "watchdog",
                    Json::obj([
                        ("status", verdict(watchdog_ok)),
                        ("enabled", Json::Bool(shared.obs.watchdog_tick_ms > 0)),
                        ("breaches", Json::Arr(breaches.into_iter().map(Json::Str).collect())),
                    ]),
                ),
            ]),
        ),
    ]);
    Response::json(if ok { 200 } else { 503 }, &body)
}

/// Live summary of one latency histogram for the `/stats` block.
fn latency_json(h: &'static telemetry::Histogram) -> Json {
    let s = h.summarize();
    Json::obj([
        ("count", Json::Int(s.count as i128)),
        ("p50_us", Json::Int(s.p50 as i128)),
        ("p95_us", Json::Int(s.p95 as i128)),
        ("p99_us", Json::Int(s.p99 as i128)),
        ("max_us", Json::Int(s.max as i128)),
    ])
}

/// `GET /stats`: request counters, per-tenant prediction counts, live
/// latency summaries, and the registry's residency/dedup accounting.
fn stats(shared: &Shared) -> Response {
    let s = shared.stats.snapshot();
    let r = shared.registry.stats();
    let tenants: Vec<Json> = shared
        .stats
        .per_tenant
        .lock()
        .expect("per-tenant stats lock")
        .iter()
        .map(|(id, n)| {
            Json::obj([
                ("id", Json::Str(id.clone())),
                ("predictions", Json::Int(*n as i128)),
            ])
        })
        .collect();
    Response::json(
        200,
        &Json::obj([
            ("connections", Json::Int(s.connections as i128)),
            ("requests", Json::Int(s.requests as i128)),
            ("predictions", Json::Int(s.predictions as i128)),
            ("shed", Json::Int(s.shed as i128)),
            ("client_errors", Json::Int(s.client_errors as i128)),
            ("server_errors", Json::Int(s.server_errors as i128)),
            ("tenants", Json::Arr(tenants)),
            (
                "latency",
                Json::obj([
                    ("request_us", latency_json(&telemetry::SERVE_REQUEST_US)),
                    ("batch_us", latency_json(&telemetry::SERVE_BATCH_US)),
                ]),
            ),
            (
                "registry",
                Json::obj([
                    ("resident_variants", Json::Int(r.resident_variants as i128)),
                    ("evicted_variants", Json::Int(r.evicted_variants as i128)),
                    ("bases", Json::Int(r.bases as i128)),
                    ("bytes_logical", Json::Int(r.bytes_logical as i128)),
                    ("bytes_stored", Json::Int(r.bytes_stored as i128)),
                    ("unique_delta_entries", Json::Int(r.unique_delta_entries as i128)),
                    ("dedup_ratio", Json::Num(r.dedup_ratio())),
                    ("evictions", Json::Int(r.evictions as i128)),
                    ("fault_ins", Json::Int(r.fault_ins as i128)),
                ]),
            ),
        ]),
    )
}

/// `GET /model[/<id>]`: shape and residency metadata for one tenant.
fn model_meta(id: &str, shared: &Shared) -> Response {
    match shared.registry.get(id) {
        Ok(a) => Response::json(
            200,
            &Json::obj([
                ("id", Json::Str(a.id.as_str().into())),
                ("version", Json::Int(a.version as i128)),
                (
                    "input_shape",
                    Json::Arr(a.record_shape.0.iter().map(|&d| Json::Int(d as i128)).collect()),
                ),
                ("input_elements", Json::Int(a.record_elems as i128)),
                ("delta_bytes", Json::Int(a.delta_bytes as i128)),
                ("base_sig", Json::Str(format!("{:016x}", a.base.sig))),
            ]),
        ),
        Err(RegistryError::UnknownModel(_)) => Response::error(404, "no model published"),
        Err(e) => Response::error(500, &e.to_string()),
    }
}

/// `POST /predict[/<id>]` with body `{"inputs": [f32...]}` →
/// `{"model_id", "model_version", "batch_size", "trunk_batch",
/// "outputs": [f32...]}`. `batch_size` counts this tenant's records in
/// the batch; `trunk_batch` counts every record, of any tenant, that
/// shared this one's trunk pass (same base, same precision: f32 or int8).
fn predict(req: &Request, id: &str, shared: &Shared) -> Response {
    // Announced before the body is decoded: the batcher holds its door for
    // this request only while it is really on its way.
    let ticket = shared.batcher.announce();
    let parsed: Result<Json, _> = nautilus_util::json::from_slice(&req.body);
    let Ok(body) = parsed else {
        return Response::error(400, "body is not valid JSON");
    };
    let Some(inputs) = body.get("inputs").and_then(|v| v.as_arr()) else {
        return Response::error(422, "missing 'inputs' array");
    };
    let mut record = Vec::with_capacity(inputs.len());
    for v in inputs {
        match v.as_f64() {
            Some(x) => record.push(x as f32),
            None => return Response::error(422, "'inputs' must be numbers"),
        }
    }
    match shared.batcher.predict_announced(ticket, id, record) {
        Ok(out) => {
            shared.stats.predictions.fetch_add(1, Ordering::Relaxed);
            *shared
                .stats
                .per_tenant
                .lock()
                .expect("per-tenant stats lock")
                .entry(out.model_id.clone())
                .or_insert(0) += 1;
            Response::json(
                200,
                &Json::obj([
                    ("model_id", Json::Str(out.model_id)),
                    ("model_version", Json::Int(out.version as i128)),
                    ("batch_size", Json::Int(out.batch_size as i128)),
                    ("trunk_batch", Json::Int(out.trunk_batch as i128)),
                    (
                        "outputs",
                        Json::Arr(out.values.iter().map(|&x| Json::Num(x as f64)).collect()),
                    ),
                ]),
            )
        }
        Err(PredictError::UnknownModel(id)) => {
            Response::error(404, &format!("no model published under '{id}'"))
        }
        Err(e @ PredictError::BadShape { .. }) => Response::error(422, &e.to_string()),
        Err(PredictError::Shutdown) => Response::error(503, "server draining"),
        Err(PredictError::Registry(m)) => Response::error(500, &m),
        Err(PredictError::Exec(m)) => Response::error(500, &m),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_dnn::graph::ParamInit;
    use nautilus_dnn::layer::{Activation, LayerKind};
    use nautilus_dnn::ModelGraph;
    use nautilus_tensor::init::seeded_rng;

    fn model(seed: u64) -> ModelGraph {
        let mut rng = seeded_rng(seed);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [8]);
        let o = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim: 8, out_dim: 3, act: Activation::None },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        g
    }

    fn start(cfg: &ServingConfig) -> (Server, String) {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("default", model(5)).unwrap();
        let server = Server::start(registry, cfg, 0).unwrap();
        let addr = server.addr().to_string();
        (server, addr)
    }

    fn get(addr: &str, path: &str) -> (u16, Json) {
        let (status, body) =
            http::request(addr, "GET", path, None, Duration::from_secs(5)).unwrap();
        (status, nautilus_util::json::from_slice(&body).unwrap())
    }

    #[test]
    fn serves_health_model_and_predictions() {
        let (server, addr) = start(&ServingConfig::default());

        let (status, health) = get(&addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(health.get("resident_variants").and_then(|v| v.as_u64()), Some(1));

        let (status, meta) = get(&addr, "/model");
        assert_eq!(status, 200);
        assert_eq!(meta.get("input_elements").and_then(|v| v.as_u64()), Some(8));
        // The explicit-tenant path reaches the same variant.
        let (status, meta) = get(&addr, "/model/default");
        assert_eq!(status, 200);
        assert_eq!(meta.get("version").and_then(|v| v.as_u64()), Some(1));
        let (status, _) = get(&addr, "/model/nobody");
        assert_eq!(status, 404);

        let body = br#"{"inputs": [1, 0.5, -1, 2, 0, 0.25, -0.5, 3]}"#;
        let (status, raw) =
            http::request(&addr, "POST", "/predict", Some(body), Duration::from_secs(5))
                .unwrap();
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&raw));
        let out: Json = nautilus_util::json::from_slice(&raw).unwrap();
        assert_eq!(out.get("outputs").and_then(|v| v.as_arr()).map(|a| a.len()), Some(3));
        assert_eq!(out.get("model_id").and_then(|v| v.as_str()), Some("default"));

        let (status, listing) = get(&addr, "/models");
        assert_eq!(status, 200);
        assert_eq!(listing.get("models").and_then(|v| v.as_arr()).map(|a| a.len()), Some(1));

        let (status, st) = get(&addr, "/stats");
        assert_eq!(status, 200);
        let reg = st.get("registry").expect("registry block in /stats");
        assert_eq!(reg.get("resident_variants").and_then(|v| v.as_u64()), Some(1));
        assert!(reg.get("dedup_ratio").and_then(|v| v.as_f64()).is_some());
        let tenants = st.get("tenants").and_then(|v| v.as_arr()).expect("tenants");
        assert_eq!(tenants.len(), 1);
        assert_eq!(tenants[0].get("predictions").and_then(|v| v.as_u64()), Some(1));

        let (status, _) = get(&addr, "/nope");
        assert_eq!(status, 404);

        let stats = server.shutdown();
        assert!(stats.requests >= 4);
        assert_eq!(stats.predictions, 1);
    }

    /// Two tenants behind one endpoint: path routing reaches the right
    /// variant, and an unknown tenant is a 404, not a 503.
    #[test]
    fn routes_predictions_per_tenant() {
        let registry = Arc::new(ModelRegistry::new());
        registry.publish("alice", model(11)).unwrap();
        registry.publish("bob", model(22)).unwrap();
        let server = Server::start(registry, &ServingConfig::default(), 0).unwrap();
        let addr = server.addr().to_string();

        let body = br#"{"inputs": [1, 2, 3, 4, 5, 6, 7, 8]}"#;
        let mut outs = Vec::new();
        for tenant in ["alice", "bob"] {
            let (status, raw) = http::request(
                &addr,
                "POST",
                &format!("/predict/{tenant}"),
                Some(body),
                Duration::from_secs(5),
            )
            .unwrap();
            assert_eq!(status, 200, "{}", String::from_utf8_lossy(&raw));
            let out: Json = nautilus_util::json::from_slice(&raw).unwrap();
            assert_eq!(out.get("model_id").and_then(|v| v.as_str()), Some(tenant));
            outs.push(out.get("outputs").unwrap().to_string());
        }
        assert_ne!(outs[0], outs[1], "different tenants must answer differently");

        let (status, raw) =
            http::request(&addr, "POST", "/predict/nobody", Some(body), Duration::from_secs(5))
                .unwrap();
        assert_eq!(status, 404, "{}", String::from_utf8_lossy(&raw));

        let stats = server.shutdown();
        assert_eq!(stats.predictions, 2);
        assert_eq!(stats.client_errors, 1);
    }

    #[test]
    fn rejects_bad_bodies_and_shapes() {
        let (server, addr) = start(&ServingConfig::default());
        let cases: [(&[u8], u16); 3] = [
            (b"not json", 400),
            (br#"{"wrong": 1}"#, 422),
            (br#"{"inputs": [1, 2]}"#, 422),
        ];
        for (body, want) in cases {
            let (status, _) =
                http::request(&addr, "POST", "/predict", Some(body), Duration::from_secs(5))
                    .unwrap();
            assert_eq!(status, want, "body {:?}", String::from_utf8_lossy(body));
        }
        let stats = server.shutdown();
        assert_eq!(stats.client_errors, 3);
        assert_eq!(stats.predictions, 0);
    }
}
