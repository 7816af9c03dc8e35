//! The serving workloads: 16 adapter tenants behind an in-process `Server` on
//! loopback, driven by the open-loop generator and then by a closed loop.
//!
//! The measuring window is split 10 % warm-up (discarded) / 60 % open loop at
//! the workload's fixed rate / 30 % closed loop of [`SENDERS`] clients.

use crate::loadgen::{
    parse_prediction, schedule, sleep_until, Conn, Picker, Slot, SlotKind, TenantChoice, SENDERS,
};
use crate::result::{digest_bits, dir_bytes, peak_rss_mb, Check};
use crate::{probes, spans, stats, Outcome, RunOpts};
use nautilus_core::config::{ObservabilityConfig, ServingConfig};
use nautilus_core::SystemConfig;
use nautilus_dnn::exec::{self, BatchInputs};
use nautilus_dnn::ModelGraph;
use nautilus_models::bert::{adapter_model, BertConfig};
use nautilus_models::{personalize, BuildScale};
use nautilus_serve::{ModelRegistry, Server};
use nautilus_tensor::Tensor;
use nautilus_util::json::Json;
use nautilus_util::rng::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A serving workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Open-loop arrival rate, requests per second.
    pub rate: f64,
    /// How requests pick their tenant.
    pub choice: TenantChoice,
    /// Every this-many-th slot of the schedule is a `publish` hot swap.
    pub publish_every: Option<usize>,
    /// Resident-variant cap; `Some` also gives the registry a delta store, so
    /// cold tenants are evicted to disk and fault back in on the request path.
    pub max_resident: Option<usize>,
}

/// Shares of the measuring window: warm-up (discarded), open loop, closed loop.
const WARM_SHARE: f64 = 0.1;
const OPEN_SHARE: f64 = 0.6;
const CLOSED_SHARE: f64 = 0.3;
const TENANTS: usize = 16;
const PAYLOADS: usize = 64;
const SEQ_LEN: usize = 16;
const VOCAB: usize = 60;
/// Every this-many-th request's output is kept and verified after the window.
const VERIFY_EVERY: usize = 16;
/// A generator that woke later than this at p99 cannot vouch for its latencies.
const MAX_LATE_P99_MS: f64 = 5.0;
/// Set-up is a few milliseconds here, so its median needs many samples.
const SETUP_ROUNDS: usize = 31;
const TIMEOUT: Duration = Duration::from_secs(5);

fn tenant_id(t: usize) -> String {
    format!("tenant-{t}")
}

/// Solo forward of this model is about half of a request's latency, so the
/// connection plane and the model path each own a visible share.
fn template() -> Result<ModelGraph, String> {
    let cfg = BertConfig {
        hidden: 48,
        ff: 96,
        heads: 4,
        layers: 6,
        seq_len: SEQ_LEN,
        vocab: VOCAB,
        seed: 1000,
    };
    adapter_model(&cfg, 2, 8, 9, BuildScale::Real).map_err(|e| e.to_string())
}

/// One request payload: the record and its wire body.
struct Payload {
    record: Vec<f32>,
    body: Vec<u8>,
}

fn payloads(seed: u64) -> Vec<Payload> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A71_0AD5);
    (0..PAYLOADS)
        .map(|_| {
            let record: Vec<f32> = (0..SEQ_LEN)
                .map(|_| rng.gen_range(0..VOCAB) as f32)
                .collect();
            let inputs = Json::Arr(record.iter().map(|&x| Json::Num(f64::from(x))).collect());
            let body = Json::obj([("inputs", inputs)]).to_string().into_bytes();
            Payload { record, body }
        })
        .collect()
}

/// A running server with everything needed to verify what it answers.
struct Deployment {
    server: Server,
    serving: ServingConfig,
    /// `(tenant, version)` → the graph published under it.
    published: Mutex<HashMap<(usize, u64), Arc<ModelGraph>>>,
    delta_dir: Option<PathBuf>,
}

/// The seed's inputs: request payloads, the warm-up and open-loop schedules,
/// and the graphs the scheduled hot swaps publish.
struct Inputs {
    payloads: Vec<Payload>,
    warm: Vec<Slot>,
    open: Vec<Slot>,
    swaps: HashMap<usize, Arc<ModelGraph>>,
}

fn inputs(spec: &ServeSpec, opts: &RunOpts, template: &ModelGraph) -> Result<Inputs, String> {
    let window = |share: f64| Duration::from_secs_f64(opts.seconds * share);
    let slots = |seed, window, publish_every| {
        let picker = Picker::new(seed, TENANTS, PAYLOADS, spec.choice);
        schedule(picker, spec.rate, window, publish_every)
    };
    let open = slots(opts.seed, window(OPEN_SHARE), spec.publish_every);
    let swaps = open
        .iter()
        .enumerate()
        .filter(|(_, s)| s.kind == SlotKind::Publish)
        .map(|(i, _)| {
            let tenant_seed = opts
                .seed
                .wrapping_mul(7_919)
                .wrapping_add(1_000_000 + i as u64);
            Ok((
                i,
                Arc::new(personalize(template, tenant_seed).map_err(|e| e.to_string())?),
            ))
        })
        .collect::<Result<_, String>>()?;
    Ok(Inputs {
        payloads: payloads(opts.seed),
        warm: slots(opts.seed ^ 0x3A3A, window(WARM_SHARE), None),
        open,
        swaps,
    })
}

/// Everything before the first request: tenant construction, 16 publishes
/// (with a resident cap, 12 of them evict to the delta store), server start,
/// and generating the seed's inputs.
fn deploy(
    spec: &ServeSpec,
    opts: &RunOpts,
    scratch: &Path,
) -> Result<(Deployment, Inputs, f64), String> {
    // Every round deploys over the same delta store, like a server restart:
    // the store is content-addressed, so after the first round the 12
    // evictions rewrite manifests but find their blobs in place. Creating
    // some hundred small files per round instead would make set-up a
    // measurement of the filesystem's mood (ext4 create latency drifts by
    // 2x within minutes on this runner).
    let delta_dir = spec.max_resident.map(|_| scratch.join("delta-store"));
    let t0 = Instant::now();
    let template = template()?;
    let mut builder = SystemConfig::builder()
        .serve_max_batch(8)
        .serve_max_delay_us(250);
    if let (Some(cap), Some(dir)) = (spec.max_resident, &delta_dir) {
        builder = builder
            .serve_max_resident_variants(cap)
            .serve_delta_store_dir(dir.to_string_lossy().into_owned());
    }
    let serving = builder.build().serving;
    let registry = Arc::new(ModelRegistry::with_config(&serving).map_err(|e| e.to_string())?);
    let mut published = HashMap::new();
    for t in 0..TENANTS {
        let tenant_seed = opts.seed.wrapping_mul(1_000_003).wrapping_add(t as u64);
        let graph = personalize(&template, tenant_seed).map_err(|e| e.to_string())?;
        let version = registry
            .publish(&tenant_id(t), graph.clone())
            .map_err(|e| e.to_string())?;
        published.insert((t, version), Arc::new(graph));
    }
    // The timed run keeps the program's telemetry off end to end.
    let obs = ObservabilityConfig {
        metrics: opts.traced,
        ..ObservabilityConfig::default()
    };
    let server = Server::start_with(registry, &serving, &obs, 0).map_err(|e| e.to_string())?;
    let inputs = inputs(spec, opts, &template)?;
    let secs = t0.elapsed().as_secs_f64();
    Ok((
        Deployment {
            server,
            serving,
            published: Mutex::new(published),
            delta_dir,
        },
        inputs,
        secs,
    ))
}

/// A sampled answer, verified after the window.
struct Sampled {
    tenant: usize,
    payload: usize,
    version: u64,
    outputs: Vec<f32>,
}

/// What the senders of one window observed.
#[derive(Default)]
struct Observed {
    /// `(slot, predict latency from the due time in ms)`; `+inf` for a
    /// failed request.
    latency_ms: Vec<(usize, f64)>,
    /// Wake-up lateness of slots the sender slept for, ms.
    late_ms: Vec<f64>,
    connect_us: Vec<f64>,
    write_us: Vec<f64>,
    first_byte_us: Vec<f64>,
    read_us: Vec<f64>,
    publish_ms: Vec<f64>,
    batch_size_sum: u64,
    trunk_batch_sum: u64,
    sent: u64,
    ok: u64,
    failed: u64,
    connects: u64,
    sampled: Vec<Sampled>,
    last_response: Vec<u8>,
}

impl Observed {
    fn absorb(&mut self, o: Observed) {
        self.latency_ms.extend(o.latency_ms);
        self.late_ms.extend(o.late_ms);
        self.connect_us.extend(o.connect_us);
        self.write_us.extend(o.write_us);
        self.first_byte_us.extend(o.first_byte_us);
        self.read_us.extend(o.read_us);
        self.publish_ms.extend(o.publish_ms);
        self.batch_size_sum += o.batch_size_sum;
        self.trunk_batch_sum += o.trunk_batch_sum;
        self.sent += o.sent;
        self.ok += o.ok;
        self.failed += o.failed;
        self.connects += o.connects;
        self.sampled.extend(o.sampled);
        if !o.last_response.is_empty() {
            self.last_response = o.last_response;
        }
    }
}

/// Sends one predict and books it. `due` is when it should have been sent.
#[allow(clippy::too_many_arguments)]
fn predict(
    conn: &mut Conn,
    obs: &mut Observed,
    payloads: &[Payload],
    (tenant, payload): (usize, usize),
    index: usize,
    due: Instant,
    group: u64,
    sample: bool,
    parent: Option<u32>,
) {
    let _sp = spans::span_under(parent, "loadgen.request", group);
    obs.sent += 1;
    let path = format!("/predict/{}", tenant_id(tenant));
    let answer = conn.request("POST", &path, &payloads[payload].body, group);
    let parsed = match &answer {
        Ok((resp, _)) if resp.status == 200 => parse_prediction(&resp.body),
        _ => None,
    };
    let (Ok((resp, st)), Some(p)) = (answer, parsed) else {
        obs.failed += 1;
        obs.latency_ms.push((index, f64::INFINITY));
        return;
    };
    obs.ok += 1;
    obs.latency_ms.push((
        index,
        st.done.saturating_duration_since(due).as_secs_f64() * 1e3,
    ));
    let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
    obs.connect_us.push(us(st.start, st.connected));
    obs.write_us.push(us(st.connected, st.written));
    obs.first_byte_us.push(us(st.written, st.first_byte));
    obs.read_us.push(us(st.first_byte, st.done));
    obs.batch_size_sum += p.batch_size;
    obs.trunk_batch_sum += p.trunk_batch;
    if sample {
        obs.sampled.push(Sampled {
            tenant,
            payload,
            version: p.version,
            outputs: p.outputs,
        });
        obs.last_response = resp.body;
    }
}

/// Open loop: sender `j` owns slots `j, j + SENDERS, ...` and sends each at
/// its due time, or at once when it is already late — never skipping one.
fn open_loop(
    dep: &Deployment,
    addr: SocketAddr,
    slots: &[Slot],
    payloads: &[Payload],
    swaps: &HashMap<usize, Arc<ModelGraph>>,
    parent: Option<u32>,
) -> (Observed, f64) {
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = Observed::default();
    std::thread::scope(|s| {
        let senders: Vec<_> = (0..SENDERS)
            .map(|j| {
                s.spawn(move || {
                    let mut conn = Conn::new(addr, TIMEOUT);
                    let mut obs = Observed::default();
                    for (i, slot) in slots.iter().enumerate().skip(j).step_by(SENDERS) {
                        let due = start + slot.due;
                        if Instant::now() < due {
                            obs.late_ms.push(sleep_until(due).as_secs_f64() * 1e3);
                        }
                        let group = i as u64 + 1;
                        match slot.kind {
                            SlotKind::Predict => {
                                let sample = i % VERIFY_EVERY == 0;
                                let pick = (slot.tenant, slot.payload);
                                predict(
                                    &mut conn, &mut obs, payloads, pick, i, due, group, sample,
                                    parent,
                                );
                            }
                            SlotKind::Publish => {
                                let _sp =
                                    spans::span_under(parent, "serve.registry.publish", group);
                                let graph = &swaps[&i];
                                let (id, owned) = (tenant_id(slot.tenant), (**graph).clone());
                                let t0 = Instant::now();
                                let done = dep.server.registry().publish(&id, owned);
                                obs.publish_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                                obs.sent += 1;
                                match done {
                                    Ok(version) => {
                                        obs.ok += 1;
                                        dep.published
                                            .lock()
                                            .expect("no sender panics holding the version map")
                                            .insert((slot.tenant, version), Arc::clone(graph));
                                    }
                                    Err(_) => obs.failed += 1,
                                }
                            }
                        }
                    }
                    obs.connects = conn.connects;
                    obs
                })
            })
            .collect();
        for h in senders {
            total.absorb(h.join().expect("sender thread panicked"));
        }
    });
    (total, start.elapsed().as_secs_f64())
}

/// Closed loop: each client sends its next request when the previous one
/// completed. Returns what was observed and the wall-clock it took.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    window: Duration,
    payloads: &[Payload],
    choice: TenantChoice,
    parent: Option<u32>,
) -> (Observed, f64) {
    let start = Instant::now();
    let mut total = Observed::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..SENDERS)
            .map(|j| {
                s.spawn(move || {
                    let mut conn = Conn::new(addr, TIMEOUT);
                    let mut obs = Observed::default();
                    let mut picker =
                        Picker::new(seed ^ (0xC105_ED00 + j as u64), TENANTS, PAYLOADS, choice);
                    for i in 0.. {
                        let now = Instant::now();
                        if now >= start + window {
                            break;
                        }
                        let group = (1 << 32) | ((j as u64) << 28) | i as u64;
                        let pick = picker.pick();
                        predict(
                            &mut conn, &mut obs, payloads, pick, i, now, group, false, parent,
                        );
                    }
                    obs.connects = conn.connects;
                    obs
                })
            })
            .collect();
        for h in clients {
            total.absorb(h.join().expect("client thread panicked"));
        }
    });
    (total, start.elapsed().as_secs_f64())
}

fn solo_forward(graph: &ModelGraph, record: &[f32]) -> Option<Vec<f32>> {
    let input = graph.input_ids()[0];
    let x = Tensor::from_vec(graph.shape(input).with_batch(1), record.to_vec()).ok()?;
    let mut bi = BatchInputs::new();
    bi.insert(input, x);
    Some(
        exec::forward(graph, &bi, false)
            .ok()?
            .output(graph.outputs()[0])
            .data()
            .to_vec(),
    )
}

/// Runs one serving workload.
pub fn run(spec: &ServeSpec, opts: &RunOpts, scratch: &Path) -> Outcome {
    let mut out = Outcome::default();

    // Set-up, several times; the last deployment serves the window.
    let mut setups = Vec::new();
    let mut live: Option<(Deployment, Inputs)> = None;
    for _ in 0..if opts.quick { 2 } else { SETUP_ROUNDS } {
        if let Some((dep, _)) = live.take() {
            dep.server.shutdown();
        }
        match deploy(spec, opts, scratch) {
            Ok((dep, inputs, secs)) => {
                setups.push(secs);
                live = Some((dep, inputs));
            }
            Err(e) => return out.abort(format!("set-up: {e}")),
        }
    }
    let (
        dep,
        Inputs {
            payloads,
            warm: warm_slots,
            open: slots,
            swaps,
        },
    ) = live.expect("at least one set-up round ran");
    let addr = dep.server.addr();
    let closed = Duration::from_secs_f64(opts.seconds * CLOSED_SHARE);

    let (warmed, _) = {
        let sp = spans::span("bench.warm_up", 0);
        open_loop(&dep, addr, &warm_slots, &payloads, &swaps, sp.id())
    };
    let (open_obs, open_secs) = {
        let sp = spans::span("bench.open_loop", 0);
        open_loop(&dep, addr, &slots, &payloads, &swaps, sp.id())
    };
    let (closed_obs, closed_secs) = {
        let sp = spans::span("bench.closed_loop", 0);
        closed_loop(addr, opts.seed, closed, &payloads, spec.choice, sp.id())
    };

    out.attempted = warmed.sent + open_obs.sent + closed_obs.sent;
    out.failed = warmed.failed + open_obs.failed + closed_obs.failed;
    // Senders interleave; the tail's windows follow the schedule.
    let mut in_order = open_obs.latency_ms.clone();
    in_order.sort_by_key(|(slot, _)| *slot);
    let in_order: Vec<f64> = in_order.into_iter().map(|(_, ms)| ms).collect();
    let lat = stats::sorted(&in_order);
    let n = lat.len() as u64;
    let (tail_p, tail, windows) = stats::tail(&in_order);
    let m = &mut out.metrics;
    m.set("setup_s", stats::median(&setups), setups.len() as u64);
    m.set("p50_ms", stats::percentile(&lat, 50.0), n);
    m.set("tail_ms", tail, n);
    m.set(
        "rate_per_s",
        closed_obs.ok as f64 / closed_secs,
        closed_obs.ok,
    );
    eprintln!(
        "latency from due time: p50 {:.3} ms; tail_ms {tail:.3} ms = lower quartile over {windows} windows of each window's p{tail_p}; whole window (printed only): p{tail_p} {:.3} ms, p99 {:.3} ms, p99.9 {:.3} ms ({} samples beyond)",
        stats::percentile(&lat, 50.0),
        stats::percentile(&lat, tail_p),
        stats::percentile(&lat, 99.0),
        stats::percentile(&lat, 99.9),
        stats::samples_beyond(lat.len(), 99.9),
    );

    // Checks. 1: the generator kept its schedule.
    let late = stats::sorted(&open_obs.late_ms);
    let late_p99 = stats::percentile(&late, 99.0);
    out.checks.push(Check::new(
        "generator_on_schedule",
        late_p99 <= MAX_LATE_P99_MS,
        format!(
            "wake-up lateness p99 {late_p99:.3} ms, max {:.3} ms over {} sleeps (limit {MAX_LATE_P99_MS} ms)",
            late.last().copied().unwrap_or(0.0),
            late.len()
        ),
    ));
    // 2: every sampled answer equals a solo forward of the graph published
    // under the version that answered.
    let published = dep.published.lock().expect("senders are done").clone();
    let mut bits = Vec::new();
    let mut differ = 0usize;
    for s in &open_obs.sampled {
        let want = published
            .get(&(s.tenant, s.version))
            .and_then(|g| solo_forward(g, &payloads[s.payload].record));
        let same = want.is_some_and(|w| {
            w.len() == s.outputs.len()
                && w.iter()
                    .zip(&s.outputs)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        });
        differ += usize::from(!same);
        bits.extend(s.outputs.iter().map(|x| x.to_bits()));
    }
    out.digest = digest_bits(bits);
    out.checks.push(Check::new(
        "served_outputs_bit_identical",
        differ == 0 && !open_obs.sampled.is_empty(),
        format!(
            "{} sampled answers (every {VERIFY_EVERY}th), {differ} differ from a solo forward",
            open_obs.sampled.len()
        ),
    ));
    if let Some(k) = spec.publish_every {
        let want = slots.len() / k;
        out.checks.push(Check::new(
            "hot_swaps_applied",
            open_obs.publish_ms.len() == want && want > 0,
            format!(
                "{} of {want} scheduled publishes ran",
                open_obs.publish_ms.len()
            ),
        ));
    }

    if opts.traced {
        let m = &mut out.metrics;
        m.set("trace.p50_ms", stats::percentile(&lat, 50.0), n);
        m.set("serve.latency_p99_ms", stats::percentile(&lat, 99.0), n);
        m.set(
            "util.http.connect_us_p50",
            stats::median(&open_obs.connect_us),
            n,
        );
        m.set(
            "util.http.write_us_p50",
            stats::median(&open_obs.write_us),
            n,
        );
        m.set("util.http.read_us_p50", stats::median(&open_obs.read_us), n);
        let fb = stats::sorted(&open_obs.first_byte_us);
        m.set("serve.first_byte_us_p50", stats::percentile(&fb, 50.0), n);
        m.set("serve.first_byte_us_p99", stats::percentile(&fb, 99.0), n);
        let answered = open_obs.connect_us.len().max(1) as f64;
        m.set(
            "serve.batcher.batch_size_mean",
            open_obs.batch_size_sum as f64 / answered,
            n,
        );
        m.set(
            "serve.batcher.trunk_batch_mean",
            open_obs.trunk_batch_sum as f64 / answered,
            n,
        );
        m.set(
            "publish_p50_ms",
            stats::median(&open_obs.publish_ms),
            open_obs.publish_ms.len() as u64,
        );
        m.set("loadgen.sent", open_obs.sent as f64, 1);
        m.set("loadgen.ok", open_obs.ok as f64, 1);
        m.set("loadgen.connects", open_obs.connects as f64, 1);
        m.set(
            "loadgen.max_late_ms",
            late.last().copied().unwrap_or(0.0),
            late.len() as u64,
        );
        m.set("loadgen.late_p99_ms", late_p99, late.len() as u64);
        m.set(
            "loadgen.achieved_rps",
            open_obs.ok as f64 / open_secs,
            open_obs.ok,
        );

        // The server's own view, before the probes add their traffic.
        let mut conn = Conn::new(addr, TIMEOUT);
        if let Ok((resp, _)) = conn.request("GET", "/stats", b"", 0) {
            if let Ok(stats_json) = nautilus_util::json::from_slice::<Json>(&resp.body) {
                let at = |path: &[&str]| {
                    path.iter()
                        .try_fold(&stats_json, |j, k| j.get(k))
                        .and_then(Json::as_f64)
                };
                let served = at(&["latency", "request_us", "count"]).unwrap_or(0.0) as u64;
                m.set(
                    "serve.server.request_us_p50",
                    at(&["latency", "request_us", "p50_us"]).unwrap_or(0.0),
                    served,
                );
                m.set(
                    "serve.server.batch_us_p50",
                    at(&["latency", "batch_us", "p50_us"]).unwrap_or(0.0),
                    served,
                );
                m.set("serve.server.shed", at(&["shed"]).unwrap_or(0.0), 1);
            }
        }
        let reg = dep.server.registry().stats();
        let gets = (warmed.ok + open_obs.ok + closed_obs.ok).max(1);
        m.set(
            "serve.registry.fault_in_ratio",
            reg.fault_ins as f64 / gets as f64,
            gets,
        );
        m.set("serve.registry.evictions", reg.evictions as f64, 1);
        m.set("serve.registry.dedup_ratio", reg.dedup_ratio(), 1);
        m.set(
            "disk_mb",
            dep.delta_dir.as_deref().map_or(0, dir_bytes) as f64 / 1e6,
            1,
        );
        probes::counters(m, &probes::read_counters(), 1.0);

        let first = &payloads[0];
        let mut wire = format!(
            "POST /predict/tenant-0 HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n",
            first.body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&first.body);
        let graph = published
            .iter()
            .find(|((t, _), _)| *t == 0)
            .map(|(_, g)| Arc::clone(g));
        if let Some(graph) = graph {
            probes::serving(
                m,
                &mut conn,
                &probes::ServeProbeInputs {
                    registry: dep.server.registry(),
                    serving: &dep.serving,
                    graph: &graph,
                    request_wire: &wire,
                    request_body: &first.body,
                    record: &first.record,
                    response_body: &open_obs.last_response,
                    evicts: spec.max_resident.is_some(),
                },
            );
        }
    }

    let stats = dep.server.shutdown();
    out.checks.push(Check::new(
        "nothing_shed_or_failed",
        stats.shed == 0 && stats.server_errors == 0 && stats.client_errors == 0 && out.failed == 0,
        format!(
            "server: {} requests, {} shed, {} 4xx, {} 5xx; generator: {} failed of {}",
            stats.requests,
            stats.shed,
            stats.client_errors,
            stats.server_errors,
            out.failed,
            out.attempted
        ),
    ));
    out.metrics.set("peak_rss_mb", peak_rss_mb(), 1);
    out
}
