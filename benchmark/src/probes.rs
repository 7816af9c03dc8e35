//! Per-layer probes, run only by the traced run, after the measuring window:
//! direct calls of one layer's public function on inputs taken from the
//! workload (its candidates, its records, its request bytes), plus the
//! program's existing public telemetry counters.

use crate::loadgen::Conn;
use crate::result::Metrics;
use crate::training::TrainSpec;
use crate::{spans, stats};
use nautilus_core::session::ModelSelection;
use nautilus_core::SystemConfig;
use nautilus_data::Dataset;
use nautilus_dnn::exec::{self, BatchInputs};
use nautilus_dnn::layer::LayerKind;
use nautilus_dnn::ModelGraph;
use nautilus_serve::{MicroBatcher, ModelRegistry};
use nautilus_store::{EpochPrefetcher, SharedIoStats, TensorStore};
use nautilus_tensor::init::{randn, seeded_rng};
use nautilus_tensor::ops::{conv2d, conv2d_backward, matmul_ex, MatmulSpec};
use nautilus_tensor::Tensor;
use nautilus_util::http::{self, Limits, ParseOutcome, Response};
use nautilus_util::json::Json;
use nautilus_util::telemetry;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median wall-clock seconds of `iters` calls of `f`.
fn median_secs(iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}

/// Every unlabeled counter and gauge the program exposes, by its exposition
/// name (`pool.tasks` is `pool_tasks`). Read through the public Prometheus
/// text so a counter that no longer exists simply reads as absent.
pub fn read_counters() -> BTreeMap<String, f64> {
    telemetry::prometheus_text()
        .lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Counter-backed per-layer metrics, as a mean per `divisor` (sessions, or 1).
pub fn counters(m: &mut Metrics, counters: &BTreeMap<String, f64>, divisor: f64) {
    let get = |name: &str| counters.get(name).copied().unwrap_or(0.0);
    for (metric, counter) in [
        ("milp.simplex_iters", "simplex_iterations"),
        ("store.prefetch_hits", "prefetch_hits"),
        ("store.prefetch_stalls", "prefetch_stalls"),
        ("tensor.gemm_calls", "gemm_microkernel_calls"),
        ("util.pool.tasks", "pool_tasks"),
        ("util.pool.steals", "pool_steals"),
        ("util.pool.parks", "pool_parks"),
    ] {
        m.set(metric, get(counter) / divisor, divisor as u64);
    }
    m.set(
        "tensor.gemm_pack_mb",
        get("gemm_pack_bytes") / 1e6 / divisor,
        divisor as u64,
    );
    let takes = get("scratch_hits") + get("scratch_misses");
    if takes > 0.0 {
        m.set(
            "tensor.scratch_hit_ratio",
            get("scratch_hits") / takes,
            takes as u64,
        );
    }
}

/// `(m, k, n)` of the largest matrix product one batch of `graph` runs.
/// Convolutions count as their im2col product for one image.
fn largest_gemm(graph: &ModelGraph, batch: usize) -> (usize, usize, usize) {
    let mut best = (1, 1, 1);
    for id in graph.ids() {
        let node = graph.node(id);
        let out_elems = graph.shape(id).num_elements();
        let shape = match node.kind {
            LayerKind::Dense {
                in_dim, out_dim, ..
            } => (batch * out_elems / out_dim, in_dim, out_dim),
            LayerKind::TransformerBlock { dim, ff_dim, .. } => {
                (batch * out_elems / dim, dim, ff_dim)
            }
            LayerKind::Adapter { dim, bottleneck } => (batch * out_elems / dim, dim, bottleneck),
            LayerKind::Conv2d {
                in_ch, out_ch, k, ..
            } => (out_ch, in_ch * k * k, out_elems / out_ch),
            LayerKind::ResidualBlock { out_ch, .. } => (out_ch, out_ch * 9, out_elems / out_ch),
            _ => continue,
        };
        if shape.0 * shape.1 * shape.2 > best.0 * best.1 * best.2 {
            best = shape;
        }
    }
    best
}

/// Probes for the training workloads, on the last session of the window.
pub fn training(
    m: &mut Metrics,
    spec: &TrainSpec,
    session: &ModelSelection,
    pool: &Dataset,
    dir: &Path,
) {
    let _sp = spans::span("bench.probes", 0);
    let candidates = session.candidates();
    let cand = &candidates[0];
    let graph = &cand.graph;
    let batch = cand.hyper.batch_size.min(pool.len());

    // core: the planner, at the three `r` values a session passes through.
    if spec.strategy.runs_optimizer() {
        let config = SystemConfig::tiny();
        let rs = [256usize, 512, 1024];
        let secs: Vec<f64> = rs
            .iter()
            .map(|&r| {
                let _sp = spans::span("core.plan", r as u64);
                let t0 = Instant::now();
                let (v, _) = ModelSelection::choose_v(
                    session.multi(),
                    candidates,
                    &config,
                    spec.strategy,
                    r,
                );
                let units = ModelSelection::build_units(
                    session.multi(),
                    candidates,
                    &config,
                    spec.strategy,
                    &v,
                );
                black_box(units.map(|u| u.len()).unwrap_or(0));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        m.set("core.plan_ms", stats::mean(&secs) * 1e3, rs.len() as u64);
    }

    // store: append, ranged read and epoch prefetch of feature-shaped tensors.
    let layers = session.init_report().num_materialized;
    let floats_per_record = session.feature_bytes() as usize / 4 / pool.len().max(1);
    if let Some(floats) = floats_per_record.checked_div(layers) {
        let records = 256usize;
        let floats = floats.max(1);
        let mut rng = seeded_rng(7);
        let keys: Vec<String> = (0..layers).map(|k| format!("probe-{k}:train")).collect();
        let items: Vec<(String, Tensor)> = keys
            .iter()
            .map(|k| (k.clone(), randn([records, floats], 1.0, &mut rng)))
            .collect();
        let mb = (layers * records * floats * 4) as f64 / 1e6;
        if let Ok(mut store) = TensorStore::open(dir.join("store"), SharedIoStats::new()) {
            let _sp = spans::span("store.probe", 0);
            let t0 = Instant::now();
            let ok = store.append_many(&items).is_ok() && store.flush_writes().is_ok();
            let append = t0.elapsed().as_secs_f64();
            if ok {
                m.set("store.append_mb_s", mb / append, 1);
                let read = median_secs(5, || {
                    for k in &keys {
                        black_box(store.read_records(k, 0, records).map(|(t, _)| t.len()).ok());
                    }
                });
                m.set("store.read_mb_s", mb / read, 5);
                let epochs = 4;
                let t0 = Instant::now();
                if let Ok(mut pf) = EpochPrefetcher::new(&store, &keys, &[], epochs) {
                    for e in 0..epochs {
                        black_box(pf.epoch(e).map(|t| t.len()).ok());
                    }
                }
                let per_epoch = t0.elapsed().as_secs_f64() / epochs as f64;
                m.set("store.prefetch_epoch_mb_s", mb / per_epoch, epochs as u64);
            }
        }
    }

    // dnn: one training step of candidate 0 at its own batch size, by stage.
    let records = pool.range(0, batch);
    let mut inputs = BatchInputs::new();
    inputs.insert(graph.input_ids()[0], records.inputs.clone());
    let targets = records.targets();
    let out_node = graph.outputs()[0];
    let iters = 15;
    {
        let _sp = spans::span("dnn.probe", 0);
        let fwd_secs = median_secs(iters, || {
            black_box(
                exec::forward(graph, &inputs, true)
                    .map(|f| f.outputs.len())
                    .ok(),
            );
        });
        m.set(
            "dnn.forward_us_per_record",
            fwd_secs * 1e6 / batch as f64,
            iters as u64,
        );
        if let Ok(fwd) = exec::forward(graph, &inputs, true) {
            if let Ok((_, grad)) = cand.task.loss(fwd.output(out_node), &targets) {
                let bwd_secs = median_secs(iters, || {
                    let out_grads = HashMap::from([(out_node, grad.clone())]);
                    black_box(
                        exec::backward(graph, &fwd, out_grads)
                            .map(|g| g.params.len())
                            .ok(),
                    );
                });
                m.set(
                    "dnn.backward_us_per_record",
                    bwd_secs * 1e6 / batch as f64,
                    iters as u64,
                );
                let out_grads = HashMap::from([(out_node, grad)]);
                if let Ok(grads) = exec::backward(graph, &fwd, out_grads) {
                    let trainable: Vec<_> = graph
                        .ids()
                        .filter(|&id| graph.node(id).trainable())
                        .collect();
                    let mut opt = cand.hyper.optimizer.build(&trainable);
                    let mut g = graph.clone();
                    let step = median_secs(iters, || opt.step(&mut g, &grads));
                    m.set("dnn.optim_step_us", step * 1e6, iters as u64);
                }
            }
        }
        let path = dir.with_extension("ckpt");
        let save = median_secs(5, || {
            black_box(nautilus_dnn::checkpoint::save(graph, &path).ok());
        });
        let load = median_secs(5, || {
            black_box(nautilus_dnn::checkpoint::load(&path).map(|(_, n)| n).ok());
        });
        let _ = std::fs::remove_file(&path);
        m.set("dnn.checkpoint_save_ms", save * 1e3, 5);
        m.set("dnn.checkpoint_load_ms", load * 1e3, 5);
    }

    // tensor: the workload's largest GEMM, and the stem convolution if any.
    let _sp = spans::span("tensor.probe", 0);
    let mut rng = seeded_rng(11);
    let (gm, gk, gn) = largest_gemm(graph, batch);
    let (a, b) = (
        randn([gm, gk], 1.0, &mut rng),
        randn([gk, gn], 1.0, &mut rng),
    );
    let iters = 200;
    let secs = median_secs(iters, || {
        black_box(matmul_ex(&a, &b, MatmulSpec::plain()).map(|t| t.len()).ok());
    });
    m.set(
        "tensor.gemm_gflops",
        2.0 * (gm * gk * gn) as f64 / secs / 1e9,
        iters as u64,
    );
    let stem = graph.ids().find_map(|id| match graph.node(id).kind {
        LayerKind::Conv2d {
            in_ch,
            out_ch,
            k,
            stride,
            pad,
            ..
        } => Some((id, in_ch, out_ch, k, stride, pad)),
        _ => None,
    });
    if let Some((id, in_ch, out_ch, k, stride, pad)) = stem {
        let mut in_shape = graph.shape(graph.node(id).inputs[0]).0.clone();
        in_shape.insert(0, batch);
        let x = randn(in_shape, 1.0, &mut rng);
        let w = randn([out_ch, in_ch, k, k], 0.1, &mut rng);
        let bias = Tensor::zeros([out_ch]);
        let flops = 2.0 * (batch * graph.shape(id).num_elements() * in_ch * k * k) as f64;
        let iters = 50;
        let fwd = median_secs(iters, || {
            black_box(conv2d(&x, &w, &bias, stride, pad).map(|t| t.len()).ok());
        });
        m.set("tensor.conv_fwd_gflops", flops / fwd / 1e9, iters as u64);
        if let Ok(y) = conv2d(&x, &w, &bias, stride, pad) {
            let bwd = median_secs(iters, || {
                black_box(
                    conv2d_backward(&x, &w, &y, stride, pad)
                        .map(|g| g.0.len())
                        .ok(),
                );
            });
            // Backward computes both the input and the weight gradient.
            m.set(
                "tensor.conv_bwd_gflops",
                2.0 * flops / bwd / 1e9,
                iters as u64,
            );
        }
    }
}

/// What the serving probes need from the workload.
pub struct ServeProbeInputs<'a> {
    /// The live server's registry.
    pub registry: &'a Arc<ModelRegistry>,
    /// Its serving configuration.
    pub serving: &'a nautilus_core::config::ServingConfig,
    /// Tenant 0's full graph.
    pub graph: &'a ModelGraph,
    /// One request exactly as the generator sends it.
    pub request_wire: &'a [u8],
    /// Its JSON body.
    pub request_body: &'a [u8],
    /// Its record.
    pub record: &'a [f32],
    /// One response body exactly as the server sent it.
    pub response_body: &'a [u8],
    /// Whether the registry evicts to a delta store.
    pub evicts: bool,
}

/// Probes for the serving workloads, against the still-running server.
pub fn serving(m: &mut Metrics, conn: &mut Conn, p: &ServeProbeInputs) {
    let _sp = spans::span("bench.probes", 0);

    // util: the connection plane without a model, then parser and encoders
    // on the workload's own bytes.
    let healthz: Vec<f64> = (0..100)
        .filter_map(|_| conn.request("GET", "/healthz", b"", 0).ok())
        .map(|(_, st)| (st.done - st.start).as_secs_f64() * 1e6)
        .collect();
    m.set(
        "util.http.healthz_us_p50",
        stats::median(&healthz),
        healthz.len() as u64,
    );
    let iters = 2000;
    let limits = Limits::default();
    let parse = median_secs(iters, || {
        black_box(matches!(
            http::parse_request(p.request_wire, &limits),
            ParseOutcome::Complete(..)
        ));
    });
    m.set("util.http.parse_us", parse * 1e6, iters as u64);
    let json_parse = median_secs(iters, || {
        black_box(nautilus_util::json::from_slice::<Json>(p.request_body).is_ok());
    });
    m.set("util.json.parse_us", json_parse * 1e6, iters as u64);
    if let Ok(body) = nautilus_util::json::from_slice::<Json>(p.response_body) {
        let encode = median_secs(iters, || {
            black_box(Response::json(200, &body).to_bytes().len());
        });
        m.set("util.http.encode_us", encode * 1e6, iters as u64);
    }

    // dnn: the model path alone — solo, and per record in a batch of 8.
    let input = p.graph.input_ids()[0];
    let record_shape = p.graph.shape(input).clone();
    let stacked = |n: usize| {
        let mut bi = BatchInputs::new();
        let data: Vec<f32> = p
            .record
            .iter()
            .copied()
            .cycle()
            .take(n * p.record.len())
            .collect();
        bi.insert(
            input,
            Tensor::from_vec(record_shape.with_batch(n), data).expect("record shape"),
        );
        bi
    };
    let (solo, eight) = (stacked(1), stacked(8));
    let iters = 200;
    let solo_secs = median_secs(iters, || {
        black_box(
            exec::forward(p.graph, &solo, false)
                .map(|f| f.outputs.len())
                .ok(),
        );
    });
    m.set("dnn.forward_solo_us", solo_secs * 1e6, iters as u64);
    let batch_secs = median_secs(iters / 4, || {
        black_box(
            exec::forward_batch(p.graph, &eight, 8)
                .map(|f| f.outputs.len())
                .ok(),
        );
    });
    m.set(
        "dnn.forward_batch8_us_per_record",
        batch_secs * 1e6 / 8.0,
        (iters / 4) as u64,
    );

    // serve: the batcher without HTTP (door + forward), then the registry.
    {
        let batcher = MicroBatcher::start(Arc::clone(p.registry), p.serving);
        let predict: Vec<f64> = (0..iters)
            .filter_map(|_| {
                let t0 = Instant::now();
                batcher.predict("tenant-0", p.record.to_vec()).ok()?;
                Some(t0.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        m.set(
            "serve.batcher.predict_us_p50",
            stats::median(&predict),
            predict.len() as u64,
        );
    }
    let _ = p.registry.get("tenant-0");
    let gets = 20_000;
    let t0 = Instant::now();
    for _ in 0..gets {
        black_box(p.registry.get("tenant-0").is_ok());
    }
    m.set(
        "serve.registry.get_ns",
        t0.elapsed().as_secs_f64() * 1e9 / f64::from(gets),
        gets as u64,
    );
    if p.evicts {
        let fault_in: Vec<f64> = (0..50)
            .filter_map(|_| {
                p.registry.evict("tenant-1").ok()?;
                let t0 = Instant::now();
                p.registry.get("tenant-1").ok()?;
                Some(t0.elapsed().as_secs_f64() * 1e6)
            })
            .collect();
        m.set(
            "serve.registry.fault_in_us_p50",
            stats::median(&fault_in),
            fault_in.len() as u64,
        );
    }
}
