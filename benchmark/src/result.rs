//! What a run produces: the metric catalogue (the names `BENCHMARK.json`
//! lists), the collector workloads fill, the per-run result record and its
//! JSON form, and the facts about the machine every result carries.

use nautilus_util::json::{Json, ToJson};
use nautilus_util::json_struct;
use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`, measured with tracing off. Every
/// workload reports every one of them; README.md defines each per workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, `(name, unit)`, produced by the traced run. A metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // nautilus-core: planner, materializer, trainer.
    ("core.init.profile_s", "s"),
    ("core.init.optimize_s", "s"),
    ("core.init.checkpoints_s", "s"),
    ("core.plan_ms", "ms"),
    ("core.materialize_s", "s"),
    ("core.train_s", "s"),
    ("core.cycles_1to3_s", "s"),
    ("core.units", "count"),
    ("core.materialized_layers", "count"),
    ("core.theoretical_speedup", "ratio"),
    ("core.flops", "count"),
    ("core.utilization", "ratio"),
    // nautilus-milp.
    ("milp.solve_ms", "ms"),
    ("milp.nodes", "count"),
    ("milp.vars", "count"),
    ("milp.constraints", "count"),
    ("milp.simplex_iters", "count"),
    // nautilus-store and the serving delta store.
    ("disk_mb", "MB"),
    ("store.write_mb", "MB"),
    ("store.disk_read_mb", "MB"),
    ("store.cached_read_mb", "MB"),
    ("store.bytes_per_record", "B"),
    ("store.append_mb_s", "MB/s"),
    ("store.read_mb_s", "MB/s"),
    ("store.prefetch_epoch_mb_s", "MB/s"),
    ("store.prefetch_hits", "count"),
    ("store.prefetch_stalls", "count"),
    ("store.pagecache_hit_ratio", "ratio"),
    // nautilus-dnn.
    ("dnn.forward_us_per_record", "us"),
    ("dnn.backward_us_per_record", "us"),
    ("dnn.optim_step_us", "us"),
    ("dnn.forward_solo_us", "us"),
    ("dnn.forward_batch8_us_per_record", "us"),
    ("dnn.checkpoint_save_ms", "ms"),
    ("dnn.checkpoint_load_ms", "ms"),
    // nautilus-tensor.
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_calls", "count"),
    ("tensor.gemm_pack_mb", "MB"),
    ("tensor.scratch_hit_ratio", "ratio"),
    ("tensor.conv_fwd_gflops", "GFLOP/s"),
    ("tensor.conv_bwd_gflops", "GFLOP/s"),
    // nautilus-util: pool, http, json.
    ("util.pool.tasks", "count"),
    ("util.pool.steals", "count"),
    ("util.pool.parks", "count"),
    ("util.http.connect_us_p50", "us"),
    ("util.http.write_us_p50", "us"),
    ("util.http.read_us_p50", "us"),
    ("util.http.parse_us", "us"),
    ("util.http.encode_us", "us"),
    ("util.json.parse_us", "us"),
    ("util.http.healthz_us_p50", "us"),
    // nautilus-serve: server, batcher, registry.
    ("serve.latency_p99_ms", "ms"),
    ("serve.first_byte_us_p50", "us"),
    ("serve.first_byte_us_p99", "us"),
    ("serve.batcher.predict_us_p50", "us"),
    ("serve.batcher.batch_size_mean", "count"),
    ("serve.batcher.trunk_batch_mean", "count"),
    ("serve.server.request_us_p50", "us"),
    ("serve.server.batch_us_p50", "us"),
    ("serve.server.shed", "count"),
    ("serve.registry.get_ns", "ns"),
    ("serve.registry.fault_in_us_p50", "us"),
    ("serve.registry.fault_in_ratio", "ratio"),
    ("serve.registry.evictions", "count"),
    ("serve.registry.dedup_ratio", "ratio"),
    ("publish_p50_ms", "ms"),
    // The generator itself: is the latency sample valid?
    ("loadgen.sent", "count"),
    ("loadgen.ok", "count"),
    ("loadgen.connects", "count"),
    ("loadgen.max_late_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.achieved_rps", "1/s"),
    // The traced run's own headline, so tracing overhead is
    // `trace.p50_ms / p50_ms - 1` against an untraced run.
    ("trace.p50_ms", "ms"),
    ("trace.spans", "count"),
];

/// Per-layer metrics that are exact counts: two runs of one seed must agree
/// on them to the last digit.
pub const EXACT_COUNTS: &[&str] = &[
    "core.flops",
    "disk_mb",
    "store.write_mb",
    "store.disk_read_mb",
    "store.cached_read_mb",
];

/// Collects metric values by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, u64)>);

impl Metrics {
    /// Records `value`, computed from `samples` observations.
    ///
    /// # Panics
    /// When `name` is in neither catalogue — a typo in this program.
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric '{name}' is not in the catalogue"
        );
        self.0.insert(name, (value, samples));
    }

    /// Every metric of `catalogue`, in catalogue order. Missing ones read 0
    /// (a layer the workload does not exercise); a non-finite value (a
    /// percentile that landed on failed requests) reads `f64::MAX`.
    pub fn in_catalogue(&self, catalogue: &[(&str, &str)]) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|(name, unit)| {
                let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name: (*name).to_string(),
                    value: if value.is_finite() { value } else { f64::MAX },
                    unit: (*unit).to_string(),
                    samples,
                }
            })
            .collect()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// Value as measured, all digits.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// Observations behind the value.
    pub samples: u64,
}
json_struct!(Metric {
    name,
    value,
    unit,
    samples
});

/// One correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, one line.
    pub detail: String,
}
json_struct!(Check { name, ok, detail });

impl Check {
    /// Builds a check.
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }
}

/// The machine and build a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// Width of the shared worker pool.
    pub pool_threads: u64,
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// GEMM microkernel selected by `gemm::kernel_info()`.
    pub gemm_kernel: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
}
json_struct!(Env {
    nproc,
    pool_threads,
    cpu_model,
    gemm_kernel,
    git_sha
});

impl Env {
    /// Reads the current machine.
    pub fn detect() -> Env {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let git_sha = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let (kernel, _) = nautilus_tensor::ops::gemm::kernel_info();
        Env {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            pool_threads: nautilus_util::pool::num_threads() as u64,
            cpu_model,
            gemm_kernel: kernel.as_str().to_string(),
            git_sha,
        }
    }
}

/// Everything one run of one workload reports.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring window, seconds.
    pub seconds: f64,
    /// Whether this was the traced run (per-layer metrics) or the timed one.
    pub traced: bool,
    /// Where it ran.
    pub env: Env,
    /// Every check held and nothing failed.
    pub correct: bool,
    /// Operations attempted (fits, requests, hot swaps).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// The correctness checks that ran.
    pub checks: Vec<Check>,
    /// FNV-1a digest of every accuracy / sampled-output bit pattern, so a
    /// numerics change is visible; never a failure by itself.
    pub digest: String,
    /// Training workloads: per cycle, the bit patterns of the candidates'
    /// validation accuracies (candidate order). Empty on serving workloads.
    pub accuracy_bits: Vec<Vec<u32>>,
}
json_struct!(RunResult {
    workload,
    seed,
    seconds,
    traced,
    env,
    correct,
    attempted,
    failed,
    metrics,
    checks,
    digest,
    accuracy_bits
});

impl RunResult {
    /// Failed ÷ attempted.
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics` (`name -> {value, unit}`).
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", self.attempted.to_json()),
            ("failed", self.failed.to_json()),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::Str(m.unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .to_string()
    }

    /// Every metric by name with unit and sample count, then the checks.
    pub fn human_table(&self) -> String {
        let mut out = format!(
            "# {} seed={} seconds={} {} | nproc={} pool={} kernel={} cpu=\"{}\" git={}\n",
            self.workload,
            self.seed,
            self.seconds,
            if self.traced { "traced" } else { "timed" },
            self.env.nproc,
            self.env.pool_threads,
            self.env.gemm_kernel,
            self.env.cpu_model,
            self.env.git_sha,
        );
        // n = 0 marks a layer this workload does not exercise.
        for m in self.metrics.iter().filter(|m| m.samples > 0) {
            out.push_str(&format!(
                "{:<36} {:>16.6} {:<8} n={}\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        out.push_str(&format!(
            "{:<36} {:>16.6} {:<8} n={}\n",
            "fail_share",
            self.fail_share(),
            "ratio",
            self.attempted
        ));
        for c in &self.checks {
            out.push_str(&format!(
                "check {:<30} {} {}\n",
                c.name,
                if c.ok { "ok  " } else { "FAIL" },
                c.detail
            ));
        }
        out.push_str(&format!("digest {}\n", self.digest));
        out
    }
}

/// FNV-1a over a stream of 32-bit patterns.
pub fn digest_bits(bits: impl IntoIterator<Item = u32>) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bits {
        for byte in b.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of every regular file under `dir` (0 if it does not exist).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_util::json::{from_slice, to_vec};

    fn sample() -> RunResult {
        let mut m = Metrics::default();
        m.set("setup_s", 0.041_234_567_891, 9);
        m.set("p50_ms", 1.25, 2880);
        m.set("tail_ms", f64::INFINITY, 2880);
        RunResult {
            workload: "serve_open".into(),
            seed: u64::MAX,
            seconds: 12.0,
            traced: false,
            env: Env {
                nproc: 2,
                pool_threads: 2,
                cpu_model: "Some \"CPU\" @ 2.10GHz".into(),
                gemm_kernel: "safe".into(),
                git_sha: "unknown".into(),
            },
            correct: true,
            attempted: 4000,
            failed: 0,
            metrics: m.in_catalogue(END_TO_END),
            checks: vec![Check::new("served_outputs", true, "250 sampled, 0 differ")],
            digest: digest_bits([1, 2, 3]),
            accuracy_bits: vec![vec![0.5f32.to_bits(), 1.0f32.to_bits()], vec![]],
        }
    }

    #[test]
    fn result_round_trips_through_the_in_tree_json() {
        let r = sample();
        let back: RunResult = from_slice(&to_vec(&r)).unwrap();
        assert_eq!(back, r);
        // Missing metrics read 0 and infinities are clamped, so every value
        // survives as a number.
        assert_eq!(r.metric("rate_per_s"), Some(0.0));
        assert_eq!(r.metric("tail_ms"), Some(f64::MAX));
        assert_eq!(r.metric("setup_s"), Some(0.041_234_567_891));
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = sample().contract_line();
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = json.get("metrics").unwrap().as_obj().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            END_TO_END.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        let p50 = json.get("metrics").unwrap().get("p50_ms").unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        assert_eq!(p50.as_obj().unwrap().len(), 2);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_are_a_bug() {
        Metrics::default().set("no.such.metric", 1.0, 1);
    }

    /// `BENCHMARK.json` and the catalogue name the same metrics with the same
    /// units, in the same order, and the five workloads.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        for name in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
        }
    }
}
