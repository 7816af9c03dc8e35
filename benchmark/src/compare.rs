//! `compare A B` — two result sets against the bounds in `BENCHMARK.json` —
//! and the checks of `all` that need more than one run.

use crate::result::{RunResult, EXACT_COUNTS, PER_LAYER};
use crate::{stats, training, WORKLOADS};
use nautilus_util::json::Json;
use std::fmt::Write as _;
use std::path::Path;

/// Every result file (`*.timed.json`, `*.traced.json`) under `dir`.
pub fn load_set(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".timed.json") || name.ends_with(".traced.json")
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let bytes = std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))?;
            nautilus_util::json::from_slice(&bytes).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

fn values(set: &[RunResult], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| r.metric(metric))
        .collect()
}

/// The runs' own spread as a share of their median: interquartile range with
/// four runs or more, full range below that.
fn spread(v: &[f64]) -> f64 {
    let med = stats::median(v);
    if med == 0.0 || v.len() < 2 {
        return 0.0;
    }
    if v.len() >= 4 {
        return stats::iqr_share(v).unwrap_or(0.0);
    }
    let s = stats::sorted(v);
    (s[s.len() - 1] - s[0]) / med.abs()
}

fn describe(v: &[f64]) -> String {
    let med = stats::median(v);
    match stats::quartiles(v) {
        Some((q1, _, q3)) if v.len() >= 4 => format!("{med:.4} [{q1:.4}, {q3:.4}] n={}", v.len()),
        _ => format!("{med:.4} n={}", v.len()),
    }
}

/// One end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(spec: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", spec.display()))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", spec.display()))?
        .iter()
        .map(|m| {
            Some(Bound {
                name: m.get("name")?.as_str()?.to_string(),
                lower_is_better: m.get("better")?.as_str()? == "lower",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{}: malformed end_to_end entry", spec.display()))
}

/// Compares result set `b` (the change) against `a` (the base). Returns the
/// report and whether every end-to-end row is within its bound and no
/// workload's fail share rose.
pub fn compare(a: &Path, b: &Path, spec: &Path) -> Result<(String, bool), String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let bounds = bounds(spec)?;
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>34} {:>34} {:>9} {:>6}  status",
        "workload", "metric", "A: median [q1, q3]", "B: median [q1, q3]", "B vs A", "bound"
    );
    for workload in WORKLOADS {
        for bound in &bounds {
            let va = values(&set_a, workload, false, &bound.name);
            let vb = values(&set_b, workload, false, &bound.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{workload}/{}: each set needs at least one timed run",
                    bound.name
                ));
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let change = (mb - ma) / ma;
            let worse_by = if bound.lower_is_better {
                change
            } else {
                -change
            };
            let status = if worse_by > bound.bound {
                ok = false;
                "WORSE"
            } else if spread(&va).max(spread(&vb)) > bound.bound {
                "unresolved"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "{workload:<14} {:<12} {:>34} {:>34} {:>+8.2}% {:>5.0}%  {status}",
                bound.name,
                describe(&va),
                describe(&vb),
                change * 100.0,
                bound.bound * 100.0
            );
        }
        let share = |set: &[RunResult]| {
            let runs: Vec<&RunResult> = set.iter().filter(|r| r.workload == workload).collect();
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            failed as f64 / attempted.max(1) as f64
        };
        let (fa, fb) = (share(&set_a), share(&set_b));
        let rose = fb > fa;
        ok &= !rose;
        let _ = writeln!(
            out,
            "{workload:<14} {:<12} {fa:>34.6} {fb:>34.6} {:>16}  {}",
            "fail_share",
            "",
            if rose { "WORSE" } else { "ok" }
        );
    }
    let _ = writeln!(
        out,
        "\nper-layer medians (traced runs; no bound; change is B vs A, base A):"
    );
    for workload in WORKLOADS {
        for (name, unit) in PER_LAYER {
            let va = values(&set_a, workload, true, name);
            let vb = values(&set_b, workload, true, name);
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            if va.is_empty() || vb.is_empty() || (ma == 0.0 && mb == 0.0) {
                continue;
            }
            let change = if ma == 0.0 {
                f64::NAN
            } else {
                (mb - ma) / ma * 100.0
            };
            let _ = writeln!(
                out,
                "{workload:<14} {name:<36} {ma:>16.4} {mb:>16.4} {unit:<8} {change:>+8.2}%"
            );
        }
    }
    Ok((out, ok))
}

/// The checks that need several runs of one result set: cycle accuracies
/// bit-identical between the two FTR-2 strategies, the paper's speedup above
/// 1, exact counts repeating per seed, plus tracing overhead per workload.
pub fn cross_checks(set: &[RunResult], seed: u64) -> (String, bool) {
    let mut report = Report {
        text: String::new(),
        ok: true,
    };

    let bits = |workload: &str| {
        set.iter()
            .find(|r| r.workload == workload && r.seed == seed && !r.accuracy_bits.is_empty())
            .map(|r| r.accuracy_bits.clone())
    };
    if let (Some(nautilus), Some(current)) = (bits("ftr2_nautilus"), bits("ftr2_current")) {
        let shared = training::SHARED_CYCLES
            .min(nautilus.len())
            .min(current.len());
        report.check(
            "ftr2_strategies_bit_identical",
            shared > 0 && nautilus[..shared] == current[..shared],
            format!("cycles 1-{shared}, all candidates, seed {seed}"),
        );
    }

    let current = values(set, "ftr2_current", false, "p50_ms");
    let shared = values(set, "ftr2_nautilus", true, "core.cycles_1to3_s");
    if !current.is_empty() && !shared.is_empty() {
        let (base, ours) = (stats::median(&current) / 1e3, stats::median(&shared));
        report.check(
            "paper.speedup_ftr2",
            ours > 0.0 && base / ours > 1.0,
            format!(
                "{:.2}x = ftr2_current cycles {base:.3} s / ftr2_nautilus cycles 1-{} {ours:.3} s",
                base / ours,
                training::SHARED_CYCLES
            ),
        );
    }

    for workload in WORKLOADS {
        let traced: Vec<&RunResult> = set
            .iter()
            .filter(|r| r.workload == workload && r.traced && r.seed == seed)
            .collect();
        for name in EXACT_COUNTS {
            let v: Vec<f64> = traced.iter().filter_map(|r| r.metric(name)).collect();
            if v.len() >= 2 {
                report.check(
                    &format!("exact:{name}"),
                    v.iter().all(|x| x.to_bits() == v[0].to_bits()),
                    format!("{workload}: {} over {} runs of seed {seed}", v[0], v.len()),
                );
            }
        }
        let timed = values(set, workload, false, "p50_ms");
        let under_trace = values(set, workload, true, "trace.p50_ms");
        if !timed.is_empty() && !under_trace.is_empty() {
            let (t, u) = (stats::median(&timed), stats::median(&under_trace));
            let _ = writeln!(
                report.text,
                "trace.overhead_pct {workload:<14} {:>+7.2} %  (traced p50 {u:.4} ms / untraced {t:.4} ms - 1)",
                (u / t - 1.0) * 100.0
            );
        }
    }
    let failed: u64 = set.iter().map(|r| r.failed).sum();
    report.check(
        "fail_share_zero",
        failed == 0,
        format!("{failed} failed operations in {} runs", set.len()),
    );
    report.check(
        "every_run_correct",
        set.iter().all(|r| r.correct),
        format!(
            "{} of {} runs correct",
            set.iter().filter(|r| r.correct).count(),
            set.len()
        ),
    );
    (report.text, report.ok)
}

struct Report {
    text: String,
    ok: bool,
}

impl Report {
    fn check(&mut self, name: &str, holds: bool, detail: String) {
        self.ok &= holds;
        let verdict = if holds { "ok  " } else { "FAIL" };
        let _ = writeln!(self.text, "check {name:<30} {verdict} {detail}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{Env, Metric};

    fn result(workload: &str, run: usize, traced: bool, metrics: &[(&str, f64)]) -> RunResult {
        RunResult {
            workload: workload.into(),
            seed: 1,
            seconds: 12.0,
            traced,
            env: Env {
                nproc: 2,
                pool_threads: 2,
                cpu_model: "cpu".into(),
                gemm_kernel: "safe".into(),
                git_sha: format!("run{run}"),
            },
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: metrics
                .iter()
                .map(|(n, v)| Metric {
                    name: (*n).into(),
                    value: *v,
                    unit: "x".into(),
                    samples: 1,
                })
                .collect(),
            checks: vec![],
            digest: String::new(),
            accuracy_bits: vec![],
        }
    }

    fn write_set(dir: &Path, p50: &[f64], rate: f64) {
        std::fs::create_dir_all(dir).unwrap();
        for workload in WORKLOADS {
            for (run, &p) in p50.iter().enumerate() {
                let r = result(
                    workload,
                    run,
                    false,
                    &[
                        ("setup_s", 0.05),
                        ("p50_ms", p),
                        ("tail_ms", 2.0 * p),
                        ("rate_per_s", rate),
                        ("peak_rss_mb", 40.0),
                    ],
                );
                let path = dir.join(format!("{workload}.seed1.run{run}.timed.json"));
                std::fs::write(path, nautilus_util::json::to_string_pretty(&r)).unwrap();
            }
        }
    }

    #[test]
    fn compare_flags_regressions_and_noisy_sets() {
        let root =
            std::env::temp_dir().join(format!("nautilus-benchmark-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let spec = root.join("BENCHMARK.json");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(
            &spec,
            r#"{"end_to_end": [
                {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
                {"name": "tail_ms", "unit": "ms", "better": "lower", "bound": 0.2},
                {"name": "rate_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let (base, same, slow, noisy, starved) = (
            root.join("a"),
            root.join("b"),
            root.join("c"),
            root.join("d"),
            root.join("e"),
        );
        write_set(&base, &[1.00, 1.01, 0.99, 1.02], 1000.0);
        write_set(&same, &[1.01, 1.00, 1.02, 0.99], 990.0);
        write_set(&slow, &[1.20, 1.21, 1.19, 1.22], 1000.0);
        write_set(&noisy, &[0.80, 1.00, 1.20, 1.05], 1000.0);
        write_set(&starved, &[1.00, 1.01, 0.99, 1.02], 800.0);

        let (report, ok) = compare(&base, &same, &spec).unwrap();
        assert!(ok, "{report}");
        assert!(
            !report.contains("unresolved") && !report.contains("WORSE"),
            "{report}"
        );

        let (report, ok) = compare(&base, &slow, &spec).unwrap();
        assert!(!ok && report.contains("WORSE"), "{report}");
        // "higher is better" regresses downwards.
        let (report, ok) = compare(&base, &starved, &spec).unwrap();
        assert!(!ok && report.contains("WORSE"), "{report}");
        // ... and a faster change is not a regression.
        assert!(compare(&slow, &base, &spec).unwrap().1);

        let (report, ok) = compare(&base, &noisy, &spec).unwrap();
        assert!(ok && report.contains("unresolved"), "{report}");

        // A risen fail share fails the comparison even with equal timings.
        let mut failing = result(
            "serve_open",
            9,
            false,
            &[
                ("setup_s", 0.05),
                ("p50_ms", 1.0),
                ("tail_ms", 2.0),
                ("rate_per_s", 1000.0),
                ("peak_rss_mb", 40.0),
            ],
        );
        failing.failed = 1;
        std::fs::write(
            same.join("serve_open.seed1.run9.timed.json"),
            nautilus_util::json::to_string_pretty(&failing),
        )
        .unwrap();
        assert!(!compare(&base, &same, &spec).unwrap().1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cross_checks_need_equal_bits_and_a_speedup() {
        let mut nautilus = result("ftr2_nautilus", 0, false, &[("p50_ms", 2900.0)]);
        nautilus.accuracy_bits = vec![vec![1, 2], vec![3, 4], vec![5, 6], vec![7, 8]];
        let mut current = result("ftr2_current", 0, false, &[("p50_ms", 3500.0)]);
        current.accuracy_bits = vec![vec![1, 2], vec![3, 4], vec![5, 6]];
        let traced = |flops: f64| {
            result(
                "ftr2_nautilus",
                0,
                true,
                &[
                    ("core.cycles_1to3_s", 1.2),
                    ("core.flops", flops),
                    ("trace.p50_ms", 2958.0),
                ],
            )
        };
        let set = vec![nautilus.clone(), current.clone(), traced(5e9), traced(5e9)];
        let (report, ok) = cross_checks(&set, 1);
        assert!(ok, "{report}");
        assert!(report.contains("2.92x"), "{report}");
        assert!(report.contains("+2.00 %"), "{report}");

        current.accuracy_bits[2][1] ^= 1;
        let (report, ok) = cross_checks(&[nautilus.clone(), current, traced(5e9)], 1);
        assert!(
            !ok && report.contains("FAIL ftr2_strategies_bit_identical") || report.contains("FAIL"),
            "{report}"
        );

        let (_, ok) = cross_checks(&[traced(5e9), traced(5e9 + 1024.0)], 1);
        assert!(!ok, "exact counts must repeat");
    }
}
