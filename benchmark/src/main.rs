//! `nautilus-benchmark`: the repo's end-to-end benchmark.
//!
//! Five workloads drive the system through its public APIs only
//! (`ModelSelection::{new,fit}`, `Server::start_with`,
//! `ModelRegistry::{publish,get,evict}`, loopback HTTP). See `README.md` for
//! the metric and workload tables and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! nautilus-benchmark [run] --workload W --seed N --seconds S --trace 0|1 [--out-dir D] [--quick]
//! nautilus-benchmark all [--seed N] [--runs K] [--seconds S] [--quick] --out-dir D
//! nautilus-benchmark compare A B [--spec BENCHMARK.json]
//! ```

mod compare;
mod loadgen;
mod probes;
mod result;
mod serving;
mod spans;
mod stats;
mod training;

use loadgen::TenantChoice;
use nautilus_core::workloads::WorkloadKind;
use nautilus_core::Strategy;
use nautilus_util::telemetry;
use result::{Check, Env, Metrics, RunResult, END_TO_END, PER_LAYER};
use serving::ServeSpec;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use training::TrainSpec;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "ftr2_nautilus",
    "ftr2_current",
    "ftu_nautilus",
    "serve_open",
    "serve_churn",
];

/// Measuring window when `--seconds` is not given (`run_seconds` of
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 16.0;

enum Workload {
    Train(TrainSpec),
    Serve(ServeSpec),
}

fn workload(name: &str) -> Option<Workload> {
    // The two FTR-2 workloads share candidates, seed and data, so their
    // first `training::SHARED_CYCLES` cycles must produce identical bits.
    let ftr2 = |strategy, cycles| TrainSpec {
        kind: WorkloadKind::Ftr2,
        strategy,
        cycles,
        n_train: 24,
        n_valid: 8,
        // 160 accumulated records cross r = 48 twice (at 64 and at 128).
        max_records: 48,
    };
    Some(match name {
        "ftr2_nautilus" => Workload::Train(ftr2(Strategy::Nautilus, 5)),
        "ftr2_current" => Workload::Train(ftr2(Strategy::CurrentPractice, training::SHARED_CYCLES)),
        "ftu_nautilus" => Workload::Train(TrainSpec {
            kind: WorkloadKind::Ftu,
            strategy: Strategy::Nautilus,
            cycles: 2,
            n_train: 16,
            n_valid: 8,
            // The second cycle's 48 records cross r = 32.
            max_records: 32,
        }),
        "serve_open" => Workload::Serve(ServeSpec {
            rate: 400.0,
            choice: TenantChoice::Uniform,
            publish_every: None,
            max_resident: None,
        }),
        "serve_churn" => Workload::Serve(ServeSpec {
            rate: 400.0,
            choice: TenantChoice::Zipf(1.0),
            publish_every: Some(100),
            // The working set is 4x the registry's own cache.
            max_resident: Some(4),
        }),
        _ => return None,
    })
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Input seed.
    pub seed: u64,
    /// Measuring window, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed one.
    pub traced: bool,
    /// Smoke mode: every code path, no gated numbers.
    pub quick: bool,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values.
    pub metrics: Metrics,
    /// Correctness checks.
    pub checks: Vec<Check>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Digest of output bit patterns.
    pub digest: String,
    /// Per-cycle accuracy bits (training workloads).
    pub accuracy_bits: Vec<Vec<u32>>,
}

impl Outcome {
    /// Ends a run that cannot continue: records why as a failed check.
    pub fn abort(mut self, why: String) -> Outcome {
        self.failed = self.failed.max(1);
        self.attempted = self.attempted.max(1);
        self.checks
            .push(Check::new("workload_completed", false, why));
        self
    }
}

/// Scratch space lives next to the executable — inside the target directory,
/// so always inside the checkout and always git-ignored — and is removed when
/// the run ends. Nothing is written anywhere else.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join(format!("nautilus-benchmark-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn result_file(out_dir: &Path, name: &str, seed: u64, run: usize, traced: bool) -> PathBuf {
    let kind = if traced { "traced" } else { "timed" };
    out_dir.join(format!("{name}.seed{seed}.run{run}.{kind}.json"))
}

/// Runs one workload in this process and prints its result.
fn run_one(name: &str, opts: &RunOpts, out_dir: Option<&Path>, run: usize) -> Result<bool, String> {
    let spec = workload(name).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    if opts.traced {
        spans::enable();
        // Only to read the program's existing public counters.
        telemetry::enable_metrics();
    } else if telemetry::enabled()
        || telemetry::metrics_enabled()
        || std::env::var_os("NAUTILUS_TRACE").is_some()
    {
        return Err("the timed run needs telemetry off: unset NAUTILUS_TRACE".into());
    }
    let scratch = Scratch::new()?;
    let mut outcome = match &spec {
        Workload::Train(t) => training::run(t, opts, &scratch.0),
        Workload::Serve(s) => serving::run(s, opts, &scratch.0),
    };
    if !opts.traced && (telemetry::enabled() || telemetry::metrics_enabled()) {
        outcome.checks.push(Check::new(
            "telemetry_stayed_off",
            false,
            "something enabled it",
        ));
    }
    if opts.traced {
        let recorded = spans::snapshot();
        outcome.metrics.set("trace.spans", recorded.len() as f64, 1);
        let mut by_self: Vec<_> = spans::totals_by_name(&recorded).into_iter().collect();
        by_self.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
        eprintln!(
            "{:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total ms", "self ms"
        );
        for (span, t) in by_self {
            eprintln!(
                "{span:<28} {:>8} {:>14.3} {:>14.3}",
                t.count,
                t.total_us / 1e3,
                t.self_us / 1e3
            );
        }
        // Without --out-dir the latest trace of each workload is kept beside
        // the executable (inside the target directory, like the scratch space).
        let path = match out_dir {
            Some(dir) => dir.join(format!("{name}.seed{}.run{run}.trace.json", opts.seed)),
            None => scratch
                .0
                .with_file_name(format!("nautilus-benchmark-{name}.trace.json")),
        };
        spans::write_chrome_trace(&recorded, &path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("chrome trace: {}", path.display());
    }
    let correct = outcome.failed == 0 && outcome.checks.iter().all(|c| c.ok);
    let result = RunResult {
        workload: name.to_string(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        env: Env::detect(),
        correct,
        attempted: outcome.attempted.max(1),
        failed: outcome.failed,
        metrics: outcome
            .metrics
            .in_catalogue(if opts.traced { PER_LAYER } else { END_TO_END }),
        checks: outcome.checks,
        digest: outcome.digest,
        accuracy_bits: outcome.accuracy_bits,
    };
    if let Some(dir) = out_dir {
        let path = result_file(dir, name, opts.seed, run, opts.traced);
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, nautilus_util::json::to_string_pretty(&result)))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    print!("{}", result.human_table());
    println!("{}", result.contract_line());
    Ok(correct)
}

/// Flag parser: `--name value` pairs plus bare `--quick`, after `skip` words.
struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    quick: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            positional: Vec::new(),
            flags: Vec::new(),
            quick: false,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("quick") => out.quick = true,
                Some(name) => {
                    let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), value.clone()));
                }
                None => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.flags.iter().rev().find(|(k, _)| k == name) {
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read '{v}'")),
            None => Ok(None),
        }
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }

    fn opts(&self) -> Result<RunOpts, String> {
        let seconds = match self.get::<f64>("seconds")? {
            Some(s) if s > 0.0 && s <= 600.0 => s,
            Some(s) => return Err(format!("--seconds {s}: must be in (0, 600]")),
            None if self.quick => 2.0,
            None => DEFAULT_SECONDS,
        };
        let traced = match self.get::<u8>("trace")? {
            None | Some(0) => false,
            Some(1) => true,
            Some(v) => return Err(format!("--trace {v}: must be 0 or 1")),
        };
        Ok(RunOpts {
            seed: self.get("seed")?.unwrap_or(1),
            seconds,
            traced,
            quick: self.quick,
        })
    }
}

/// `all`: every workload in a fresh child process, timed then traced, `runs`
/// times; then the checks that need more than one run.
fn run_all(args: &Args) -> Result<bool, String> {
    args.known(&["seed", "runs", "seconds", "out-dir"])?;
    let opts = args.opts()?;
    let runs: usize = args.get("runs")?.unwrap_or(1);
    let out_dir: PathBuf = args.get("out-dir")?.ok_or("all needs --out-dir")?;
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for run in 0..runs {
        for name in WORKLOADS {
            for trace in ["0", "1"] {
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(["run", "--workload", name, "--trace", trace])
                    .args(["--seed", &opts.seed.to_string()])
                    .args(["--seconds", &opts.seconds.to_string()])
                    .args(["--run-index", &run.to_string()])
                    .arg("--out-dir")
                    .arg(&out_dir);
                if opts.quick {
                    cmd.arg("--quick");
                }
                let status = cmd.status().map_err(|e| format!("spawn {name}: {e}"))?;
                ok &= status.success();
            }
        }
    }
    let sets = compare::load_set(&out_dir)?;
    let (report, cross_ok) = compare::cross_checks(&sets, opts.seed);
    print!("{report}");
    Ok(ok && cross_ok)
}

fn dispatch(argv: &[String]) -> Result<bool, String> {
    match argv.first().map(String::as_str) {
        Some("all") => run_all(&Args::parse(&argv[1..])?),
        Some("compare") => {
            let args = Args::parse(&argv[1..])?;
            args.known(&["spec"])?;
            let [a, b] = args.positional.as_slice() else {
                return Err("compare needs two result directories".into());
            };
            let spec = match args.get::<PathBuf>("spec")? {
                Some(p) => p,
                None => ["BENCHMARK.json", "../BENCHMARK.json"]
                    .into_iter()
                    .map(PathBuf::from)
                    .find(|p| p.exists())
                    .ok_or("BENCHMARK.json not found here or one level up; pass --spec")?,
            };
            let (report, ok) = compare::compare(Path::new(a), Path::new(b), &spec)?;
            print!("{report}");
            Ok(ok)
        }
        first => {
            let rest = if first == Some("run") {
                &argv[1..]
            } else {
                argv
            };
            let args = Args::parse(rest)?;
            args.known(&[
                "workload",
                "seed",
                "seconds",
                "trace",
                "out-dir",
                "run-index",
            ])?;
            if !args.positional.is_empty() {
                return Err(format!("unexpected argument '{}'", args.positional[0]));
            }
            let name: String = args.get("workload")?.ok_or("--workload is required")?;
            let out_dir: Option<PathBuf> = args.get("out-dir")?;
            let run = args.get("run-index")?.unwrap_or(0);
            run_one(&name, &args.opts()?, out_dir.as_deref(), run)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("nautilus-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
