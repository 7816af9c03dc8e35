//! `nautilus-dist` — distributed execution plane CLI.
//!
//! Subcommands:
//!
//! - `worker --addr HOST:PORT [--workdir DIR] [--threads N]
//!   [--crash-after-trains N]` — run a training worker. Prints
//!   `LISTEN <addr>` on stdout once bound (port 0 picks a free port), then
//!   serves until killed.
//! - `demo` — multi-process loopback demonstration: spawns two workers,
//!   runs one model-selection cycle single-box and distributed, checks the
//!   selection outputs and FLOP counts are identical, exercises worker-kill
//!   recovery, and writes `results/BENCH_dist.json` with shard throughput
//!   and the 2-worker speedup.

use nautilus_dist::{run_search, run_worker, DistJob, DistReport, WorkerOptions};
use nautilus_repro_dist_deps::*;

/// Internal prelude so the binary reads like the examples.
mod nautilus_repro_dist_deps {
    pub use nautilus_core::session::{CycleInput, ModelSelection};
    pub use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
    pub use nautilus_core::{BackendKind, Strategy, SystemConfig};
    pub use nautilus_data::Dataset;
    pub use std::io::{BufRead, Write};
    pub use std::path::PathBuf;
    pub use std::process::{Child, Command, Stdio};
    pub use std::time::Instant;
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("worker") => worker_cmd(&args[1..]),
        Some("demo") => demo_cmd(),
        _ => {
            eprintln!(
                "usage: nautilus-dist worker --addr HOST:PORT [--workdir DIR] [--threads N] \
                 [--crash-after-trains N]\n       nautilus-dist demo"
            );
            2
        }
    };
    std::process::exit(code);
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn worker_cmd(args: &[String]) -> i32 {
    let mut opts = WorkerOptions {
        workdir: std::env::temp_dir().join(format!("nautilus-dist-w{}", std::process::id())),
        ..WorkerOptions::default()
    };
    if let Some(a) = flag(args, "--addr") {
        opts.addr = a;
    }
    if let Some(d) = flag(args, "--workdir") {
        opts.workdir = PathBuf::from(d);
    }
    if let Some(t) = flag(args, "--threads").and_then(|t| t.parse().ok()) {
        opts.threads = t;
    }
    if let Some(n) = flag(args, "--crash-after-trains").and_then(|n| n.parse().ok()) {
        opts.crash_after_trains = Some(n);
    }
    match run_worker(opts) {
        Ok(handle) => {
            println!("LISTEN {}", handle.addr());
            let _ = std::io::stdout().flush();
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
        Err(e) => {
            eprintln!("worker failed to start: {e}");
            1
        }
    }
}

/// Spawns a worker subprocess of this same binary and returns it with its
/// bound address (parsed from the `LISTEN` line).
fn spawn_worker(workdir: &PathBuf, crash_after_trains: Option<u64>) -> (Child, String) {
    let exe = std::env::current_exe().expect("current_exe");
    let mut cmd = Command::new(exe);
    cmd.arg("worker")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workdir")
        .arg(workdir)
        .stdout(Stdio::piped());
    if let Some(n) = crash_after_trains {
        cmd.arg("--crash-after-trains").arg(n.to_string());
    }
    let mut child = cmd.spawn().expect("spawn worker");
    let stdout = child.stdout.take().expect("worker stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout).read_line(&mut line).expect("read LISTEN line");
    let addr = line.trim().strip_prefix("LISTEN ").expect("LISTEN prefix").to_string();
    (child, addr)
}

fn acc_bits(acc: &[(String, Option<f32>)]) -> Vec<(String, Option<u32>)> {
    acc.iter().map(|(n, a)| (n.clone(), a.map(f32::to_bits))).collect()
}

/// One single-box cycle via the ordinary session; the ground truth the
/// distributed run must reproduce bit for bit (accuracies, best pick and
/// the session's FLOP count).
fn single_box(
    candidates: &[nautilus_core::CandidateModel],
    config: &SystemConfig,
    strategy: Strategy,
    train: &Dataset,
    valid: &Dataset,
    workdir: &PathBuf,
) -> (nautilus_core::CycleReport, f64) {
    let t0 = Instant::now();
    let mut session = ModelSelection::new(
        candidates.to_vec(),
        config.clone(),
        strategy,
        BackendKind::Real,
        workdir,
    )
    .expect("session initializes");
    let report = session
        .fit(CycleInput::Real { train: train.clone(), valid: valid.clone() })
        .expect("cycle runs");
    (report, t0.elapsed().as_secs_f64())
}

fn demo_cmd() -> i32 {
    let results_dir =
        PathBuf::from(std::env::var("NAUTILUS_RESULTS").unwrap_or_else(|_| "results".into()));
    let scratch = std::env::temp_dir().join(format!("nautilus-dist-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");

    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(3);
    let pool = spec.ner_config().generate(60);
    let (train, valid) = pool.split_at(48);
    let config = SystemConfig::tiny();

    let mut children: Vec<Child> = Vec::new();
    let mut failures = 0usize;

    // --- Part 1: bit-identity under Nautilus (materialized features ship
    // over the wire) with two workers. ---
    let (c1, w1) = spawn_worker(&scratch.join("w1"), None);
    let (c2, w2) = spawn_worker(&scratch.join("w2"), None);
    children.extend([c1, c2]);
    println!("workers: {w1} {w2}");

    let (sb, _) =
        single_box(&candidates, &config, Strategy::Nautilus, &train, &valid, &scratch.join("sb-n"));
    let job = DistJob {
        candidates: candidates.clone(),
        config: config.clone(),
        strategy: Strategy::Nautilus,
        train: train.clone(),
        valid: valid.clone(),
    };
    let rep = run_search(&job, &[w1.clone(), w2.clone()], &scratch.join("co-n"))
        .expect("distributed nautilus run");
    let nautilus_identical = acc_bits(&sb.accuracies) == acc_bits(&rep.accuracies)
        && best_bits(&sb.best) == best_bits(&rep.best)
        && rep.total_flops == sb.stats.flops;
    println!(
        "nautilus strategy: {} units, bit-identical = {nautilus_identical}",
        rep.units
    );
    if !nautilus_identical {
        failures += 1;
    }

    // --- Part 2: shard throughput + 2-worker speedup under Current
    // Practice (three independent units — real parallelism). ---
    let (cp, t_single) = single_box(
        &candidates,
        &config,
        Strategy::CurrentPractice,
        &train,
        &valid,
        &scratch.join("sb-cp"),
    );
    let job_cp = DistJob { strategy: Strategy::CurrentPractice, ..job.clone() };
    let t0 = Instant::now();
    let rep1 = run_search(&job_cp, &[w1.clone()], &scratch.join("co-cp1")).expect("1-worker run");
    let t_one = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let rep2 = run_search(&job_cp, &[w1.clone(), w2.clone()], &scratch.join("co-cp2"))
        .expect("2-worker run");
    let t_two = t0.elapsed().as_secs_f64();
    let cp_identical = acc_bits(&cp.accuracies) == acc_bits(&rep1.accuracies)
        && acc_bits(&cp.accuracies) == acc_bits(&rep2.accuracies)
        && best_bits(&cp.best) == best_bits(&rep2.best)
        && rep1.total_flops == cp.stats.flops
        && rep2.total_flops == cp.stats.flops;
    println!(
        "current practice: {} units; single-box {t_single:.2}s, 1-worker {t_one:.2}s, \
         2-worker {t_two:.2}s, bit-identical = {cp_identical}",
        rep2.units
    );
    if !cp_identical {
        failures += 1;
    }

    // --- Part 3: worker-kill recovery. A worker that dies mid-lease must
    // have its shard reassigned; the answer must not change. ---
    let (c3, w3) = spawn_worker(&scratch.join("w3"), Some(0));
    children.push(c3);
    let rep_kill = run_search(&job_cp, &[w3.clone(), w1.clone()], &scratch.join("co-kill"))
        .expect("kill-recovery run");
    let kill_identical = acc_bits(&cp.accuracies) == acc_bits(&rep_kill.accuracies)
        && rep_kill.total_flops == cp.stats.flops;
    let recovered = rep_kill.retries >= 1 && kill_identical;
    println!(
        "kill recovery: retries = {}, lease_timeouts = {}, workers left = {}, \
         bit-identical = {kill_identical}",
        rep_kill.retries, rep_kill.lease_timeouts, rep_kill.workers_alive
    );
    if !recovered {
        failures += 1;
    }

    write_bench(
        &results_dir,
        &rep,
        &rep2,
        &rep_kill,
        t_single,
        t_one,
        t_two,
        nautilus_identical && cp_identical && kill_identical,
    );

    for mut c in children {
        let _ = c.kill();
        let _ = c.wait();
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if failures == 0 {
        println!("dist demo OK");
        0
    } else {
        eprintln!("dist demo FAILED: {failures} check(s)");
        1
    }
}

fn best_bits(best: &Option<(String, f32)>) -> Option<(String, u32)> {
    best.as_ref().map(|(n, a)| (n.clone(), a.to_bits()))
}

#[allow(clippy::too_many_arguments)]
fn write_bench(
    results_dir: &PathBuf,
    rep_nautilus: &DistReport,
    rep2: &DistReport,
    rep_kill: &DistReport,
    t_single: f64,
    t_one: f64,
    t_two: f64,
    bit_identical: bool,
) {
    std::fs::create_dir_all(results_dir).expect("results dir");
    let bytes2: u64 = rep2.shard_stats.iter().map(|s| s.bytes_shipped).sum();
    let json = format!(
        "{{\n  \"bench\": \"dist\",\n  \"workers\": 2,\n  \"units\": {},\n  \
         \"bit_identical\": {},\n  \"single_box_secs\": {:.6},\n  \
         \"dist_1worker_secs\": {:.6},\n  \"dist_2worker_secs\": {:.6},\n  \
         \"speedup_2_over_1\": {:.4},\n  \"shard_throughput_per_sec\": {:.4},\n  \
         \"bytes_shipped\": {},\n  \"net_probe_bytes_per_sec\": {:.1},\n  \
         \"nautilus_units\": {},\n  \"kill_recovery_retries\": {},\n  \
         \"kill_recovery_lease_timeouts\": {}\n}}\n",
        rep2.units,
        bit_identical,
        t_single,
        t_one,
        t_two,
        t_one / t_two.max(1e-9),
        rep2.units as f64 / rep2.train_secs.max(1e-9),
        bytes2,
        rep2.net_bytes_per_sec,
        rep_nautilus.units,
        rep_kill.retries,
        rep_kill.lease_timeouts,
    );
    let path = results_dir.join("BENCH_dist.json");
    std::fs::write(&path, json).expect("write BENCH_dist.json");
    println!("wrote {}", path.display());
}
