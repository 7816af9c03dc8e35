//! Multi-process loopback integration: distributed selection is
//! bit-identical to a single box, and survives a worker death mid-lease.
//!
//! Workers run as real subprocesses of the `nautilus-dist` binary (Cargo
//! exposes its path via `CARGO_BIN_EXE_nautilus-dist`), so this exercises
//! the full stack: process spawn, HTTP over loopback, framed wire codec,
//! worker-side plan rebuild, and the coordinator's lease/retry scheduler.

use nautilus_core::metrics::CycleReport;
use nautilus_core::session::{CycleInput, ModelSelection};
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{BackendKind, CandidateModel, Strategy, SystemConfig};
use nautilus_data::Dataset;
use nautilus_dist::{run_search, DistJob};
use nautilus_dnn::{ModelGraph, NodeId};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

struct WorkerProc {
    child: Child,
    addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn spawn_worker(workdir: PathBuf, crash_after_trains: Option<u64>) -> WorkerProc {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_nautilus-dist"));
    cmd.arg("worker")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--workdir")
        .arg(&workdir)
        .stdout(Stdio::piped());
    if let Some(n) = crash_after_trains {
        cmd.arg("--crash-after-trains").arg(n.to_string());
    }
    let mut child = cmd.spawn().expect("worker spawns");
    let stdout = child.stdout.take().expect("worker stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout).read_line(&mut line).expect("LISTEN line");
    let addr = line.trim().strip_prefix("LISTEN ").expect("LISTEN prefix").to_string();
    WorkerProc { child, addr }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nautilus-dist-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn workload() -> (Vec<CandidateModel>, Dataset, Dataset) {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(3);
    let pool = spec.ner_config().generate(60);
    let (train, valid) = pool.split_at(48);
    (candidates, train, valid)
}

type AccBits = Vec<(String, Option<u32>)>;

fn bits(acc: &[(String, Option<f32>)]) -> AccBits {
    acc.iter().map(|(n, a)| (n.clone(), a.map(f32::to_bits))).collect()
}

/// Every parameter of `g`, as bits.
fn param_bits(g: &ModelGraph) -> Vec<Vec<u32>> {
    (0..g.len())
        .flat_map(|i| &g.node(NodeId(i)).params)
        .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn single_box_session(
    candidates: &[CandidateModel],
    config: SystemConfig,
    strategy: Strategy,
    train: &Dataset,
    valid: &Dataset,
    dir: PathBuf,
) -> (ModelSelection, CycleReport) {
    let mut session =
        ModelSelection::new(candidates.to_vec(), config, strategy, BackendKind::Real, dir)
            .expect("session initializes");
    let report = session
        .fit(CycleInput::Real { train: train.clone(), valid: valid.clone() })
        .expect("cycle runs");
    (session, report)
}

fn single_box(
    candidates: &[CandidateModel],
    strategy: Strategy,
    train: &Dataset,
    valid: &Dataset,
    dir: PathBuf,
) -> (AccBits, Option<(String, u32)>) {
    let (_, report) =
        single_box_session(candidates, SystemConfig::tiny(), strategy, train, valid, dir);
    (bits(&report.accuracies), report.best.map(|(n, a)| (n, a.to_bits())))
}

#[test]
fn distributed_selection_is_bit_identical_to_single_box() {
    let dir = scratch("ident");
    let (candidates, train, valid) = workload();

    // Ground truth; CurrentPractice yields three independent units, so two
    // workers genuinely interleave shards.
    let (sb_acc, sb_best) = single_box(
        &candidates,
        Strategy::CurrentPractice,
        &train,
        &valid,
        dir.join("single"),
    );

    let w1 = spawn_worker(dir.join("w1"), None);
    let w2 = spawn_worker(dir.join("w2"), None);
    let job = DistJob {
        candidates: candidates.clone(),
        config: SystemConfig::tiny(),
        strategy: Strategy::CurrentPractice,
        train: train.clone(),
        valid: valid.clone(),
    };
    let rep = run_search(&job, &[w1.addr.clone(), w2.addr.clone()], &dir.join("coord"))
        .expect("distributed run succeeds");

    assert_eq!(rep.units, 3, "current practice shards one unit per candidate");
    assert_eq!(bits(&rep.accuracies), sb_acc, "accuracies must match bit for bit");
    assert_eq!(
        rep.best.map(|(n, a)| (n, a.to_bits())),
        sb_best,
        "best pick must match bit for bit"
    );
    assert!(rep.best_trained.is_some(), "winner's trained graph comes home");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nautilus_strategy_ships_features_and_stays_bit_identical() {
    let dir = scratch("feat");
    let (candidates, train, valid) = workload();
    let w1 = spawn_worker(dir.join("w1"), None);
    let w2 = spawn_worker(dir.join("w2"), None);
    // At `max_records` 16 the 60-record snapshot makes the coordinator's
    // session run the backoff re-plan (`r` ends at 64) before it ships.
    for max_records in [256, 16] {
        let config = SystemConfig::tiny().into_builder().max_records(max_records).build();
        let (session, report) = single_box_session(
            &candidates,
            config.clone(),
            Strategy::Nautilus,
            &train,
            &valid,
            dir.join(format!("single-{max_records}")),
        );
        let sb_acc = bits(&report.accuracies);
        let sb_best = report.best.clone().map(|(n, a)| (n, a.to_bits()));

        let job = DistJob {
            candidates: candidates.clone(),
            config,
            strategy: Strategy::Nautilus,
            train: train.clone(),
            valid: valid.clone(),
        };
        let coord = dir.join(format!("coord-{max_records}"));
        let rep = run_search(&job, &[w1.addr.clone(), w2.addr.clone()], &coord)
            .expect("distributed run succeeds");
        assert_eq!(bits(&rep.accuracies), sb_acc);
        assert_eq!(rep.best.map(|(n, a)| (n, a.to_bits())), sb_best);

        assert_eq!(session.max_records(), if max_records == 16 { 64 } else { 256 });
        assert_eq!(rep.units, session.units().len(), "r {max_records}: unit count");
        assert_eq!(rep.total_flops, report.stats.flops, "r {max_records}: FLOPs exactly");
        let (ci, exported) = session.export_best().expect("single box exports");
        assert_eq!(rep.best_candidate, Some(ci));
        let trained = rep.best_trained.as_ref().expect("winner's trained graph comes home");
        assert_eq!(param_bits(trained), param_bits(&exported), "r {max_records}: params");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_death_mid_lease_reassigns_and_answer_is_unchanged() {
    let dir = scratch("kill");
    let (candidates, train, valid) = workload();
    let (sb_acc, _) = single_box(
        &candidates,
        Strategy::CurrentPractice,
        &train,
        &valid,
        dir.join("single"),
    );

    // First worker dies on its first train request — after accepting the
    // lease, before replying. The survivor must absorb its shards.
    let w_crash = spawn_worker(dir.join("wc"), Some(0));
    let w_ok = spawn_worker(dir.join("wk"), None);
    let job = DistJob {
        candidates,
        config: SystemConfig::tiny(),
        strategy: Strategy::CurrentPractice,
        train,
        valid,
    };
    let rep = run_search(&job, &[w_crash.addr.clone(), w_ok.addr.clone()], &dir.join("coord"))
        .expect("run survives the worker death");

    assert!(rep.retries >= 1, "the broken lease must be retried");
    assert_eq!(rep.workers_alive, 1, "the crashed worker leaves the pool");
    assert_eq!(bits(&rep.accuracies), sb_acc, "recovery must not change the answer");
    let _ = std::fs::remove_dir_all(&dir);
}
