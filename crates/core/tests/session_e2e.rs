//! End-to-end session tests: every strategy over multiple labeling cycles,
//! on both backends.

use nautilus_core::backend::Backend;
use nautilus_core::multimodel::MNodeId;
use nautilus_core::session::{
    CycleInput, CycleWork, LocalUnits, ModelSelection, SessionError, UnitExecutor, UnitOutcome,
};
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{BackendKind, Strategy, SystemConfig};
use nautilus_data::Dataset;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

mod twins;

fn workdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "nautilus-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// A small FTR-style workload: 4 candidates (2 strategies × 2 lrs).
fn small_candidates() -> Vec<nautilus_core::CandidateModel> {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut cands = spec.candidates().unwrap();
    cands.truncate(4);
    cands
}

fn tiny_pool(n: usize) -> Dataset {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    spec.ner_config().generate(n)
}

fn run_real(strategy: Strategy, tag: &str) -> Vec<Vec<(String, Option<f32>)>> {
    let mut session = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        strategy,
        BackendKind::Real,
        workdir(tag),
    )
    .unwrap();
    let pool = tiny_pool(60);
    let mut reports = Vec::new();
    for cycle in 0..2 {
        let batch = pool.range(cycle * 30, (cycle + 1) * 30);
        let (train, valid) = batch.split_at(24);
        let r = session.fit(CycleInput::Real { train, valid }).unwrap();
        assert_eq!(r.cycle, cycle + 1);
        assert!(r.best.is_some());
        reports.push(r.accuracies);
    }
    reports
}

#[test]
fn all_strategies_agree_on_accuracy_real_backend() {
    // The paper's Fig 7 claim: Nautilus performs logically equivalent SGD
    // training, so every strategy must produce identical validation
    // accuracies for every candidate in every cycle.
    let baseline = run_real(Strategy::CurrentPractice, "cp");
    for (strategy, tag) in [
        (Strategy::MatAll, "matall"),
        (Strategy::MatOnly, "matonly"),
        (Strategy::FuseOnly, "fuseonly"),
        (Strategy::Nautilus, "nautilus"),
    ] {
        let got = run_real(strategy, tag);
        assert_eq!(baseline.len(), got.len());
        for (cycle, (b, g)) in baseline.iter().zip(&got).enumerate() {
            let mut b = b.clone();
            let mut g = g.clone();
            b.sort_by(|x, y| x.0.cmp(&y.0));
            g.sort_by(|x, y| x.0.cmp(&y.0));
            assert_eq!(b, g, "strategy {strategy:?} cycle {cycle}");
        }
    }
}

#[test]
fn accuracy_improves_with_more_labeled_data() {
    let mut session = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Real,
        workdir("learning"),
    )
    .unwrap();
    let pool = tiny_pool(120);
    let mut best = Vec::new();
    for cycle in 0..3 {
        let batch = pool.range(cycle * 40, (cycle + 1) * 40);
        let (train, valid) = batch.split_at(32);
        let r = session.fit(CycleInput::Real { train, valid }).unwrap();
        best.push(r.best.unwrap().1);
    }
    // Later cycles see more data; accuracy should not collapse and should
    // end above chance (9 tags -> ~0.11 chance; O-tag majority ~0.7).
    assert!(best.last().unwrap() > &0.5, "{best:?}");
}

#[test]
fn simulated_nautilus_beats_current_practice() {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Paper };
    let mut cands = spec.candidates().unwrap();
    cands.truncate(8); // keep the test fast
    let mut times = Vec::new();
    for (strategy, tag) in
        [(Strategy::CurrentPractice, "sim-cp"), (Strategy::Nautilus, "sim-nau")]
    {
        let mut session = ModelSelection::new(
            cands.clone(),
            SystemConfig::default(),
            strategy,
            BackendKind::Simulated,
            workdir(tag),
        )
        .unwrap();
        for _ in 0..3 {
            session.fit(CycleInput::Virtual { n_train: 400, n_valid: 100 }).unwrap();
        }
        times.push(session.stats().elapsed_secs);
    }
    assert!(
        times[1] < times[0] / 1.5,
        "nautilus {}s not well below current practice {}s",
        times[1],
        times[0]
    );
}

#[test]
fn simulated_nautilus_reduces_io() {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Paper };
    let mut cands = spec.candidates().unwrap();
    cands.truncate(6);
    let mut stats = Vec::new();
    for (strategy, tag) in
        [(Strategy::CurrentPractice, "io-cp"), (Strategy::Nautilus, "io-nau")]
    {
        let mut session = ModelSelection::new(
            cands.clone(),
            SystemConfig::default(),
            strategy,
            BackendKind::Simulated,
            workdir(tag),
        )
        .unwrap();
        for _ in 0..2 {
            session.fit(CycleInput::Virtual { n_train: 400, n_valid: 100 }).unwrap();
        }
        stats.push(session.stats());
    }
    assert!(
        stats[1].disk_write_bytes < stats[0].disk_write_bytes,
        "nautilus writes {} vs cp {}",
        stats[1].disk_write_bytes,
        stats[0].disk_write_bytes
    );
}

#[test]
fn exponential_backoff_doubles_r_and_rematerializes() {
    let mut cfg = SystemConfig::tiny();
    cfg.max_records = 40;
    let mut session = ModelSelection::new(
        small_candidates(),
        cfg,
        Strategy::Nautilus,
        BackendKind::Real,
        workdir("backoff"),
    )
    .unwrap();
    assert_eq!(session.max_records(), 40);
    let pool = tiny_pool(90);
    for cycle in 0..3 {
        let batch = pool.range(cycle * 30, (cycle + 1) * 30);
        let (train, valid) = batch.split_at(24);
        session.fit(CycleInput::Real { train, valid }).unwrap();
    }
    // 90 records > 40: r must have doubled at least once.
    assert!(session.max_records() >= 80, "r = {}", session.max_records());
}

#[test]
fn evolving_workload_mid_session() {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut session = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Real,
        workdir("evolve"),
    )
    .unwrap();
    let pool = tiny_pool(90);
    let batch = pool.range(0, 30);
    let (train, valid) = batch.split_at(24);
    session.fit(CycleInput::Real { train, valid }).unwrap();

    // Swap in a different (larger) candidate set mid-session.
    let mut new_cands = spec.candidates().unwrap();
    new_cands.truncate(6);
    let report = session.update_workload(new_cands).unwrap();
    assert!(report.num_units >= 1);
    assert!(report.theoretical_speedup > 1.0);

    // The next cycle trains the *new* candidates on old + new data.
    let batch = pool.range(30, 60);
    let (train, valid) = batch.split_at(24);
    let r = session.fit(CycleInput::Real { train, valid }).unwrap();
    assert_eq!(r.accuracies.len(), 6);
    assert_eq!(r.train_records, 48);
    assert!(r.best.is_some());

    // Mismatched input shapes are rejected.
    let ftu = WorkloadSpec { kind: WorkloadKind::Ftu, scale: Scale::Tiny };
    let mut image_cands = ftu.candidates().unwrap();
    image_cands.truncate(2);
    assert!(session.update_workload(image_cands).is_err());
}

#[test]
fn virtual_input_on_real_backend_is_rejected() {
    let mut session = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Real,
        workdir("mismatch"),
    )
    .unwrap();
    let r = session.fit(CycleInput::Virtual { n_train: 10, n_valid: 2 });
    assert!(r.is_err());
}

#[test]
fn real_input_on_simulated_backend_is_rejected() {
    let mut session = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Simulated,
        workdir("mismatch-sim"),
    )
    .unwrap();
    let r = session.fit(cycle_input(&tiny_pool(30), 0, BackendKind::Real));
    assert!(matches!(r, Err(SessionError::Invalid(_))));
    // The rejected batch changed nothing, not even the cycle counter.
    let r = session.fit(CycleInput::Virtual { n_train: 24, n_valid: 6 }).unwrap();
    assert_eq!((r.cycle, r.train_records, r.valid_records), (1, 24, 6));
}

#[test]
fn save_and_restore_resumes_identically() {
    let pool = tiny_pool(90);
    let wd_a = workdir("persist-a");
    let state = std::env::temp_dir().join(format!("nautilus-state-{}", std::process::id()));

    // Uninterrupted reference: 3 cycles.
    let mut reference = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Real,
        workdir("persist-ref"),
    )
    .unwrap();
    let mut ref_accs = Vec::new();
    for cycle in 0..3 {
        let batch = pool.range(cycle * 30, (cycle + 1) * 30);
        let (train, valid) = batch.split_at(24);
        ref_accs.push(reference.fit(CycleInput::Real { train, valid }).unwrap().accuracies);
    }

    // Interrupted: 2 cycles, save, drop, resume, 1 more cycle.
    {
        let mut session = ModelSelection::new(
            small_candidates(),
            SystemConfig::tiny(),
            Strategy::Nautilus,
            BackendKind::Real,
            &wd_a,
        )
        .unwrap();
        for (cycle, expected) in ref_accs.iter().take(2).enumerate() {
            let batch = pool.range(cycle * 30, (cycle + 1) * 30);
            let (train, valid) = batch.split_at(24);
            let got = session.fit(CycleInput::Real { train, valid }).unwrap().accuracies;
            assert_eq!(&got, expected);
        }
        session.save_state(&state).unwrap();
    }
    let mut resumed = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Real,
        &wd_a,
    )
    .unwrap();
    resumed.restore_state(&state).unwrap();
    let batch = pool.range(60, 90);
    let (train, valid) = batch.split_at(24);
    let r = resumed.fit(CycleInput::Real { train, valid }).unwrap();
    assert_eq!(r.cycle, 3);
    assert_eq!(r.train_records, 72);
    assert_eq!(r.accuracies, ref_accs[2], "resumed cycle must match uninterrupted");
    let _ = std::fs::remove_file(&state);
}

#[test]
fn empty_cycle_retrains_on_existing_snapshot() {
    let mut session = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Real,
        workdir("empty-cycle"),
    )
    .unwrap();
    let pool = tiny_pool(30);
    let (train, valid) = pool.split_at(24);
    let r1 = session.fit(CycleInput::Real { train, valid }).unwrap();
    // A cycle with zero new labels still re-runs model selection on the
    // unchanged snapshot (e.g. the labeler produced nothing this round).
    let empty_in = pool.range(0, 0);
    let empty_lab = pool.range(0, 0);
    let r2 = session
        .fit(CycleInput::Real { train: empty_in, valid: empty_lab })
        .unwrap();
    assert_eq!(r2.train_records, r1.train_records);
    assert_eq!(r2.cycle, 2);
    // Deterministic retraining from initial checkpoints: same accuracies.
    assert_eq!(r1.accuracies, r2.accuracies);
}

#[test]
fn init_report_phases_populated() {
    let session = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Simulated,
        workdir("init"),
    )
    .unwrap();
    let init = session.init_report();
    assert!(init.total_secs > 0.0);
    assert!(init.theoretical_speedup > 1.0);
    assert!(init.num_units >= 1);
    assert!(session.milp_stats().is_some());
}

#[test]
fn feature_store_respects_disk_budget() {
    // Generous planner-compute so the optimizer wants to materialize, but a
    // tight budget caps what it may choose.
    let mut cfg = SystemConfig::tiny();
    cfg.planner.flops_per_sec = 1e9;
    cfg.disk_budget_bytes = 200 * 1024; // 200 KiB
    cfg.max_records = 64;
    let mut session = ModelSelection::new(
        small_candidates(),
        cfg.clone(),
        Strategy::Nautilus,
        BackendKind::Real,
        workdir("budget"),
    )
    .unwrap();
    let pool = tiny_pool(60);
    for cycle in 0..2 {
        let batch = pool.range(cycle * 30, (cycle + 1) * 30);
        let (train, valid) = batch.split_at(24);
        session.fit(CycleInput::Real { train, valid }).unwrap();
    }
    assert!(
        session.feature_bytes() <= cfg.disk_budget_bytes + 4096,
        "{} bytes exceeds budget {}",
        session.feature_bytes(),
        cfg.disk_budget_bytes
    );
}


/// Trains locally and records the materialized set `V` of every cycle.
struct RecordV(Arc<Mutex<Vec<BTreeSet<MNodeId>>>>);

impl UnitExecutor for RecordV {
    fn train_units(
        &mut self,
        work: &CycleWork<'_>,
        backend: &mut Backend,
    ) -> Result<Vec<UnitOutcome>, SessionError> {
        self.0.lock().unwrap().push(work.v.clone());
        LocalUnits.train_units(work, backend)
    }
}

/// Cycle `cycle` of a 30-record-per-cycle pool: 24 train, 6 valid — the
/// records on the real backend, their counts on the simulated one.
fn cycle_input(pool: &Dataset, cycle: usize, backend: BackendKind) -> CycleInput {
    if backend == BackendKind::Simulated {
        return CycleInput::Virtual { n_train: 24, n_valid: 6 };
    }
    let batch = pool.range(cycle * 30, (cycle + 1) * 30);
    let (train, valid) = batch.split_at(24);
    CycleInput::Real { train, valid }
}

fn sorted(mut accuracies: Vec<(String, Option<f32>)>) -> Vec<(String, Option<f32>)> {
    accuracies.sort_by(|a, b| a.0.cmp(&b.0));
    accuracies
}

#[test]
fn backoff_replan_backfills_new_features_and_resumes_identically() {
    for backend in [BackendKind::Real, BackendKind::Simulated] {
        backoff_replan_case(backend);
    }
}

/// At r = 40 the budget holds four deep features; at r = 80 the planner
/// trades them for a set that includes shallower nodes it had not chosen,
/// so the backoff re-plan must backfill those over the whole snapshot while
/// the retained ones take only the new batch. Swapping `V` under the tight
/// budget only fits when dropped features release their bytes, on either
/// backend.
fn backoff_replan_case(backend: BackendKind) {
    let tag = |t: &str| format!("{t}-{backend:?}");
    let mut cfg = SystemConfig::tiny();
    cfg.max_records = 40;
    cfg.disk_budget_bytes = 640 * 1024;
    let pool = tiny_pool(90);
    let input = |c| cycle_input(&pool, c, backend);
    let session = |strategy, dir: &Path, log: &Arc<Mutex<Vec<BTreeSet<MNodeId>>>>| {
        let mut s = ModelSelection::new(small_candidates(), cfg.clone(), strategy, backend, dir)
            .unwrap();
        s.set_unit_executor(Box::new(RecordV(log.clone())));
        s
    };

    let cp_log = Arc::new(Mutex::new(Vec::new()));
    let mut baseline = session(Strategy::CurrentPractice, &workdir(&tag("backfill-cp")), &cp_log);
    let expected: Vec<_> =
        (0..3).map(|c| sorted(baseline.fit(input(c)).unwrap().accuracies)).collect();

    // Uninterrupted: every cycle equals Current Practice bit for bit.
    let ref_log = Arc::new(Mutex::new(Vec::new()));
    let mut reference = session(Strategy::Nautilus, &workdir(&tag("backfill-ref")), &ref_log);
    for (c, want) in expected.iter().enumerate() {
        let got = reference.fit(input(c));
        let got = sorted(got.unwrap_or_else(|e| panic!("{backend:?} cycle {c}: {e}")).accuracies);
        assert_eq!(&got, want, "{backend:?} cycle {c}");
    }
    let ref_v = ref_log.lock().unwrap().clone();
    assert!(!ref_v[0].is_empty());
    assert!(
        ref_v[1].difference(&ref_v[0]).next().is_some(),
        "the backoff re-plan must choose features it had not materialized: {ref_v:?}"
    );
    assert!(reference.feature_bytes() > 0);

    // Interrupted after the backoff: save, resume into a fresh session over
    // the same workdir (which re-plans under the saved r), run cycle 3.
    let wd = workdir(&tag("backfill-resume"));
    let state = std::env::temp_dir()
        .join(format!("nautilus-backfill-state-{backend:?}-{}", std::process::id()));
    let log = Arc::new(Mutex::new(Vec::new()));
    {
        let mut interrupted = session(Strategy::Nautilus, &wd, &log);
        for c in 0..2 {
            interrupted.fit(input(c)).unwrap();
        }
        assert_eq!(interrupted.max_records(), 80);
        interrupted.save_state(&state).unwrap();
    }
    let mut resumed = session(Strategy::Nautilus, &wd, &log);
    assert_eq!(resumed.max_records(), 40);
    resumed.restore_state(&state).unwrap();
    assert_eq!(resumed.max_records(), 80);
    let r = resumed.fit(input(2)).unwrap();
    assert_eq!((r.cycle, r.train_records, r.valid_records), (3, 72, 18));
    assert_eq!(sorted(r.accuracies), expected[2], "resumed cycle must match uninterrupted");
    assert_eq!(resumed.max_records(), reference.max_records());
    assert_eq!(resumed.feature_bytes(), reference.feature_bytes(), "{backend:?}");
    assert_eq!(*log.lock().unwrap(), ref_v, "same V every cycle");
    let _ = std::fs::remove_file(&state);
}

#[test]
fn restore_rejects_a_header_that_disagrees_with_its_payload() {
    let wd = workdir("tamper");
    let state = std::env::temp_dir().join(format!("nautilus-tamper-state-{}", std::process::id()));
    let new_session = || {
        ModelSelection::new(
            small_candidates(),
            SystemConfig::tiny(),
            Strategy::Nautilus,
            BackendKind::Real,
            &wd,
        )
        .unwrap()
    };
    {
        let mut session = new_session();
        session.fit(cycle_input(&tiny_pool(30), 0, BackendKind::Real)).unwrap();
        session.save_state(&state).unwrap();
    }
    // Rewrite only the header's validation count.
    let bytes = std::fs::read(&state).unwrap();
    let hlen = u64::from_le_bytes(bytes[..8].try_into().unwrap()) as usize;
    let header = std::str::from_utf8(&bytes[8..8 + hlen]).unwrap();
    assert!(header.contains("\"n_valid\":6"), "{header}");
    let header = header.replace("\"n_valid\":6", "\"n_valid\":7");
    let mut tampered = (header.len() as u64).to_le_bytes().to_vec();
    tampered.extend_from_slice(header.as_bytes());
    tampered.extend_from_slice(&bytes[8 + hlen..]);
    std::fs::write(&state, tampered).unwrap();

    let err = new_session().restore_state(&state).unwrap_err();
    assert!(matches!(err, SessionError::Invalid(_)), "{err}");
    let _ = std::fs::remove_file(&state);
}

#[test]
fn saved_state_restores_only_on_its_own_backend() {
    let pool = tiny_pool(30);
    // A state and the workdir whose feature store holds its snapshot.
    let state = |backend: BackendKind| {
        let path = std::env::temp_dir()
            .join(format!("nautilus-kind-state-{backend:?}-{}", std::process::id()));
        let wd = workdir(&format!("kind-{backend:?}"));
        let mut session = ModelSelection::new(
            small_candidates(),
            SystemConfig::tiny(),
            Strategy::Nautilus,
            backend,
            &wd,
        )
        .unwrap();
        session.fit(cycle_input(&pool, 0, backend)).unwrap();
        session.save_state(&path).unwrap();
        (path, wd)
    };
    let (real, sim) = (state(BackendKind::Real), state(BackendKind::Simulated));
    for ((path, wd), backend, ok) in [
        (&real, BackendKind::Real, true),
        (&real, BackendKind::Simulated, false),
        (&sim, BackendKind::Simulated, true),
        (&sim, BackendKind::Real, false),
    ] {
        let mut fresh = ModelSelection::new(
            small_candidates(),
            SystemConfig::tiny(),
            Strategy::CurrentPractice,
            backend,
            wd,
        )
        .unwrap();
        let restored = fresh.restore_state(path);
        assert_eq!(restored.is_ok(), ok, "{path:?} on {backend:?}: {restored:?}");
    }
    // The snapshot lives in the store: a state restores nowhere else.
    let mut elsewhere = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::CurrentPractice,
        BackendKind::Real,
        workdir("kind-elsewhere"),
    )
    .unwrap();
    assert!(matches!(elsewhere.restore_state(&real.0), Err(SessionError::Invalid(_))));
    let _ = std::fs::remove_file(&real.0);
    let _ = std::fs::remove_file(&sim.0);
}

#[test]
fn update_workload_writes_the_checkpoints_new_writes() {
    use nautilus_dnn::checkpoint::save_to_bytes;
    let wd = workdir("evolve-ckpt");
    let mut session = ModelSelection::new(
        small_candidates(),
        SystemConfig::tiny(),
        Strategy::Nautilus,
        BackendKind::Real,
        &wd,
    )
    .unwrap();
    session.fit(cycle_input(&tiny_pool(30), 0, BackendKind::Real)).unwrap();
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let new_cands: Vec<_> = spec.candidates().unwrap().into_iter().skip(4).take(6).collect();
    let before = session.stats().disk_write_bytes;
    let report = session.update_workload(new_cands.clone()).unwrap();
    assert!(report.num_units >= 1);
    // The store holds the new workload's original and plan checkpoints, and
    // the update wrote at least their bytes.
    let store = nautilus_store::TensorStore::open(wd.join("features"), Default::default()).unwrap();
    let object = |key: String| store.get_object(&key).unwrap().unwrap_or_else(|| panic!("{key}"));
    let mut expected = 0;
    for (i, c) in new_cands.iter().enumerate() {
        let bytes = object(format!("ckpt:init:{i}"));
        assert!(bytes == save_to_bytes(&c.graph), "ckpt:init:{i}");
        expected += bytes.len() as u64;
    }
    for (u, (_, plan)) in session.units().iter().enumerate() {
        let bytes = object(format!("ckpt:plan:{u}"));
        assert!(bytes == save_to_bytes(&plan.graph), "ckpt:plan:{u}");
        expected += bytes.len() as u64;
    }
    assert!(session.stats().disk_write_bytes - before >= expected);
    assert!(report.original_checkpoints_secs > 0.0);
}

#[test]
fn twin_totals_hold_at_the_default_pool_width() {
    // Units train concurrently here, so the page-cache model may see reads
    // in another order than the simulated device: the disk/cached split can
    // differ, the totals cannot.
    let points = twins::STRATEGIES.map(|s| (WorkloadKind::Ftr2, s));
    for (kind, strategy) in points.into_iter().chain([(WorkloadKind::Ftu, Strategy::Nautilus)]) {
        let real = twins::run(kind, strategy, BackendKind::Real);
        let sim = twins::run(kind, strategy, BackendKind::Simulated);
        let total = |t: &twins::Twin| (t.io.0, t.io.1 + t.io.2);
        let what = format!("{} {strategy:?}", kind.name());
        assert_eq!(total(&real), total(&sim), "{what}: written, read bytes");
        assert_eq!((real.units, &real.v, real.flops), (sim.units, &sim.v, sim.flops), "{what}");
        assert_eq!(real.manifest, sim.manifest, "{what}");
    }
}
