//! Cross-crate integration: Nautilus's optimized execution is logically
//! equivalent to Current Practice (the paper's correctness claim behind
//! Fig 7) and strictly cheaper in compute.

use nautilus_repro::core::session::{CycleInput, ModelSelection};
use nautilus_repro::core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_repro::core::{BackendKind, Strategy, SystemConfig};
use std::path::PathBuf;

type CycleAccuracies = Vec<Vec<(String, Option<f32>)>>;

fn workdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "nautilus-it-eq-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn run(
    kind: WorkloadKind,
    strategy: Strategy,
    models: usize,
    tag: &str,
) -> (CycleAccuracies, f64) {
    let spec = WorkloadSpec { kind, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(models);
    let mut session = ModelSelection::new(
        candidates,
        SystemConfig::tiny(),
        strategy,
        BackendKind::Real,
        workdir(&format!("{tag}-{}", strategy.label().replace('/', "_"))),
    )
    .expect("session initializes");
    let pool = match kind {
        WorkloadKind::Ftu => spec.image_config().generate(60),
        _ => spec.ner_config().generate(60),
    };
    let mut acc = Vec::new();
    for cycle in 0..2 {
        let batch = pool.range(cycle * 30, (cycle + 1) * 30);
        let (train, valid) = batch.split_at(24);
        let report = session.fit(CycleInput::Real { train, valid }).expect("cycle runs");
        let mut a = report.accuracies;
        a.sort_by(|x, y| x.0.cmp(&y.0));
        acc.push(a);
    }
    (acc, session.stats().flops)
}

#[test]
fn ftr_nautilus_matches_current_practice_with_less_compute() {
    let (base, base_flops) = run(WorkloadKind::Ftr2, Strategy::CurrentPractice, 4, "ftr");
    let (opt, opt_flops) = run(WorkloadKind::Ftr2, Strategy::Nautilus, 4, "ftr");
    assert_eq!(base, opt, "validation accuracies must match exactly");
    assert!(
        opt_flops < base_flops / 2.0,
        "nautilus {opt_flops:.2e} flops vs current practice {base_flops:.2e}"
    );
}

#[test]
fn ftu_nautilus_matches_current_practice() {
    let (base, base_flops) = run(WorkloadKind::Ftu, Strategy::CurrentPractice, 3, "ftu");
    let (opt, opt_flops) = run(WorkloadKind::Ftu, Strategy::Nautilus, 3, "ftu");
    assert_eq!(base, opt);
    assert!(opt_flops < base_flops, "{opt_flops:.2e} vs {base_flops:.2e}");
}

/// Like [`run`] over one cycle, but over the first `models` candidates
/// whose name starts with `prefix`, returning the exported best trained
/// model.
fn run_export(
    kind: WorkloadKind,
    prefix: &str,
    models: usize,
    strategy: Strategy,
    tag: &str,
) -> (usize, nautilus_repro::dnn::ModelGraph) {
    let spec = WorkloadSpec { kind, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.retain(|c| c.name.starts_with(prefix));
    candidates.truncate(models);
    assert_eq!(candidates.len(), models, "candidates named {prefix}*");
    let mut session = ModelSelection::new(
        candidates,
        SystemConfig::tiny(),
        strategy,
        BackendKind::Real,
        workdir(&format!("{tag}-{}", strategy.label().replace('/', "_"))),
    )
    .expect("session initializes");
    let pool = match kind {
        WorkloadKind::Ftu => spec.image_config().generate(30),
        _ => spec.ner_config().generate(30),
    };
    let (train, valid) = pool.split_at(24);
    session.fit(CycleInput::Real { train, valid }).expect("cycle runs");
    session.export_best().expect("trained model exports")
}

#[test]
fn export_best_is_bit_identical_across_strategies() {
    // The fused/materialized plan trains step-for-step identically to solo
    // training, so the *exported parameters* — mapped from the plan graph
    // back onto the candidate topology — must match Current Practice's
    // bit for bit, layer by layer. On FTU (convolutions) that rests on the
    // materialized layers being ones whose kernel choice does not change
    // between a whole-cycle forward and a mini-batch one — see DESIGN.md
    // "Batch invariance"; single-candidate sessions at both batch sizes.
    let sessions = [
        (WorkloadKind::Ftr2, "", 3, "exp"),
        (WorkloadKind::Ftu, "FTU/tune12-b4-", 1, "exp-ftu-b4"),
        (WorkloadKind::Ftu, "FTU/tune12-b8-", 1, "exp-ftu-b8"),
    ];
    for (kind, prefix, models, tag) in sessions {
        let (ci_base, base) = run_export(kind, prefix, models, Strategy::CurrentPractice, tag);
        let (ci_opt, opt) = run_export(kind, prefix, models, Strategy::Nautilus, tag);
        assert_eq!(ci_base, ci_opt, "{tag}: same best candidate");
        assert_eq!(base.len(), opt.len());
        for idx in 0..base.len() {
            let id = nautilus_repro::dnn::NodeId(idx);
            let (a, b) = (base.node(id), opt.node(id));
            assert_eq!(a.params.len(), b.params.len(), "{tag}: node {}", a.name);
            for (pa, pb) in a.params.iter().zip(&b.params) {
                assert_eq!(pa.data(), pb.data(), "{tag}: params differ at node {}", a.name);
            }
        }
    }
}

#[test]
fn atr_nautilus_matches_current_practice() {
    let (base, _) = run(WorkloadKind::Atr, Strategy::CurrentPractice, 3, "atr");
    let (opt, _) = run(WorkloadKind::Atr, Strategy::Nautilus, 3, "atr");
    assert_eq!(base, opt);
}
