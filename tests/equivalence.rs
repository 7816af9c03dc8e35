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

/// Two labeling cycles of the first `models` candidates of `kind` under
/// `cfg`; returns the session and the per-cycle validation accuracies.
fn run_session(
    kind: WorkloadKind,
    strategy: Strategy,
    models: usize,
    tag: &str,
    cfg: SystemConfig,
) -> (ModelSelection, CycleAccuracies) {
    let spec = WorkloadSpec { kind, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(models);
    let mut session = ModelSelection::new(
        candidates,
        cfg,
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
    (session, acc)
}

fn run(
    kind: WorkloadKind,
    strategy: Strategy,
    models: usize,
    tag: &str,
) -> (CycleAccuracies, f64) {
    let (session, acc) = run_session(kind, strategy, models, tag, SystemConfig::tiny());
    (acc, session.stats().flops)
}

/// Every parameter of two models of one topology, bit for bit.
fn assert_same_params(a: &nautilus_repro::dnn::ModelGraph, b: &nautilus_repro::dnn::ModelGraph, ctx: &str) {
    assert_eq!(a.len(), b.len());
    for idx in 0..a.len() {
        let id = nautilus_repro::dnn::NodeId(idx);
        let (na, nb) = (a.node(id), b.node(id));
        assert_eq!(na.params.len(), nb.params.len(), "{ctx}: node {}", na.name);
        for (pa, pb) in na.params.iter().zip(&nb.params) {
            assert_eq!(pa.data(), pb.data(), "{ctx}: params differ at node {}", na.name);
        }
    }
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

/// The FTU equivalence must not depend on *which* convolutional layers the
/// planner materializes: the materializer forwards a whole cycle in one
/// call, the trainer forwards mini-batches, and an image's bits are the
/// same in both. A ladder of disk budgets — nothing, only the cheapest
/// materializable layer, everything the MILP wants — moves the materialized
/// set; at every rung the accuracies and the exported best model's
/// parameters equal Current Practice's bit for bit.
#[test]
fn ftu_equivalence_holds_whatever_the_planner_materializes() {
    let tiny = SystemConfig::tiny;
    let (base, base_acc) = run_session(WorkloadKind::Ftu, Strategy::CurrentPractice, 2, "ftu-ladder", tiny());
    let (base_best, base_model) = base.export_best().expect("trained model exports");
    let cheapest_layer = {
        let multi = base.multi();
        let per_record = multi.mat_candidates().iter().map(|&m| multi.node(m).profile.out_bytes).min();
        per_record.expect("FTU has materializable layers") * base.max_records() as u64
    };
    let mut materialized = Vec::new();
    for (rung, budget) in [0, cheapest_layer, tiny().disk_budget_bytes].into_iter().enumerate() {
        let cfg = tiny().into_builder().disk_budget_bytes(budget).build();
        let tag = format!("ftu-ladder{rung}");
        let (opt, acc) = run_session(WorkloadKind::Ftu, Strategy::Nautilus, 2, &tag, cfg);
        assert_eq!(acc, base_acc, "rung {rung} (budget {budget} B)");
        let (best, model) = opt.export_best().expect("trained model exports");
        assert_eq!(best, base_best, "rung {rung}: same best candidate");
        assert_same_params(&base_model, &model, &tag);
        materialized.push(opt.init_report().num_materialized);
    }
    assert_eq!(materialized[0], 0, "no budget, nothing materialized");
    assert!(
        materialized[0] < materialized[1] && materialized[1] < materialized[2],
        "the ladder must move the materialized set: {materialized:?}"
    );
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
    // bit for bit, layer by layer — on FTU (convolutions) too, at both
    // trainer batch sizes.
    let sessions = [
        (WorkloadKind::Ftr2, "", 3, "exp"),
        (WorkloadKind::Ftu, "FTU/tune12-b4-", 1, "exp-ftu-b4"),
        (WorkloadKind::Ftu, "FTU/tune12-b8-", 1, "exp-ftu-b8"),
    ];
    for (kind, prefix, models, tag) in sessions {
        let (ci_base, base) = run_export(kind, prefix, models, Strategy::CurrentPractice, tag);
        let (ci_opt, opt) = run_export(kind, prefix, models, Strategy::Nautilus, tag);
        assert_eq!(ci_base, ci_opt, "{tag}: same best candidate");
        assert_same_params(&base, &opt, tag);
    }
}

#[test]
fn atr_nautilus_matches_current_practice() {
    let (base, _) = run(WorkloadKind::Atr, Strategy::CurrentPractice, 3, "atr");
    let (opt, _) = run(WorkloadKind::Atr, Strategy::Nautilus, 3, "atr");
    assert_eq!(base, opt);
}
