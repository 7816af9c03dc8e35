//! `fit` folds whatever its `UnitExecutor` returns, so where and in which
//! order units train cannot change the selection — and an executor that
//! loses a unit is a typed error, not a truncated fold.

use nautilus_core::backend::Backend;
use nautilus_core::metrics::CycleReport;
use nautilus_core::session::{
    CycleInput, CycleWork, LocalUnits, ModelSelection, SessionError, UnitExecutor, UnitOutcome,
};
use nautilus_core::trainer::train_unit;
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{BackendKind, Strategy, SystemConfig};
use nautilus_dnn::{ModelGraph, NodeId};

/// Trains the units last to first, serially, and returns them in unit
/// order.
struct Reversed;

impl UnitExecutor for Reversed {
    fn train_units(
        &mut self,
        work: &CycleWork<'_>,
        backend: &mut Backend,
    ) -> Result<Vec<UnitOutcome>, SessionError> {
        let mut outcomes: Vec<Option<UnitOutcome>> = work.units.iter().map(|_| None).collect();
        for (i, (unit, plan)) in work.units.iter().enumerate().rev() {
            outcomes[i] = Some(train_unit(
                work.multi,
                plan,
                unit,
                i,
                work.candidates,
                &work.data,
                work.store,
                backend,
                work.strategy,
                work.config.shuffle_each_epoch,
            )?);
        }
        Ok(outcomes.into_iter().map(|o| o.expect("every unit trained")).collect())
    }
}

/// Trains every unit locally, then loses the last outcome.
struct Forgetful;

impl UnitExecutor for Forgetful {
    fn train_units(
        &mut self,
        work: &CycleWork<'_>,
        backend: &mut Backend,
    ) -> Result<Vec<UnitOutcome>, SessionError> {
        let mut outcomes = LocalUnits.train_units(work, backend)?;
        outcomes.pop();
        Ok(outcomes)
    }
}

fn session(tag: &str, executor: Option<Box<dyn UnitExecutor>>) -> ModelSelection {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(3);
    let dir = std::env::temp_dir().join(format!("nautilus-unit-exec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = SystemConfig::tiny();
    let mut session =
        ModelSelection::new(candidates, config, Strategy::Nautilus, BackendKind::Real, dir)
            .expect("session initializes");
    if let Some(executor) = executor {
        session.set_unit_executor(executor);
    }
    session
}

fn fit(session: &mut ModelSelection) -> Result<CycleReport, SessionError> {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let (train, valid) = spec.ner_config().generate(60).split_at(48);
    session.fit(CycleInput::Real { train, valid })
}

fn param_bits(g: &ModelGraph) -> Vec<Vec<u32>> {
    (0..g.len())
        .flat_map(|i| &g.node(NodeId(i)).params)
        .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn acc_bits(r: &CycleReport) -> Vec<(String, Option<u32>)> {
    r.accuracies.iter().map(|(n, a)| (n.clone(), a.map(f32::to_bits))).collect()
}

#[test]
fn training_order_does_not_change_the_selection() {
    let mut local = session("local", None);
    let mut reversed = session("reversed", Some(Box::new(Reversed)));
    assert!(local.units().len() > 1, "reversal needs more than one unit");
    let (a, b) = (fit(&mut local).expect("local fit"), fit(&mut reversed).expect("reversed fit"));
    assert_eq!(acc_bits(&a), acc_bits(&b));
    assert_eq!(
        a.best.map(|(n, acc)| (n, acc.to_bits())),
        b.best.map(|(n, acc)| (n, acc.to_bits()))
    );
    let (ci_a, g_a) = local.export_best().expect("local exports");
    let (ci_b, g_b) = reversed.export_best().expect("reversed exports");
    assert_eq!(ci_a, ci_b);
    assert_eq!(param_bits(&g_a), param_bits(&g_b));
}

#[test]
fn an_executor_that_loses_a_unit_is_a_typed_error() {
    let mut s = session("forgetful", Some(Box::new(Forgetful)));
    match fit(&mut s) {
        Err(SessionError::Invalid(m)) => assert!(m.contains("outcomes"), "{m}"),
        other => panic!("expected SessionError::Invalid, got {other:?}"),
    }
}
