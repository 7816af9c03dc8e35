//! The backends differ only in time: every Table 3 workload at Tiny scale
//! under all five strategies, run once on each backend, must agree on
//! units, `V` per cycle, FLOPs, the store's manifest (keys, record counts,
//! bytes) and every ledger counter — written, disk-read and cached-read
//! bytes. The real side runs at pool width 1, so units train one after the
//! other and the page-cache model sees the reads in one order
//! (`session_e2e` checks the order-free totals at the default width).

mod twins;

use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::{BackendKind, SystemConfig};
use nautilus_dnn::checkpoint::{encoded_len, save_to_bytes_with};

/// Runs `kind`'s five twin pairs; every test of this binary keeps the
/// pool at width 1 (the workloads run side by side on the test threads).
fn twins_agree(kind: WorkloadKind) {
    nautilus_util::pool::request_threads(1);
    assert_eq!(nautilus_util::pool::num_threads(), 1, "pool started wider");
    let mut mismatches = Vec::new();
    for strategy in twins::STRATEGIES {
        let real = twins::run(kind, strategy, BackendKind::Real);
        let simulated = twins::run(kind, strategy, BackendKind::Simulated);
        assert!(
            real.io.0 > 0 && real.io.1 + real.io.2 > 0,
            "{} {strategy:?}",
            kind.name()
        );
        if real != simulated {
            mismatches.push(format!(
                "{strategy:?}:\n  real      {real:?}\n  simulated {simulated:?}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} twins differ:\n{}",
        kind.name(),
        mismatches.join("\n")
    );
}

#[test]
fn twins_agree_ftr1() {
    twins_agree(WorkloadKind::Ftr1);
}

#[test]
fn twins_agree_ftr2() {
    twins_agree(WorkloadKind::Ftr2);
}

#[test]
fn twins_agree_ftr3() {
    twins_agree(WorkloadKind::Ftr3);
}

#[test]
fn twins_agree_atr() {
    twins_agree(WorkloadKind::Atr);
}

#[test]
fn twins_agree_ftu() {
    twins_agree(WorkloadKind::Ftu);
}

#[test]
fn checkpoint_sizes_are_exact_for_every_tiny_candidate_and_plan() {
    nautilus_util::pool::request_threads(1);
    let config = SystemConfig::tiny();
    for kind in WorkloadKind::ALL {
        let candidates = WorkloadSpec {
            kind,
            scale: Scale::Tiny,
        }
        .candidates()
        .unwrap();
        let multi = nautilus_core::multimodel::MultiModelGraph::build(&candidates);
        let mut graphs: Vec<_> = candidates.iter().map(|c| c.graph.clone()).collect();
        for strategy in twins::STRATEGIES {
            let (v, _) = nautilus_core::ModelSelection::choose_v(
                &multi,
                &candidates,
                &config,
                strategy,
                config.max_records,
            );
            let units = nautilus_core::ModelSelection::build_units(
                &multi,
                &candidates,
                &config,
                strategy,
                &v,
            )
            .unwrap();
            graphs.extend(units.into_iter().map(|(_, plan)| plan.graph));
        }
        for (i, graph) in graphs.iter().enumerate() {
            for trainable_only in [false, true] {
                assert_eq!(
                    encoded_len(graph, trainable_only),
                    save_to_bytes_with(graph, trainable_only).len() as u64,
                    "{} graph {i}, trainable_only {trainable_only}",
                    kind.name()
                );
            }
        }
    }
}
