//! Trainer-level properties of the feature-store I/O path.
//!
//! Every store read and write runs on the calling thread and is finished
//! when the call returns, and the ledger accounts reads in key order, then
//! append order. Nothing observable may depend on the pool width:
//! validation accuracies and the store's exact byte accounting must be
//! equal at every width.

use nautilus_repro::core::session::{CycleInput, ModelSelection};
use nautilus_repro::core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_repro::core::{BackendKind, Strategy, SystemConfig};
use nautilus_util::pool;
use std::path::PathBuf;

type CycleAccuracies = Vec<Vec<(String, Option<f32>)>>;

/// Everything observable about a run: the per-cycle accuracy reports plus
/// the store's exact byte accounting.
#[derive(Debug, PartialEq)]
struct Outcome {
    acc: CycleAccuracies,
    disk_read_bytes: u64,
    cached_read_bytes: u64,
    disk_write_bytes: u64,
}

fn workdir(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!(
        "nautilus-it-prefetch-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Two labeling cycles of MAT-ALL (every materializable layer is stored, so
/// training genuinely streams features from the store each epoch).
fn run(config: SystemConfig, tag: &str) -> Outcome {
    let spec = WorkloadSpec { kind: WorkloadKind::Ftr2, scale: Scale::Tiny };
    let mut candidates = spec.candidates().expect("workload builds");
    candidates.truncate(3);
    let mut session = ModelSelection::new(
        candidates,
        config,
        Strategy::MatAll,
        BackendKind::Real,
        workdir(tag),
    )
    .expect("session initializes");
    let pool = spec.ner_config().generate(60);
    let mut acc = Vec::new();
    for cycle in 0..2 {
        let batch = pool.range(cycle * 30, (cycle + 1) * 30);
        let (train, valid) = batch.split_at(24);
        let report = session.fit(CycleInput::Real { train, valid }).expect("cycle runs");
        acc.push(report.accuracies);
    }
    let stats = session.stats();
    Outcome {
        acc,
        disk_read_bytes: stats.disk_read_bytes,
        cached_read_bytes: stats.cached_read_bytes,
        disk_write_bytes: stats.disk_write_bytes,
    }
}

#[test]
fn prefetched_training_is_bit_identical_to_synchronous_at_any_width() {
    // Units train as pool tasks and read their feeds on their own thread,
    // so neither the accuracies nor the exact byte counters may move with
    // the pool width.
    let reference = pool::with_parallelism_limit(1, || run(SystemConfig::tiny(), "w1"));
    for width in [2usize, 8] {
        let got = pool::with_parallelism_limit(width, || {
            run(SystemConfig::tiny(), &format!("w{width}"))
        });
        assert_eq!(reference, got, "run diverged at width {width}");
    }
}
