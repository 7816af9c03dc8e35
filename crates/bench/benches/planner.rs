//! Micro-benchmarks for the Nautilus planner: multi-model graph
//! construction, the materialization MILP (with the group-dedup ablation),
//! reuse-plan solving (the fixed-V min-cut), fusion pairing, and the
//! peak-memory estimator.
//!
//! `plan_given_v/pair/FTU-tiny` and `fuse_models/FTU-tiny` are the tiny
//! FTU workload's 24 candidates with the V its materialization MILP picks
//! at the tiny preset's `r`: the heaviest planner the end-to-end benchmark
//! runs.

use nautilus_util::bench::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nautilus_core::fusion::fuse_models;
use nautilus_core::mat_opt::{
    choose_materialization, choose_materialization_grouped, plan_given_v,
};
use nautilus_core::memory::estimate_peak_memory;
use nautilus_core::multimodel::{MNodeId, MultiModelGraph};
use nautilus_core::workloads::{Scale, WorkloadKind, WorkloadSpec};
use nautilus_core::SystemConfig;
use std::collections::BTreeSet;

fn paper_candidates(kind: WorkloadKind) -> Vec<nautilus_core::CandidateModel> {
    WorkloadSpec { kind, scale: Scale::Paper }.candidates().expect("workload builds")
}

/// Tiny FTU: its candidates, merged graph, config and chosen V.
fn ftu_tiny() -> (
    Vec<nautilus_core::CandidateModel>,
    MultiModelGraph,
    SystemConfig,
    BTreeSet<MNodeId>,
) {
    let cands = WorkloadSpec { kind: WorkloadKind::Ftu, scale: Scale::Tiny }
        .candidates()
        .expect("workload builds");
    let multi = MultiModelGraph::build(&cands);
    let cfg = SystemConfig::tiny();
    let v = choose_materialization(&multi, &cands, &cfg, cfg.max_records).materialized;
    (cands, multi, cfg, v)
}

fn bench_multimodel_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("multimodel_build");
    for kind in [WorkloadKind::Ftr1, WorkloadKind::Ftr2, WorkloadKind::Ftu] {
        let cands = paper_candidates(kind);
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &cands, |b, cands| {
            b.iter(|| MultiModelGraph::build(cands))
        });
    }
    group.finish();
}

fn bench_mat_milp(c: &mut Criterion) {
    let mut group = c.benchmark_group("mat_opt_milp");
    group.sample_size(20);
    let cfg = SystemConfig::default();
    for kind in [WorkloadKind::Ftr1, WorkloadKind::Ftr2] {
        let cands = paper_candidates(kind);
        let multi = MultiModelGraph::build(&cands);
        // Ablation: interchangeable-group dedup on vs off.
        group.bench_function(BenchmarkId::new("grouped", kind.name()), |b| {
            b.iter(|| choose_materialization_grouped(&multi, &cands, &cfg, 10_000, true))
        });
        group.bench_function(BenchmarkId::new("per_model", kind.name()), |b| {
            b.iter(|| choose_materialization_grouped(&multi, &cands, &cfg, 10_000, false))
        });
    }
    group.finish();
}

fn bench_plan_given_v(c: &mut Criterion) {
    let mut group = c.benchmark_group("plan_given_v/pair");
    let cfg = SystemConfig::default();
    let cands = paper_candidates(WorkloadKind::Ftr2);
    let multi = MultiModelGraph::build(&cands);
    let v: BTreeSet<_> = multi.mat_candidates().into_iter().collect();
    group.bench_function(BenchmarkId::from_parameter("FTR-2"), |b| {
        b.iter(|| plan_given_v(&multi, &[0, 1], &v, &cfg))
    });
    let (_, multi, cfg, v) = ftu_tiny();
    group.bench_function(BenchmarkId::from_parameter("FTU-tiny"), |b| {
        b.iter(|| plan_given_v(&multi, &[0, 4], &v, &cfg))
    });
    group.finish();
}

fn bench_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuse_models");
    group.sample_size(10);
    let cfg = SystemConfig::default();
    for n in [6usize, 12, 24] {
        let mut cands = paper_candidates(WorkloadKind::Ftr2);
        cands.truncate(n);
        let multi = MultiModelGraph::build(&cands);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, true))
        });
    }
    let (cands, multi, cfg, v) = ftu_tiny();
    group.bench_function(BenchmarkId::from_parameter("FTU-tiny"), |b| {
        b.iter(|| fuse_models(&multi, &cands, &v, &cfg, true))
    });
    group.finish();
}

fn bench_memory_estimator(c: &mut Criterion) {
    let cfg = SystemConfig::default();
    let cands = paper_candidates(WorkloadKind::Ftr2);
    let multi = MultiModelGraph::build(&cands);
    let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, true);
    let unit = units.iter().max_by_key(|u| u.members.len()).expect("non-empty");
    c.bench_function("memory_estimator/largest_fused_unit", |b| {
        b.iter(|| estimate_peak_memory(&multi, &unit.plan.actions, 32, 1 << 30, 2.0))
    });
}

criterion_group!(
    benches,
    bench_multimodel_build,
    bench_mat_milp,
    bench_plan_given_v,
    bench_fusion,
    bench_memory_estimator
);
criterion_main!(benches);
