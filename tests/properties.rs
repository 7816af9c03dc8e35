//! Cross-crate property tests: planner invariants on randomized workloads.

use nautilus_repro::core::fusion::fuse_models;
use nautilus_repro::core::mat_opt::{
    choose_materialization, no_reuse_plan, plan_given_v, validate_plan,
};
use nautilus_repro::core::multimodel::MultiModelGraph;
use nautilus_repro::core::spec::{CandidateModel, Hyper};
use nautilus_repro::core::SystemConfig;
use nautilus_repro::dnn::{OptimizerSpec, TaskKind};
use nautilus_repro::models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
use nautilus_repro::models::BuildScale;
use nautilus_util::prop::{prop_check, u64s, vec_of, Gen};
use nautilus_util::rng::{Rng, StdRng};
use nautilus_util::prop_assert;
use std::collections::BTreeSet;

const CASES: u32 = 12;

fn candidate(strategy_idx: usize, lr: f32, batch: usize, epochs: usize, id: usize) -> CandidateModel {
    let cfg = BertConfig::tiny(8, 40);
    let strategy = FeatureStrategy::ALL[strategy_idx % FeatureStrategy::ALL.len()];
    CandidateModel {
        name: format!("c{id}-{}-{lr}-{batch}-{epochs}", strategy.label()),
        graph: feature_transfer_model(&cfg, strategy, 5, BuildScale::Real).unwrap(),
        hyper: Hyper { batch_size: batch, epochs, optimizer: OptimizerSpec::sgd(lr) },
        task: TaskKind::TokenTagging,
    }
}

/// One candidate spec: `(strategy_idx, lr_milli, batch, epochs)`.
struct SpecGen;

impl Gen for SpecGen {
    type Value = (usize, u32, usize, usize);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        (
            rng.gen_range(0usize..6),
            rng.gen_range(1u32..5),
            if rng.gen_bool(0.5) { 4 } else { 8 },
            rng.gen_range(1usize..3),
        )
    }

    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
        let mut out = Vec::new();
        let &(s, lr, b, e) = v;
        if s > 0 {
            out.push((0, lr, b, e));
        }
        if lr > 1 {
            out.push((s, 1, b, e));
        }
        if e > 1 {
            out.push((s, lr, b, 1));
        }
        out
    }
}

fn workload_gen() -> impl Gen<Value = Vec<(usize, u32, usize, usize)>> {
    vec_of(SpecGen, 1..5)
}

fn build_candidates(specs: &[(usize, u32, usize, usize)]) -> Vec<CandidateModel> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(s, lr, b, e))| candidate(s, lr as f32 * 1e-3, b, e, i))
        .collect()
}

/// The MILP's chosen V always fits the budget, and the resulting plans
/// are valid (Def 4.5) and never costlier than the no-reuse plan.
#[test]
fn mat_opt_plans_are_valid_and_never_worse() {
    let gen = (workload_gen(), u64s(0..2048));
    prop_check(0x2007_0001, CASES, &gen, |(specs, budget_kb)| {
        let cands = build_candidates(specs);
        let cfg = SystemConfig::tiny()
            .into_builder()
            .disk_budget_bytes(budget_kb << 10)
            .planner_flops_per_sec(2e9)
            .build();
        let r = 64usize;
        let multi = MultiModelGraph::build(&cands);
        let res = choose_materialization(&multi, &cands, &cfg, r);
        let total: u64 = res
            .materialized
            .iter()
            .map(|&m| multi.node(m).profile.out_bytes * r as u64)
            .sum();
        prop_assert!(total <= cfg.disk_budget_bytes, "V storage {total} > budget");
        for i in 0..cands.len() {
            let plan = plan_given_v(&multi, &[i], &res.materialized, &cfg);
            validate_plan(&multi, &[i], &res.materialized, &plan.actions)
                .map_err(|e| format!("invalid plan for model {i}: {e}"))?;
            let base = no_reuse_plan(&multi, &[i], &cfg);
            prop_assert!(
                plan.cost_flops <= base.cost_flops + 1.0,
                "reuse plan ({}) worse than no-reuse ({})",
                plan.cost_flops,
                base.cost_flops
            );
        }
        Ok(())
    });
}

/// Fusion covers every model exactly once, only fuses compatible
/// hyperparameters, keeps every fused unit within the memory budget, and
/// never increases total planned cost.
#[test]
fn fusion_partitions_and_improves() {
    // Budgets from below one unit's need (8 MiB workspace + its tensors)
    // to room for several members.
    let gen = (workload_gen(), u64s(0..4096));
    prop_check(0x2007_0002, CASES, &gen, |(specs, mem_kb)| {
        let cands = build_candidates(specs);
        let cfg = SystemConfig::tiny()
            .into_builder()
            .memory_budget_bytes((8 << 20) + (mem_kb << 10))
            .build();
        let multi = MultiModelGraph::build(&cands);
        let v = BTreeSet::new();
        let units = fuse_models(&multi, &cands, &v, &cfg, true);
        let mut covered: Vec<usize> = units.iter().flat_map(|u| u.members.clone()).collect();
        covered.sort_unstable();
        prop_assert!(
            covered == (0..cands.len()).collect::<Vec<_>>(),
            "fusion does not partition the models: {covered:?}"
        );
        let mut fused_total = 0.0;
        for u in &units {
            for (k, &m) in u.members.iter().enumerate() {
                prop_assert!(
                    cands[m].hyper.batch_size == u.batch_size,
                    "fused unit mixes batch sizes"
                );
                prop_assert!(
                    cands[m].hyper.epochs == u.member_epochs[k],
                    "fused unit mislabels member epochs"
                );
            }
            prop_assert!(
                u.epochs == u.member_epochs.iter().copied().max().unwrap(),
                "unit epochs is not the member max"
            );
            prop_assert!(
                u.members.len() < 2 || u.memory.total() <= cfg.memory_budget_bytes,
                "fused unit {:?} needs {} B > budget {} B",
                u.members,
                u.memory.total(),
                cfg.memory_budget_bytes
            );
            fused_total += u.weighted_cost_flops;
        }
        let solo_total: f64 = (0..cands.len())
            .map(|i| {
                let plan = plan_given_v(&multi, &[i], &v, &cfg);
                nautilus_repro::core::fusion::unit_cost_flops(
                    &multi, &plan.actions, &cands, &[i], &cfg,
                )
            })
            .sum();
        prop_assert!(
            fused_total <= solo_total + 1.0,
            "fusion increased planned cost: {fused_total} > {solo_total}"
        );
        Ok(())
    });
}
