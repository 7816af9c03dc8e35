//! Model fusion optimization (paper §4.3, Algorithm 1).
//!
//! Starting from one training unit per candidate (each already rewritten
//! against the materialized set `V`), the greedy pairing repeatedly fuses
//! the pair of units with the largest training-cost reduction
//! `c = C(M_i^opt) + C(M_j^opt) − C(M_ij^opt)` whose fused plan fits the
//! runtime memory budget `Bmem` (checked with the §4.3.3 live-tensor
//! estimator). Units are fusible only when they share a mini-batch size
//! (the paper's requirement); members may differ in epoch count — the unit
//! trains for the maximum and each member's optimizer stops stepping after
//! its own budget, so fused SGD stays step-for-step equivalent to solo
//! training. Costs are therefore *epoch-weighted*: present layers run for
//! the unit's maximum epochs while each member's backward-pass surcharge
//! runs only for that member's epochs ([`unit_cost_flops`]).
//!
//! Every unit and pair plan is the exact fixed-`V` reuse plan of
//! [`plan_given_v`]: one min-cut per evaluation, no MILP. Its tie rule
//! (prune before load, load before compute) makes each plan, and hence the
//! greedy pairing, a deterministic function of the members and `V`.
//!
//! Pair evaluations are cached by unit identity, so each merge only costs
//! `O(n)` new reuse-plan solves rather than re-evaluating all pairs.

use crate::config::SystemConfig;
use crate::mat_opt::{plan_given_v, NodeAction, UnitPlan};
use crate::memory::{estimate_peak_memory, MemoryEstimate};
use crate::multimodel::{MNodeId, MultiModelGraph};
use crate::spec::CandidateModel;
use nautilus_dnn::OptimizerSpec;
use nautilus_util::telemetry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A training unit: one or more fused candidate models and their shared
/// reuse plan.
#[derive(Debug, Clone)]
pub struct TrainUnit {
    /// Candidate indices trained by this unit.
    pub members: Vec<usize>,
    /// The unit's reuse plan over merged nodes.
    pub plan: UnitPlan,
    /// Shared mini-batch size.
    pub batch_size: usize,
    /// Unit epoch count: the maximum over members (members with smaller
    /// budgets stop updating after their own epochs).
    pub epochs: usize,
    /// Per-member epoch budgets, aligned with `members`.
    pub member_epochs: Vec<usize>,
    /// Epoch-weighted training cost (planner FLOPs per record for the whole
    /// cycle's epochs).
    pub weighted_cost_flops: f64,
    /// Estimated peak training memory.
    pub memory: MemoryEstimate,
}

fn optimizer_state_factor(spec: &OptimizerSpec) -> f64 {
    match spec {
        OptimizerSpec::Sgd { momentum, .. } => {
            if *momentum == 0.0 {
                0.0
            } else {
                1.0
            }
        }
        OptimizerSpec::Adam { .. } => 2.0,
    }
}

fn unit_state_factor(candidates: &[CandidateModel], members: &[usize]) -> f64 {
    members
        .iter()
        .map(|&m| optimizer_state_factor(&candidates[m].hyper.optimizer))
        .fold(0.0, f64::max)
}

/// The backward-pass surcharge (in planner FLOPs per record) a single
/// member adds on top of the shared forward work: `(multiplier − 1) ×
/// forward` summed over the member's *computed* layers. Shared
/// materializable layers have multiplier 1 and contribute nothing, so this
/// is exactly the per-member branch cost.
pub fn member_extra_flops(
    multi: &MultiModelGraph,
    actions: &BTreeMap<MNodeId, NodeAction>,
    member: usize,
) -> f64 {
    let mut seen = BTreeSet::new();
    let mut extra = 0.0;
    for &m in &multi.mappings[member].node_to_merged {
        if !seen.insert(m) {
            continue;
        }
        if actions.get(&m).copied() == Some(NodeAction::Computed) {
            let p = &multi.node(m).profile;
            extra += (p.ccomp_multiplier() - 1) as f64 * p.fwd_flops as f64;
        }
    }
    extra
}

/// Epoch-weighted training cost of a (possibly fused) unit, in planner
/// FLOPs per record over the whole cycle: every present layer's forward
/// (or load) runs for the unit's maximum epochs, and each member's
/// backward surcharge runs for that member's own epochs.
pub fn unit_cost_flops(
    multi: &MultiModelGraph,
    actions: &BTreeMap<MNodeId, NodeAction>,
    candidates: &[CandidateModel],
    members: &[usize],
    cfg: &SystemConfig,
) -> f64 {
    let max_e =
        members.iter().map(|&m| candidates[m].hyper.epochs).max().unwrap_or(1) as f64;
    let mut total = 0.0;
    for (&m, &a) in actions {
        let node = multi.node(m);
        match a {
            NodeAction::Pruned => {}
            NodeAction::Loaded => {
                total += cfg.planner.load_cost_flops(node.profile.out_bytes) * max_e;
            }
            NodeAction::Computed => {
                total += node.profile.fwd_flops as f64 * max_e;
            }
        }
    }
    for &mi in members {
        total += member_extra_flops(multi, actions, mi) * candidates[mi].hyper.epochs as f64;
    }
    total
}

fn build_unit(
    multi: &MultiModelGraph,
    candidates: &[CandidateModel],
    members: Vec<usize>,
    cfg: &SystemConfig,
    plan_of: &impl Fn(&[usize]) -> UnitPlan,
) -> TrainUnit {
    let plan = plan_of(&members);
    let batch_size = candidates[members[0]].hyper.batch_size;
    let member_epochs: Vec<usize> =
        members.iter().map(|&m| candidates[m].hyper.epochs).collect();
    let epochs = member_epochs.iter().copied().max().unwrap_or(1);
    let weighted_cost_flops = unit_cost_flops(multi, &plan.actions, candidates, &members, cfg);
    let memory = estimate_peak_memory(
        multi,
        &plan.actions,
        batch_size,
        cfg.workspace_bytes,
        unit_state_factor(candidates, &members),
    );
    TrainUnit { members, plan, batch_size, epochs, member_epochs, weighted_cost_flops, memory }
}

/// Runs Algorithm 1 over the fixed-`V` reuse plans. With `enabled = false`
/// every candidate stays its own unit (the MAT-only ablation).
pub fn fuse_models(
    multi: &MultiModelGraph,
    candidates: &[CandidateModel],
    v: &BTreeSet<MNodeId>,
    cfg: &SystemConfig,
    enabled: bool,
) -> Vec<TrainUnit> {
    let _sp = telemetry::span("planner", "planner.fuse");
    fuse_with(multi, candidates, cfg, enabled, |members| plan_given_v(multi, members, v, cfg))
}

/// Algorithm 1 over the reuse plans `plan_of(members)` returns. The
/// baselines call it unfused over the no-reuse (Current Practice) or
/// load-everything (MAT-ALL) plans, so every [`TrainUnit`] is built here;
/// the differential tests drive it with the MILP form of [`plan_given_v`].
pub(crate) fn fuse_with(
    multi: &MultiModelGraph,
    candidates: &[CandidateModel],
    cfg: &SystemConfig,
    enabled: bool,
    plan_of: impl Fn(&[usize]) -> UnitPlan,
) -> Vec<TrainUnit> {
    // Q' := singleton units with their optimal reuse plans.
    let mut next_id = 0u64;
    let mut units: Vec<(u64, TrainUnit)> = (0..candidates.len())
        .map(|i| {
            let id = next_id;
            next_id += 1;
            (id, build_unit(multi, candidates, vec![i], cfg, &plan_of))
        })
        .collect();
    if !enabled || units.len() < 2 {
        return units.into_iter().map(|(_, u)| u).collect();
    }

    // Pair-evaluation cache: (id_lo, id_hi) -> Some(reduction, fused unit)
    // when fusible with positive gain, None otherwise.
    let mut cache: HashMap<(u64, u64), Option<(f64, TrainUnit)>> = HashMap::new();

    loop {
        let mut best: Option<(usize, usize, f64)> = None;
        for a in 0..units.len() {
            for b in (a + 1)..units.len() {
                let (ida, ua) = (&units[a].0, &units[a].1);
                let (idb, ub) = (&units[b].0, &units[b].1);
                if ua.batch_size != ub.batch_size {
                    continue;
                }
                let key = (*ida.min(idb), *ida.max(idb));
                let entry = cache.entry(key).or_insert_with(|| {
                    let mut members: Vec<usize> =
                        ua.members.iter().chain(&ub.members).copied().collect();
                    members.sort_unstable();
                    let fused = build_unit(multi, candidates, members, cfg, &plan_of);
                    if fused.memory.total() > cfg.memory_budget_bytes {
                        return None;
                    }
                    let reduction = ua.weighted_cost_flops + ub.weighted_cost_flops
                        - fused.weighted_cost_flops;
                    if reduction > 1e-6 {
                        Some((reduction, fused))
                    } else {
                        None
                    }
                });
                if let Some((reduction, _)) = entry {
                    let r = *reduction;
                    if best.is_none_or(|(_, _, br)| r > br) {
                        best = Some((a, b, r));
                    }
                }
            }
        }
        let Some((a, b, _)) = best else { break };
        let key = (
            units[a].0.min(units[b].0),
            units[a].0.max(units[b].0),
        );
        let (_, fused) = cache
            .remove(&key)
            .flatten()
            .expect("best pair came from cache");
        // Remove b first (higher index), then a.
        units.remove(b);
        units.remove(a);
        let id = next_id;
        next_id += 1;
        units.push((id, fused));
    }

    units.sort_by_key(|(_, u)| u.members[0]);
    units.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Hyper;
    use nautilus_dnn::TaskKind;
    use nautilus_models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
    use nautilus_models::BuildScale;

    fn candidate(strategy: FeatureStrategy, lr: f32, batch: usize, epochs: usize) -> CandidateModel {
        let cfg = BertConfig::tiny(8, 50);
        CandidateModel {
            name: format!("{}-{lr}-b{batch}-e{epochs}", strategy.label()),
            graph: feature_transfer_model(&cfg, strategy, 9, BuildScale::Real).unwrap(),
            hyper: Hyper { batch_size: batch, epochs, optimizer: OptimizerSpec::adam(lr) },
            task: TaskKind::TokenTagging,
        }
    }

    fn tiny_cfg() -> SystemConfig {
        SystemConfig::tiny()
    }

    #[test]
    fn disabled_fusion_keeps_singletons() {
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 8, 2),
            candidate(FeatureStrategy::LastHidden, 0.02, 8, 2),
        ];
        let multi = MultiModelGraph::build(&cands);
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &tiny_cfg(), false);
        assert_eq!(units.len(), 2);
        assert!(units.iter().all(|u| u.members.len() == 1));
    }

    #[test]
    fn shared_backbone_models_fuse() {
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 8, 2),
            candidate(FeatureStrategy::LastHidden, 0.02, 8, 2),
            candidate(FeatureStrategy::SumLast4, 0.01, 8, 2),
        ];
        let multi = MultiModelGraph::build(&cands);
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &tiny_cfg(), true);
        assert_eq!(units.len(), 1, "all three share the frozen backbone");
        assert_eq!(units[0].members, vec![0, 1, 2]);
        // Fused cost strictly below the sum of solo costs.
        let solo: f64 = (0..3)
            .map(|i| plan_given_v(&multi, &[i], &BTreeSet::new(), &tiny_cfg()).cost_flops)
            .sum();
        assert!(units[0].plan.cost_flops < solo);
    }

    #[test]
    fn different_batch_sizes_never_fuse() {
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 8, 2),
            candidate(FeatureStrategy::LastHidden, 0.02, 16, 2),
        ];
        let multi = MultiModelGraph::build(&cands);
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &tiny_cfg(), true);
        assert_eq!(units.len(), 2);
    }

    #[test]
    fn different_epochs_fuse_with_epoch_weighted_gain() {
        // A shared backbone dominates the branch cost, so fusing a 2-epoch
        // and a 4-epoch model pays off: the backbone runs 4 epochs instead
        // of 2 + 4 = 6.
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 8, 2),
            candidate(FeatureStrategy::LastHidden, 0.02, 8, 4),
        ];
        let multi = MultiModelGraph::build(&cands);
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &tiny_cfg(), true);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].epochs, 4);
        assert_eq!(units[0].member_epochs, vec![2, 4]);
        // Weighted cost strictly below the sum of solo weighted costs.
        let solo: f64 = (0..2)
            .map(|i| {
                let plan = plan_given_v(&multi, &[i], &BTreeSet::new(), &tiny_cfg());
                unit_cost_flops(&multi, &plan.actions, &cands, &[i], &tiny_cfg())
            })
            .sum();
        assert!(units[0].weighted_cost_flops < solo);
    }

    #[test]
    fn epoch_weighted_cost_matches_hand_formula() {
        // Singleton unit: weighted cost == per-record ccomp x epochs.
        let cands = vec![candidate(FeatureStrategy::LastHidden, 0.01, 8, 3)];
        let multi = MultiModelGraph::build(&cands);
        let plan = plan_given_v(&multi, &[0], &BTreeSet::new(), &tiny_cfg());
        let weighted = unit_cost_flops(&multi, &plan.actions, &cands, &[0], &tiny_cfg());
        // no_reuse per-record cost (fwd+extras+input load) x 3 epochs.
        assert!((weighted - 3.0 * plan.cost_flops).abs() < 1e-3 * weighted.abs().max(1.0),
            "weighted {weighted} vs 3x per-record {}", 3.0 * plan.cost_flops);
    }

    #[test]
    fn memory_budget_limits_fusion() {
        let cands: Vec<CandidateModel> = (0..4)
            .map(|i| candidate(FeatureStrategy::LastHidden, 0.01 + i as f32 * 0.01, 8, 2))
            .collect();
        let multi = MultiModelGraph::build(&cands);
        let generous = fuse_models(&multi, &cands, &BTreeSet::new(), &tiny_cfg(), true);
        assert_eq!(generous.len(), 1);

        // A budget just above a single unit's need blocks all fusion.
        let solo_mem = solo_memory(&multi, &cands);
        let tight = tiny_cfg().into_builder().memory_budget_bytes(solo_mem + 1024).build();
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &tight, true);
        assert_eq!(units.len(), 4, "no pair fits in the tight budget");

        // A budget between one member's need and all four's: fusion stops
        // short, and every fused unit fits.
        let mid = tiny_cfg()
            .into_builder()
            .memory_budget_bytes((solo_mem + generous[0].memory.total()) / 2)
            .build();
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &mid, true);
        assert!(units.len() > 1, "the four-member unit exceeds the budget");
        for u in units.iter().filter(|u| u.members.len() >= 2) {
            assert!(u.memory.total() <= mid.memory_budget_bytes, "{:?}", u.members);
        }
    }

    fn solo_memory(multi: &MultiModelGraph, cands: &[CandidateModel]) -> u64 {
        let cfg = tiny_cfg();
        let v = BTreeSet::new();
        build_unit(multi, cands, vec![0], &cfg, &|m: &[usize]| plan_given_v(multi, m, &v, &cfg))
            .memory
            .total()
    }

    #[test]
    fn all_members_covered_exactly_once() {
        let cands: Vec<CandidateModel> = (0..5)
            .map(|i| {
                candidate(
                    if i % 2 == 0 { FeatureStrategy::LastHidden } else { FeatureStrategy::SumLast4 },
                    0.01 + i as f32 * 0.005,
                    if i < 3 { 8 } else { 16 },
                    2,
                )
            })
            .collect();
        let multi = MultiModelGraph::build(&cands);
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &tiny_cfg(), true);
        let mut covered: Vec<usize> = units.iter().flat_map(|u| u.members.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, vec![0, 1, 2, 3, 4]);
        // Two batch-size families -> at least two units.
        assert!(units.len() >= 2);
    }
}
