//! Materialization optimization (paper §4.2): MILP-based joint selection of
//! materialized layers and reuse plans.
//!
//! Implementation notes relative to Eq 8–10:
//!
//! * Candidates with identical graphs (differing only in learning rate,
//!   batch size, or epochs) are grouped into one weighted variable block —
//!   an exact reduction, since their `X`/`Y` sub-problems are identical and
//!   only the `r · epochs(φᵢ)` weight differs.
//! * Constraint (c) is enforced **per parent** (`X_parent ≥ Y_child`)
//!   rather than as the paper's sum form, which is only equivalent for
//!   single-parent chains; the per-parent form is required for DAGs with
//!   multi-input layers (Add/Concat).
//! * Input placeholders may be pruned (when a loaded feature makes raw data
//!   unnecessary) or loaded (`q(l) = loaded`), but never "computed": `Y` is
//!   pinned to zero for them, otherwise the solver would manufacture raw
//!   data for free.
//! * Costs enter the objective in GFLOPs and storage in GB to keep the
//!   simplex well-conditioned.

use crate::config::SystemConfig;
use crate::multimodel::{MNodeId, MultiModelGraph};
use crate::spec::CandidateModel;
use nautilus_milp::{solve, BbOptions, LinExpr, MilpStatus, Problem, VarId};
use nautilus_util::telemetry;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

const GFLOP: f64 = 1e-9;
const GB: f64 = 1e-9;

/// What a reuse plan does with a layer (paper `q(l, M)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeAction {
    /// The layer is absent from the plan.
    Pruned,
    /// Present; its output is computed from its parents.
    Computed,
    /// Present; its output is loaded (materialized feature or raw input).
    Loaded,
}

/// Statistics of one MILP solve (reported by the §5.3 drill-down).
#[derive(Debug, Clone)]
pub struct MilpRunStats {
    /// Solver status.
    pub status: MilpStatus,
    /// Objective value (GFLOP-scaled cost).
    pub objective: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Solve wall time.
    pub elapsed: Duration,
    /// Variable count.
    pub num_vars: usize,
    /// Constraint count.
    pub num_constraints: usize,
}

/// Result of the global materialization optimization.
#[derive(Debug, Clone)]
pub struct MatOptResult {
    /// The chosen set `V` of merged nodes to materialize (after discarding
    /// selected-but-unused layers, §4.2.2's post-processing step).
    pub materialized: BTreeSet<MNodeId>,
    /// MILP statistics.
    pub milp: MilpRunStats,
    /// Number of interchangeable graph groups the MILP was built over.
    pub groups: usize,
}

/// Result of solving a reuse plan with `V` fixed (§4.3.2).
#[derive(Debug, Clone)]
pub struct UnitPlan {
    /// Action per reachable merged node.
    pub actions: BTreeMap<MNodeId, NodeAction>,
    /// Per-record plan cost in planner FLOPs (Eq 5).
    pub cost_flops: f64,
    /// MILP statistics.
    pub milp: Option<MilpRunStats>,
}

fn cload_flops(cfg: &SystemConfig, bytes: u64) -> f64 {
    cfg.planner.load_cost_flops(bytes)
}

/// Solves Eq 8–10: picks `V ⊆ U` within the disk budget minimizing total
/// weighted training cost. `max_records` is the paper's `r`.
pub fn choose_materialization(
    multi: &MultiModelGraph,
    candidates: &[CandidateModel],
    cfg: &SystemConfig,
    max_records: usize,
) -> MatOptResult {
    choose_materialization_grouped(multi, candidates, cfg, max_records, true)
}

/// [`choose_materialization`] with explicit control over the
/// interchangeable-group reduction — `grouped = false` builds one `X`/`Y`
/// block per model as in the paper's raw Eq 8–10 formulation (exposed for
/// the ablation benchmark; both settings produce the same optimum).
pub fn choose_materialization_grouped(
    multi: &MultiModelGraph,
    candidates: &[CandidateModel],
    cfg: &SystemConfig,
    max_records: usize,
    grouped: bool,
) -> MatOptResult {
    let _sp = telemetry::span("planner", "planner.choose_materialization");
    // Gauge: the disk constant this MILP run actually used (static default
    // or the measured/blended value from I/O calibration).
    telemetry::PLANNER_DISK_BPS.set(cfg.planner.disk_bytes_per_sec as u64);
    let groups = if grouped {
        multi.interchangeable_groups()
    } else {
        (0..candidates.len()).map(|i| vec![i]).collect()
    };
    let u_set = multi.mat_candidates();

    let mut problem = Problem::new();
    // Z variables, one per materialization candidate.
    let z_vars: BTreeMap<MNodeId, VarId> = u_set
        .iter()
        .map(|&m| (m, problem.binary(format!("Z[{}]", multi.node(m).name))))
        .collect();

    // Per-group X/Y blocks over the exemplar member's nodes.
    struct GroupBlock {
        exemplar: usize,
        xs: Vec<VarId>,
        ys: Vec<VarId>,
    }
    let mut blocks = Vec::with_capacity(groups.len());
    let mut objective = LinExpr::new();
    let r = max_records as f64;

    for group in &groups {
        let exemplar = group[0];
        let weight: f64 =
            group.iter().map(|&i| candidates[i].hyper.epochs as f64 * r).sum();
        let mapping = &multi.mappings[exemplar];
        let n = mapping.node_to_merged.len();
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for (j, &m) in mapping.node_to_merged.iter().enumerate() {
            let node = multi.node(m);
            let x = problem.binary(format!("X[g{exemplar}/{j}]"));
            let y = problem.binary(format!("Y[g{exemplar}/{j}]"));
            let ccomp = node.profile.ccomp_flops() as f64 * GFLOP;
            let cload = cload_flops(cfg, node.profile.out_bytes) * GFLOP;
            objective.add_term(x, weight * cload);
            objective.add_term(y, weight * (ccomp - cload));
            xs.push(x);
            ys.push(y);
        }
        // (a) outputs present.
        for o in candidates[exemplar].graph.outputs() {
            problem.ge(LinExpr::term(xs[o.index()], 1.0), 1.0);
        }
        for (j, &m) in mapping.node_to_merged.iter().enumerate() {
            let node = multi.node(m);
            // (b) computed => present.
            problem.ge(LinExpr::term(xs[j], 1.0).plus(ys[j], -1.0), 0.0);
            // (c) computed => every parent present (per-parent form).
            let model_node = candidates[exemplar].graph.node(nautilus_dnn::NodeId(j));
            for p in &model_node.inputs {
                problem.ge(LinExpr::term(xs[p.index()], 1.0).plus(ys[j], -1.0), 0.0);
            }
            // (d) loading requires materialization (or raw-input status).
            if node.is_input {
                // Inputs cannot be computed.
                problem.le(LinExpr::term(ys[j], 1.0), 0.0);
            } else if let Some(&z) = z_vars.get(&m) {
                problem.le(LinExpr::term(xs[j], 1.0).plus(ys[j], -1.0).plus(z, -1.0), 0.0);
            } else {
                // Non-materializable: present => computed.
                problem.le(LinExpr::term(xs[j], 1.0).plus(ys[j], -1.0), 0.0);
            }
        }
        blocks.push(GroupBlock { exemplar, xs, ys });
    }

    // (e) storage budget.
    let mut storage = LinExpr::new();
    for (&m, &z) in &z_vars {
        storage.add_term(z, multi.node(m).profile.out_bytes as f64 * r * GB);
    }
    problem.le(storage, cfg.disk_budget_bytes as f64 * GB);
    problem.minimize(objective);

    let options = BbOptions {
        max_nodes: cfg.milp_max_nodes,
        time_limit: Duration::from_secs(cfg.milp_time_limit_secs),
        ..Default::default()
    };
    let num_vars = problem.num_vars();
    let num_constraints = problem.num_constraints();
    let sol = solve(&problem, &options);

    let mut materialized = BTreeSet::new();
    if matches!(sol.status, MilpStatus::Optimal | MilpStatus::Feasible) {
        // Keep only Z's actually used by some load (post-processing).
        let mut used: BTreeSet<MNodeId> = BTreeSet::new();
        for block in &blocks {
            let mapping = &multi.mappings[block.exemplar];
            for (j, &m) in mapping.node_to_merged.iter().enumerate() {
                let x = sol.values[block.xs[j].index()].round() as i64;
                let y = sol.values[block.ys[j].index()].round() as i64;
                if x == 1 && y == 0 && !multi.node(m).is_input {
                    used.insert(m);
                }
            }
        }
        for (&m, &z) in &z_vars {
            if sol.values[z.index()].round() as i64 == 1 && used.contains(&m) {
                materialized.insert(m);
            }
        }
    }
    MatOptResult {
        materialized,
        milp: MilpRunStats {
            status: sol.status,
            objective: sol.objective,
            nodes: sol.nodes,
            elapsed: sol.elapsed,
            num_vars,
            num_constraints,
        },
        groups: groups.len(),
    }
}

/// Finds the optimal reuse plan for a (possibly fused) member set given a
/// fixed materialized set `V` (§4.3.2: the Eq 8–10 MILP without `Z`).
///
/// The returned cost is per record in planner FLOPs, with shared
/// materializable nodes counted once — the fused training cost `C(M_opt)`.
pub fn plan_given_v(
    multi: &MultiModelGraph,
    members: &[usize],
    v: &BTreeSet<MNodeId>,
    cfg: &SystemConfig,
) -> UnitPlan {
    let reachable = multi.reachable_from(members);
    let mut problem = Problem::new();
    let mut xs: BTreeMap<MNodeId, VarId> = BTreeMap::new();
    let mut ys: BTreeMap<MNodeId, VarId> = BTreeMap::new();
    let mut objective = LinExpr::new();
    for &m in &reachable {
        let node = multi.node(m);
        let x = problem.binary(format!("X[{}]", node.name));
        let y = problem.binary(format!("Y[{}]", node.name));
        let ccomp = node.profile.ccomp_flops() as f64 * GFLOP;
        let cload = cload_flops(cfg, node.profile.out_bytes) * GFLOP;
        objective.add_term(x, cload);
        objective.add_term(y, ccomp - cload);
        xs.insert(m, x);
        ys.insert(m, y);
    }
    for &mi in members {
        for &o in &multi.mappings[mi].outputs {
            problem.ge(LinExpr::term(xs[&o], 1.0), 1.0);
        }
    }
    for &m in &reachable {
        let node = multi.node(m);
        problem.ge(LinExpr::term(xs[&m], 1.0).plus(ys[&m], -1.0), 0.0);
        for p in &node.parents {
            problem.ge(LinExpr::term(xs[p], 1.0).plus(ys[&m], -1.0), 0.0);
        }
        if node.is_input {
            problem.le(LinExpr::term(ys[&m], 1.0), 0.0);
        } else if node.materializable && v.contains(&m) {
            // Loading permitted: X - Y <= 1 always true; nothing to add.
        } else {
            problem.le(LinExpr::term(xs[&m], 1.0).plus(ys[&m], -1.0), 0.0);
        }
    }
    problem.minimize(objective);
    let options = BbOptions {
        max_nodes: cfg.milp_max_nodes,
        time_limit: Duration::from_secs(cfg.milp_time_limit_secs),
        ..Default::default()
    };
    let num_vars = problem.num_vars();
    let num_constraints = problem.num_constraints();
    let sol = solve(&problem, &options);

    let mut actions = BTreeMap::new();
    if matches!(sol.status, MilpStatus::Optimal | MilpStatus::Feasible) {
        for &m in &reachable {
            let x = sol.values[xs[&m].index()].round() as i64;
            let y = sol.values[ys[&m].index()].round() as i64;
            let action = match (x, y) {
                (0, _) => NodeAction::Pruned,
                (1, 1) => NodeAction::Computed,
                (1, 0) => NodeAction::Loaded,
                _ => unreachable!("binary variables"),
            };
            actions.insert(m, action);
        }
    } else {
        // Degrade to the no-reuse plan: everything computed, inputs loaded.
        for &m in &reachable {
            let node = multi.node(m);
            actions
                .insert(m, if node.is_input { NodeAction::Loaded } else { NodeAction::Computed });
        }
    }
    let cost_flops = plan_cost_flops(multi, &actions, cfg);
    UnitPlan {
        actions,
        cost_flops,
        milp: Some(MilpRunStats {
            status: sol.status,
            objective: sol.objective,
            nodes: sol.nodes,
            elapsed: sol.elapsed,
            num_vars,
            num_constraints,
        }),
    }
}

/// The MAT-ALL baseline plan (§5.1): load *every* materializable frontier
/// layer regardless of whether computing it would be cheaper, prune
/// everything below, compute the rest.
pub fn mat_all_plan(
    multi: &MultiModelGraph,
    members: &[usize],
    cfg: &SystemConfig,
) -> UnitPlan {
    let reachable = multi.reachable_from(members);
    let in_unit: BTreeSet<MNodeId> = reachable.iter().copied().collect();
    let children = multi.children();
    let member_outputs: BTreeSet<MNodeId> = members
        .iter()
        .flat_map(|&m| multi.mappings[m].outputs.iter().copied())
        .collect();
    let mut actions = BTreeMap::new();
    for &m in &reachable {
        let node = multi.node(m);
        let action = if node.materializable {
            // Frontier = feeds a non-materializable consumer in this unit,
            // or is itself a model output.
            let feeds_unfrozen = children[m.index()]
                .iter()
                .any(|c| in_unit.contains(c) && !multi.node(*c).materializable);
            if feeds_unfrozen || member_outputs.contains(&m) {
                NodeAction::Loaded
            } else {
                NodeAction::Pruned
            }
        } else {
            NodeAction::Computed
        };
        actions.insert(m, action);
    }
    let cost_flops = plan_cost_flops(multi, &actions, cfg);
    UnitPlan { actions, cost_flops, milp: None }
}

/// The no-reuse plan (Current Practice): every layer computed, raw inputs
/// loaded.
pub fn no_reuse_plan(
    multi: &MultiModelGraph,
    members: &[usize],
    cfg: &SystemConfig,
) -> UnitPlan {
    let reachable = multi.reachable_from(members);
    let mut actions = BTreeMap::new();
    for &m in &reachable {
        let node = multi.node(m);
        actions.insert(m, if node.is_input { NodeAction::Loaded } else { NodeAction::Computed });
    }
    let cost_flops = plan_cost_flops(multi, &actions, cfg);
    UnitPlan { actions, cost_flops, milp: None }
}

/// Eq 5: per-record plan cost in planner FLOPs.
pub fn plan_cost_flops(
    multi: &MultiModelGraph,
    actions: &BTreeMap<MNodeId, NodeAction>,
    cfg: &SystemConfig,
) -> f64 {
    actions
        .iter()
        .map(|(&m, &a)| {
            let node = multi.node(m);
            match a {
                NodeAction::Pruned => 0.0,
                NodeAction::Computed => node.profile.ccomp_flops() as f64,
                NodeAction::Loaded => cload_flops(cfg, node.profile.out_bytes),
            }
        })
        .sum()
}

/// The set of materialized layers a plan actually loads (excluding raw
/// inputs) — used to validate budgets and drive the materializer.
pub fn loads_of(
    multi: &MultiModelGraph,
    actions: &BTreeMap<MNodeId, NodeAction>,
) -> BTreeSet<MNodeId> {
    actions
        .iter()
        .filter(|(&m, &a)| a == NodeAction::Loaded && !multi.node(m).is_input)
        .map(|(&m, _)| m)
        .collect()
}

/// Checks Def 4.5's structural plan conditions: all member outputs present;
/// computed nodes have all parents present; loaded nodes are materialized
/// or inputs.
pub fn validate_plan(
    multi: &MultiModelGraph,
    members: &[usize],
    v: &BTreeSet<MNodeId>,
    actions: &BTreeMap<MNodeId, NodeAction>,
) -> Result<(), String> {
    for &mi in members {
        for o in &multi.mappings[mi].outputs {
            if actions.get(o).copied().unwrap_or(NodeAction::Pruned) == NodeAction::Pruned {
                return Err(format!("output {} pruned", multi.node(*o).name));
            }
        }
    }
    for (&m, &a) in actions {
        let node = multi.node(m);
        match a {
            NodeAction::Pruned => {}
            NodeAction::Computed => {
                if node.is_input {
                    return Err(format!("input {} marked computed", node.name));
                }
                for p in &node.parents {
                    if actions.get(p).copied().unwrap_or(NodeAction::Pruned)
                        == NodeAction::Pruned
                    {
                        return Err(format!(
                            "computed {} has pruned parent {}",
                            node.name,
                            multi.node(*p).name
                        ));
                    }
                }
            }
            NodeAction::Loaded => {
                if !node.is_input && !v.contains(&m) {
                    return Err(format!("loaded {} not materialized", node.name));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Hyper;
    use nautilus_dnn::{OptimizerSpec, TaskKind};
    use nautilus_models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
    use nautilus_models::resnet::{fine_tune_model, ResNetConfig};
    use nautilus_models::BuildScale;

    fn bert_candidate(strategy: FeatureStrategy, lr: f32) -> CandidateModel {
        let cfg = BertConfig::tiny(8, 50);
        CandidateModel {
            name: format!("{}-{lr}", strategy.label()),
            graph: feature_transfer_model(&cfg, strategy, 9, BuildScale::Real).unwrap(),
            hyper: Hyper { batch_size: 8, epochs: 5, optimizer: OptimizerSpec::adam(lr) },
            task: TaskKind::TokenTagging,
        }
    }

    fn cfg_with_budget(bytes: u64) -> SystemConfig {
        SystemConfig::tiny().into_builder().disk_budget_bytes(bytes).build()
    }

    #[test]
    fn zero_budget_materializes_nothing() {
        let cands = vec![bert_candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let res = choose_materialization(&multi, &cands, &cfg_with_budget(0), 100);
        assert!(res.materialized.is_empty());
        assert_eq!(res.groups, 1);
    }

    #[test]
    fn generous_budget_materializes_the_feature_frontier() {
        // Planner config where loading is much cheaper than computing.
        let mut cfg = cfg_with_budget(1 << 30);
        cfg.planner.flops_per_sec = 5e9; // tiny model: make compute "slow"
        cfg.planner.disk_bytes_per_sec = 500e6;
        let cands = vec![
            bert_candidate(FeatureStrategy::LastHidden, 0.01),
            bert_candidate(FeatureStrategy::LastHidden, 0.02),
        ];
        let multi = MultiModelGraph::build(&cands);
        let res = choose_materialization(&multi, &cands, &cfg, 100);
        assert_eq!(res.milp.status, MilpStatus::Optimal);
        assert_eq!(res.groups, 1, "lr-only variants group together");
        assert!(!res.materialized.is_empty());
        // The last hidden block output should be chosen (it cuts the whole
        // backbone).
        let names: Vec<&str> = res
            .materialized
            .iter()
            .map(|&m| multi.node(m).name.as_str())
            .collect();
        assert!(names.contains(&"bert/block5"), "{names:?}");
        // And a plan given V loads it.
        let plan = plan_given_v(&multi, &[0], &res.materialized, &cfg);
        validate_plan(&multi, &[0], &res.materialized, &plan.actions).unwrap();
        let loads = loads_of(&multi, &plan.actions);
        assert!(!loads.is_empty());
        // The plan must beat the no-reuse plan.
        let base = no_reuse_plan(&multi, &[0], &cfg);
        assert!(plan.cost_flops < base.cost_flops);
    }

    #[test]
    fn storage_budget_is_respected() {
        let mut cfg = cfg_with_budget(0);
        cfg.planner.flops_per_sec = 5e9;
        let cands = vec![bert_candidate(FeatureStrategy::ConcatLast4, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let r = 1000usize;
        // Budget for exactly one block output: 8 tokens * 32 dim * 4 B * r.
        let one_block = 8 * 32 * 4 * r as u64;
        cfg.disk_budget_bytes = one_block + 100;
        let res = choose_materialization(&multi, &cands, &cfg, r);
        let total: u64 = res
            .materialized
            .iter()
            .map(|&m| multi.node(m).profile.out_bytes * r as u64)
            .sum();
        assert!(total <= cfg.disk_budget_bytes, "{total} > {}", cfg.disk_budget_bytes);
        assert!(res.materialized.len() <= 1);
    }

    #[test]
    fn plan_given_empty_v_computes_everything() {
        let cfg = cfg_with_budget(1 << 30);
        let cands = vec![bert_candidate(FeatureStrategy::SumLast4, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let plan = plan_given_v(&multi, &[0], &BTreeSet::new(), &cfg);
        for (&m, &a) in &plan.actions {
            if multi.node(m).is_input {
                assert_eq!(a, NodeAction::Loaded);
            } else {
                assert_eq!(a, NodeAction::Computed, "{}", multi.node(m).name);
            }
        }
        let base = no_reuse_plan(&multi, &[0], &cfg);
        assert!((plan.cost_flops - base.cost_flops).abs() < 1.0);
    }

    #[test]
    fn fused_plan_counts_shared_nodes_once() {
        let cfg = cfg_with_budget(1 << 30);
        let cands = vec![
            bert_candidate(FeatureStrategy::LastHidden, 0.01),
            bert_candidate(FeatureStrategy::LastHidden, 0.02),
        ];
        let multi = MultiModelGraph::build(&cands);
        let v = BTreeSet::new();
        let solo = plan_given_v(&multi, &[0], &v, &cfg);
        let fused = plan_given_v(&multi, &[0, 1], &v, &cfg);
        // Fused cost < 2x solo: the backbone is shared.
        assert!(fused.cost_flops < 1.5 * solo.cost_flops, "{} vs {}", fused.cost_flops, solo.cost_flops);
        assert!(fused.cost_flops > solo.cost_flops);
        validate_plan(&multi, &[0, 1], &v, &fused.actions).unwrap();
    }

    #[test]
    fn mat_all_loads_frontier_and_prunes_below() {
        let cfg = cfg_with_budget(1 << 30);
        let cands = vec![bert_candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let plan = mat_all_plan(&multi, &[0], &cfg);
        // The last block is loaded; lower blocks and embedding pruned.
        let mut loaded = Vec::new();
        let mut pruned = Vec::new();
        for (&m, &a) in &plan.actions {
            match a {
                NodeAction::Loaded if !multi.node(m).is_input => {
                    loaded.push(multi.node(m).name.clone())
                }
                NodeAction::Pruned => pruned.push(multi.node(m).name.clone()),
                _ => {}
            }
        }
        assert_eq!(loaded, vec!["bert/block5"]);
        assert!(pruned.iter().any(|n| n == "bert/block0"));
        assert!(pruned.iter().any(|n| n == "bert/embedding"));
    }

    #[test]
    fn solver_budget_exhaustion_degrades_gracefully() {
        // A zero node budget means no incumbent is ever found: the
        // materialization step must return an empty V (not panic), and the
        // unit planner must fall back to the no-reuse plan.
        let mut cfg = cfg_with_budget(1 << 30);
        cfg.milp_max_nodes = 0;
        let cands = vec![bert_candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let res = choose_materialization(&multi, &cands, &cfg, 100);
        assert!(res.materialized.is_empty());

        let plan = plan_given_v(&multi, &[0], &res.materialized, &cfg);
        validate_plan(&multi, &[0], &res.materialized, &plan.actions).unwrap();
        let base = no_reuse_plan(&multi, &[0], &cfg);
        assert!((plan.cost_flops - base.cost_flops).abs() < 1.0);
    }

    #[test]
    fn grouped_and_ungrouped_milp_agree() {
        let mut cfg = cfg_with_budget(1 << 30);
        cfg.planner.flops_per_sec = 5e9;
        let cands = vec![
            bert_candidate(FeatureStrategy::LastHidden, 0.01),
            bert_candidate(FeatureStrategy::LastHidden, 0.02),
            bert_candidate(FeatureStrategy::SumLast4, 0.01),
        ];
        let multi = MultiModelGraph::build(&cands);
        let grouped = choose_materialization_grouped(&multi, &cands, &cfg, 100, true);
        let ungrouped = choose_materialization_grouped(&multi, &cands, &cfg, 100, false);
        assert_eq!(grouped.materialized, ungrouped.materialized);
        assert!((grouped.milp.objective - ungrouped.milp.objective).abs() < 1e-6);
        assert!(grouped.milp.num_vars < ungrouped.milp.num_vars);
    }

    #[test]
    fn fine_tune_plan_stops_at_frozen_frontier() {
        let mut cfg = cfg_with_budget(1 << 30);
        cfg.planner.flops_per_sec = 2e9;
        let rcfg = ResNetConfig::tiny(16);
        let cands = vec![CandidateModel {
            name: "ftu-3".into(),
            graph: fine_tune_model(&rcfg, 3, 2, BuildScale::Real).unwrap(),
            hyper: Hyper { batch_size: 8, epochs: 5, optimizer: OptimizerSpec::sgd(0.01) },
            task: TaskKind::Classification,
        }];
        let multi = MultiModelGraph::build(&cands);
        let res = choose_materialization(&multi, &cands, &cfg, 200);
        // Can only materialize below block 13 (16-3). The deepest loadable
        // frontier is block12's output.
        for &m in &res.materialized {
            assert!(multi.node(m).materializable);
        }
        let plan = plan_given_v(&multi, &[0], &res.materialized, &cfg);
        validate_plan(&multi, &[0], &res.materialized, &plan.actions).unwrap();
        // Trainable blocks must be computed.
        for (&m, &a) in &plan.actions {
            if multi.node(m).name == "resnet/block15" {
                assert_eq!(a, NodeAction::Computed);
            }
        }
    }
}
