//! Materialization optimization (paper §4.2): MILP-based selection of the
//! materialized layers, and exact reuse plans for a fixed materialized set.
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
//!
//! Once `V` is fixed (§4.3.2, every unit and pair FUSE OPT evaluates), the
//! program has no `Z` and no budget row. What remains is a minimum-weight
//! closure, which [`plan_given_v`] solves exactly as one s–t min-cut over
//! the unit's reachable merged nodes, with no MILP:
//!
//! * each node has a present variable `X` of weight `cload` and a computed
//!   variable `Y` of weight `ccomp − cload`;
//! * the implications `Y ⇒ X`, `Y_child ⇒ X_parent`, and `X ⇒ Y` for a
//!   node that cannot be loaded (not in `V`, not an input) are infinite
//!   edges;
//! * member outputs are forced present and inputs are never computed.
//!
//! A merged node is one variable pair however many members reach it, so
//! shared ancestors are counted once by construction. Capacities are
//! fixed-point integers, so the cut is exact. On an exact tie the plan is
//! the minimal source side: it prunes before it loads, and loads before it
//! computes.

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

/// Fixed-point scale of the cut's capacities, in units per planner FLOP.
/// Integral capacities keep the max-flow exact, so an exact cost tie stays
/// a tie and the tie rule of [`plan_given_v`] decides it.
const CUT_UNITS_PER_FLOP: f64 = 65536.0;

/// Finds the optimal reuse plan for a (possibly fused) member set given a
/// fixed materialized set `V` (§4.3.2: the Eq 8–10 program without `Z`).
///
/// With `V` fixed the program is a minimum-weight closure, solved exactly
/// as one s–t min-cut over the unit's reachable merged nodes (see the
/// module docs). On exact cost ties the plan is the cut's minimal source
/// side: a node is pruned rather than loaded, and loaded rather than
/// computed.
///
/// The returned cost is per record in planner FLOPs, with shared
/// materializable nodes counted once — the fused training cost `C(M_opt)`.
pub fn plan_given_v(
    multi: &MultiModelGraph,
    members: &[usize],
    v: &BTreeSet<MNodeId>,
    cfg: &SystemConfig,
) -> UnitPlan {
    let mut cut = ReuseCut::build(multi, members, v, cfg);
    let side = cut.net.min_cut_source_side();
    let actions = cut.actions(&side);
    let cost_flops = plan_cost_flops(multi, &actions, cfg);
    UnitPlan { actions, cost_flops }
}

const SOURCE: usize = 0;
const SINK: usize = 1;
/// Capacity of an implication edge: never cut, since the no-reuse plan is
/// always a finite cut.
const INF: i128 = i128::MAX / 4;

/// One unit's fixed-`V` reuse problem as a flow network. A vertex on the
/// source side is a variable set to 1. Vertex `2 + k` is the `X` (present)
/// variable of `reachable[k]`; a node that cannot be loaded has `X ⇔ Y`
/// and shares that vertex for `Y`, a loadable node gets its own `Y`
/// vertex, and an input has no `Y` (it is never computed).
struct ReuseCut {
    reachable: Vec<MNodeId>,
    /// The `Y` (computed) vertex of each reachable node.
    computed: Vec<Option<usize>>,
    net: FlowNet,
}

impl ReuseCut {
    fn build(
        multi: &MultiModelGraph,
        members: &[usize],
        v: &BTreeSet<MNodeId>,
        cfg: &SystemConfig,
    ) -> ReuseCut {
        let reachable = multi.reachable_from(members);
        let mut x_of = vec![usize::MAX; multi.nodes.len()];
        for (k, &m) in reachable.iter().enumerate() {
            x_of[m.index()] = 2 + k;
        }
        let fixed = |flops: f64| (flops * CUT_UNITS_PER_FLOP).round() as i128;
        // At most two weights, `Y ⇒ X` and one edge per parent per node,
        // plus one per member output.
        let max_edges = reachable
            .iter()
            .map(|&m| 3 + multi.node(m).parents.len())
            .chain(members.iter().map(|&mi| multi.mappings[mi].outputs.len()))
            .sum();
        let mut net = FlowNet::new(2 + reachable.len(), max_edges);
        let mut computed = Vec::with_capacity(reachable.len());
        for (k, &m) in reachable.iter().enumerate() {
            let node = multi.node(m);
            let x = 2 + k;
            let ccomp = fixed(node.profile.ccomp_flops() as f64);
            let cload = fixed(cload_flops(cfg, node.profile.out_bytes));
            let y = if node.is_input {
                net.weight(x, cload);
                None
            } else if node.materializable && v.contains(&m) {
                let y = net.add_vertex();
                net.weight(x, cload);
                net.weight(y, ccomp - cload);
                net.edge(y, x, INF);
                Some(y)
            } else {
                // Present ⇔ computed: the X and Y weights sum to ccomp.
                net.weight(x, ccomp);
                Some(x)
            };
            if let Some(y) = y {
                for p in &node.parents {
                    net.edge(y, x_of[p.index()], INF);
                }
            }
            computed.push(y);
        }
        for &mi in members {
            for o in &multi.mappings[mi].outputs {
                net.edge(SOURCE, x_of[o.index()], INF);
            }
        }
        ReuseCut { reachable, computed, net }
    }

    /// Reads the plan off a closure (`side[v]`: variable `v` is 1).
    fn actions(&self, side: &[bool]) -> BTreeMap<MNodeId, NodeAction> {
        self.reachable
            .iter()
            .enumerate()
            .map(|(k, &m)| {
                let action = if !side[2 + k] {
                    NodeAction::Pruned
                } else if self.computed[k].is_some_and(|y| side[y]) {
                    NodeAction::Computed
                } else {
                    NodeAction::Loaded
                };
                (m, action)
            })
            .collect()
    }
}

/// A residual network for Dinic's max-flow. Edge `e` runs to `to[e]` with
/// residual capacity `cap[e]`, and edge `e ^ 1` is its reverse. The edges
/// leaving vertex `v` are `out[first[v]..first[v + 1]]`, in insertion
/// order, indexed once all edges are added.
struct FlowNet {
    vertices: usize,
    to: Vec<usize>,
    cap: Vec<i128>,
    first: Vec<usize>,
    out: Vec<usize>,
}

impl FlowNet {
    fn new(vertices: usize, max_edges: usize) -> FlowNet {
        FlowNet {
            vertices,
            to: Vec::with_capacity(2 * max_edges),
            cap: Vec::with_capacity(2 * max_edges),
            first: Vec::new(),
            out: Vec::new(),
        }
    }

    fn add_vertex(&mut self) -> usize {
        self.vertices += 1;
        self.vertices - 1
    }

    fn edge(&mut self, a: usize, b: usize, cap: i128) {
        self.to.extend([b, a]);
        self.cap.extend([cap, 0]);
    }

    /// Builds the per-vertex edge lists.
    fn index(&mut self) {
        let mut first = vec![0; self.vertices + 1];
        for e in 0..self.to.len() {
            first[self.to[e ^ 1] + 1] += 1;
        }
        for v in 0..self.vertices {
            first[v + 1] += first[v];
        }
        let mut fill = first.clone();
        let mut out = vec![0; self.to.len()];
        for e in 0..self.to.len() {
            let from = self.to[e ^ 1];
            out[fill[from]] = e;
            fill[from] += 1;
        }
        self.first = first;
        self.out = out;
    }

    /// The edges leaving `v`.
    fn edges(&self, v: usize) -> &[usize] {
        &self.out[self.first[v]..self.first[v + 1]]
    }

    /// Charges `w` for setting variable `v` to 1 (a negative `w` is a gain,
    /// paid as `−w` when `v` stays 0).
    fn weight(&mut self, v: usize, w: i128) {
        if w > 0 {
            self.edge(v, SINK, w);
        } else if w < 0 {
            self.edge(SOURCE, v, -w);
        }
    }

    /// Runs max-flow from [`SOURCE`] to [`SINK`] and returns the minimal
    /// source side of a minimum cut: the vertices still reachable from the
    /// source in the residual network.
    fn min_cut_source_side(&mut self) -> Vec<bool> {
        self.index();
        let mut level = vec![usize::MAX; self.vertices];
        let mut queue = Vec::with_capacity(self.vertices);
        let mut next = vec![0; self.vertices];
        loop {
            self.levels(&mut level, &mut queue);
            if level[SINK] == usize::MAX {
                return level.iter().map(|&l| l != usize::MAX).collect();
            }
            next.copy_from_slice(&self.first[..self.vertices]);
            while self.augment(SOURCE, INF, &level, &mut next) > 0 {}
        }
    }

    /// BFS distances from the source over edges with residual capacity.
    fn levels(&self, level: &mut [usize], queue: &mut Vec<usize>) {
        level.fill(usize::MAX);
        level[SOURCE] = 0;
        queue.clear();
        queue.push(SOURCE);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &e in self.edges(u) {
                let w = self.to[e];
                if self.cap[e] > 0 && level[w] == usize::MAX {
                    level[w] = level[u] + 1;
                    queue.push(w);
                }
            }
        }
    }

    /// Pushes up to `limit` along one level-increasing residual path from
    /// `u` to the sink; `next[u]` is the position in `out` of the first
    /// edge of `u` not yet found blocked in this phase.
    fn augment(&mut self, u: usize, limit: i128, level: &[usize], next: &mut [usize]) -> i128 {
        if u == SINK {
            return limit;
        }
        while next[u] < self.first[u + 1] {
            let e = self.out[next[u]];
            let w = self.to[e];
            if self.cap[e] > 0 && level[w] == level[u] + 1 {
                let pushed = self.augment(w, limit.min(self.cap[e]), level, next);
                if pushed > 0 {
                    self.cap[e] -= pushed;
                    self.cap[e ^ 1] += pushed;
                    return pushed;
                }
            }
            next[u] += 1;
        }
        0
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
            let feeds_unfrozen = node
                .children
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
    UnitPlan { actions, cost_flops }
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
    UnitPlan { actions, cost_flops }
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
    use crate::fusion::{fuse_models, fuse_with, TrainUnit};
    use crate::memory::MemoryEstimate;
    use crate::spec::Hyper;
    use crate::workloads::{Scale, WorkloadKind, WorkloadSpec};
    use nautilus_dnn::graph::{ModelGraph, ParamInit};
    use nautilus_dnn::{Activation, LayerKind, OptimizerSpec, TaskKind};
    use nautilus_models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
    use nautilus_models::resnet::{fine_tune_model, ResNetConfig};
    use nautilus_models::BuildScale;
    use nautilus_util::prop::{bools, prop_check, u64s, usizes, vec_of};
    use nautilus_util::rng::{Rng, SeedableRng, StdRng};
    use nautilus_util::{prop_assert, prop_assert_eq};

    /// The fixed-`V` program written as the MILP of Eq 8–10 without `Z`:
    /// the reference the min-cut is checked against.
    fn milp_plan_given_v(
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
            } else if !(node.materializable && v.contains(&m)) {
                problem.le(LinExpr::term(xs[&m], 1.0).plus(ys[&m], -1.0), 0.0);
            }
        }
        problem.minimize(objective);
        let options = BbOptions {
            max_nodes: cfg.milp_max_nodes,
            time_limit: Duration::from_secs(cfg.milp_time_limit_secs),
            ..Default::default()
        };
        let sol = solve(&problem, &options);
        assert_eq!(sol.status, MilpStatus::Optimal, "reference MILP");
        let actions: BTreeMap<MNodeId, NodeAction> = reachable
            .iter()
            .map(|&m| {
                let x = sol.values[xs[&m].index()].round() as i64;
                let y = sol.values[ys[&m].index()].round() as i64;
                let action = match (x, y) {
                    (0, _) => NodeAction::Pruned,
                    (1, 1) => NodeAction::Computed,
                    (1, 0) => NodeAction::Loaded,
                    _ => unreachable!("binary variables"),
                };
                (m, action)
            })
            .collect();
        let cost_flops = plan_cost_flops(multi, &actions, cfg);
        UnitPlan { actions, cost_flops }
    }

    /// The maximal source side of a minimum cut, after max-flow: the
    /// vertices that cannot reach the sink in the residual network.
    fn max_source_side(net: &FlowNet) -> Vec<bool> {
        let mut reaches = vec![false; net.vertices];
        reaches[SINK] = true;
        let mut stack = vec![SINK];
        while let Some(w) = stack.pop() {
            for &e in net.edges(w) {
                // `e ^ 1` runs from `to[e]` into `w`.
                let u = net.to[e];
                if !reaches[u] && net.cap[e ^ 1] > 0 {
                    reaches[u] = true;
                    stack.push(u);
                }
            }
        }
        reaches.iter().map(|&r| !r).collect()
    }

    /// The cut against the MILP reference on one unit: both plans valid,
    /// equal cost, and equal actions wherever the optimum is unique (the
    /// minimal and maximal optimal closures coincide). Returns the MILP's.
    fn differential(
        multi: &MultiModelGraph,
        members: &[usize],
        v: &BTreeSet<MNodeId>,
        cfg: &SystemConfig,
    ) -> Result<UnitPlan, String> {
        let cut = plan_given_v(multi, members, v, cfg);
        let milp = milp_plan_given_v(multi, members, v, cfg);
        validate_plan(multi, members, v, &cut.actions).map_err(|e| format!("cut: {e}"))?;
        validate_plan(multi, members, v, &milp.actions).map_err(|e| format!("milp: {e}"))?;
        prop_assert!(
            (cut.cost_flops - milp.cost_flops).abs() <= 1e-9 * milp.cost_flops.abs().max(1.0),
            "members {members:?}: cut {} vs MILP {}",
            cut.cost_flops,
            milp.cost_flops
        );
        let mut rc = ReuseCut::build(multi, members, v, cfg);
        let lo = rc.net.min_cut_source_side();
        let hi = max_source_side(&rc.net);
        if rc.actions(&lo) == rc.actions(&hi) {
            prop_assert_eq!(cut.actions, milp.actions);
        }
        Ok(milp)
    }

    type UnitSummary = (Vec<usize>, BTreeMap<MNodeId, NodeAction>, u64, MemoryEstimate);

    fn summary(units: &[TrainUnit]) -> Vec<UnitSummary> {
        units
            .iter()
            .map(|u| {
                let cost = u.weighted_cost_flops.to_bits();
                (u.members.clone(), u.plan.actions.clone(), cost, u.memory)
            })
            .collect()
    }

    /// Algorithm 1 on the cut returns exactly the units it returns on the
    /// MILP reference, and every plan the reference run evaluates passes
    /// [`differential`].
    fn fusion_agrees(
        multi: &MultiModelGraph,
        cands: &[CandidateModel],
        v: &BTreeSet<MNodeId>,
        cfg: &SystemConfig,
    ) -> Result<(), String> {
        let reference = fuse_with(multi, cands, cfg, true, |members| {
            differential(multi, members, v, cfg).unwrap_or_else(|e| panic!("{e}"))
        });
        let cut = fuse_models(multi, cands, v, cfg, true);
        prop_assert_eq!(summary(&cut), summary(&reference));
        Ok(())
    }

    #[test]
    fn min_cut_equals_milp_on_random_multi_model_graphs() {
        // Candidates as the cross-crate planner properties draw them:
        // (strategy, lr in 1e-3, batch 8 or 4, epochs).
        let spec = (usizes(0..6), u64s(1..5), bools(), usizes(1..3));
        let gen = (vec_of(spec, 1..5), u64s(0..1 << 32), u64s(0..4096), usizes(0..3));
        prop_check(0x2900_0001, 12, &gen, |(specs, v_seed, mem_kb, speed)| {
            let bert = BertConfig::tiny(8, 40);
            let cands: Vec<CandidateModel> = specs
                .iter()
                .enumerate()
                .map(|(i, &(s, lr, b8, epochs))| {
                    let strategy = FeatureStrategy::ALL[s];
                    let lr = lr as f32 * 1e-3;
                    CandidateModel {
                        name: format!("c{i}-{}-{lr}", strategy.label()),
                        graph: feature_transfer_model(&bert, strategy, 5, BuildScale::Real)
                            .unwrap(),
                        hyper: Hyper {
                            batch_size: if b8 { 8 } else { 4 },
                            epochs,
                            optimizer: OptimizerSpec::sgd(lr),
                        },
                        task: TaskKind::TokenTagging,
                    }
                })
                .collect();
            let multi = MultiModelGraph::build(&cands);
            let mut rng = StdRng::seed_from_u64(*v_seed);
            let v: BTreeSet<MNodeId> =
                multi.mat_candidates().into_iter().filter(|_| rng.gen_bool(0.5)).collect();
            let cfg = SystemConfig::tiny()
                .into_builder()
                .memory_budget_bytes((8 << 20) + (mem_kb << 10))
                .planner_flops_per_sec([1e9, 5e9, 2e10][*speed])
                .build();
            for i in 0..cands.len() {
                differential(&multi, &[i], &v, &cfg)?;
            }
            fusion_agrees(&multi, &cands, &v, &cfg)
        });
    }

    #[test]
    fn min_cut_equals_milp_on_every_table3_workload() {
        let settings = [
            (Scale::Tiny, SystemConfig::tiny(), [16, 1024, 16_384, 65_536]),
            (Scale::Paper, SystemConfig::default(), [500, 10_000, 40_000, 100_000]),
        ];
        for (scale, cfg, rs) in settings {
            for kind in WorkloadKind::ALL {
                let cands = WorkloadSpec { kind, scale }.candidates().unwrap();
                let multi = MultiModelGraph::build(&cands);
                let mut seen = BTreeSet::new();
                for r in rs {
                    // `r` moves the plans only through V (once the disk
                    // budget binds), so each distinct V is checked once.
                    let v = choose_materialization(&multi, &cands, &cfg, r).materialized;
                    if !seen.insert(v.clone()) {
                        continue;
                    }
                    fusion_agrees(&multi, &cands, &v, &cfg)
                        .unwrap_or_else(|e| panic!("{} {scale:?} r={r}: {e}", kind.name()));
                }
            }
        }
    }

    #[test]
    fn exact_ties_prune_before_loading_and_load_before_computing() {
        // With one load FLOP per byte and R rows per record: the shared
        // input `in` feeds frozen `a`, computed since it is not in V. `z`
        // flattens `a` at zero FLOPs and only feeds `d`, which is in V and
        // cheaper to load (32 B) than to compute (64R), so `z` ties at cost
        // 0 between pruned and computed. `c` is in V and costs 16R either
        // way, since `in` is present anyway. R keeps the costs far above
        // the MILP reference's tolerance.
        const R: usize = 1 << 16;
        let dense = |i, o| LayerKind::Dense { in_dim: i, out_dim: o, act: Activation::None };
        let layer = |g: &mut ModelGraph, name: &str, kind, input, frozen, sig| {
            g.add_layer(name, kind, &[input], frozen, ParamInit::ShapesOnly { sig }).unwrap()
        };
        // `in` → a chain of frozen `(name, kind, param sig)` → trainable head.
        let candidate = |chain: Vec<(&str, LayerKind, u64)>| {
            let mut g = ModelGraph::new();
            let mut x = g.add_input("in", [R, 2]);
            for (name, kind, sig) in chain {
                x = layer(&mut g, name, kind, x, true, sig);
            }
            let head_in = *g.shape(x).0.last().unwrap();
            let head = layer(&mut g, "head", dense(head_in, 3), x, false, 9);
            g.add_output(head).unwrap();
            CandidateModel {
                name: g.node(x).name.clone(),
                graph: g,
                hyper: Hyper { batch_size: 4, epochs: 1, optimizer: OptimizerSpec::sgd(0.1) },
                task: TaskKind::Classification,
            }
        };
        let cands = vec![
            candidate(vec![("a", dense(2, 4), 1)]),
            candidate(vec![
                ("a", dense(2, 4), 1),
                ("z", LayerKind::Flatten, 0),
                ("d", dense(4 * R, 8), 2),
            ]),
            candidate(vec![("c", dense(2, 4), 3)]),
        ];
        let multi = MultiModelGraph::build(&cands);
        let by_name = |n: &str| {
            (0..multi.nodes.len()).map(MNodeId).find(|&m| multi.node(m).name == n).unwrap()
        };
        let v: BTreeSet<MNodeId> = [by_name("c"), by_name("d")].into_iter().collect();
        // One load FLOP per byte, in exact binary arithmetic.
        let mut cfg = SystemConfig::tiny();
        cfg.planner.flops_per_sec = f64::from(1u32 << 30);
        cfg.planner.disk_bytes_per_sec = f64::from(1u32 << 30);
        let members = [0, 1, 2];
        let plan = plan_given_v(&multi, &members, &v, &cfg);
        let action = |n: &str| plan.actions[&by_name(n)];
        assert_eq!(action("in"), NodeAction::Loaded);
        assert_eq!(action("a"), NodeAction::Computed);
        assert_eq!(action("z"), NodeAction::Pruned, "prune before compute");
        assert_eq!(action("d"), NodeAction::Loaded);
        assert_eq!(action("c"), NodeAction::Loaded, "load before compute");
        // Both ties are real: the optimum is not unique, and the MILP's
        // choice costs the same.
        let mut rc = ReuseCut::build(&multi, &members, &v, &cfg);
        let lo = rc.net.min_cut_source_side();
        let hi = rc.actions(&max_source_side(&rc.net));
        assert_eq!(hi[&by_name("z")], NodeAction::Computed);
        assert_eq!(hi[&by_name("c")], NodeAction::Computed);
        assert_eq!(rc.actions(&lo), plan.actions);
        assert_eq!(plan_cost_flops(&multi, &hi, &cfg), plan.cost_flops);
        differential(&multi, &members, &v, &cfg).unwrap();
    }

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
        // plan for that V is the no-reuse plan.
        let mut cfg = cfg_with_budget(1 << 30);
        cfg.milp_max_nodes = 0;
        let cands = vec![bert_candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let res = choose_materialization(&multi, &cands, &cfg, 100);
        assert!(res.materialized.is_empty());

        let plan = plan_given_v(&multi, &[0], &res.materialized, &cfg);
        let base = no_reuse_plan(&multi, &[0], &cfg);
        assert_eq!(plan.actions, base.actions);
        assert_eq!(plan.cost_flops, base.cost_flops);
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
