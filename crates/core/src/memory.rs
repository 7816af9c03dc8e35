//! Peak training-memory estimation (paper §4.3.3, Fig 5).
//!
//! The estimator covers the paper's three dominant usage types: (1)
//! parameter tensors of the plan's present layers, (2) a configured
//! workspace allowance, and (3) activations retained for back-propagation,
//! bounded by a topological live-tensor analysis over the plan augmented
//! with backward nodes:
//!
//! * every present node contributes a forward tensor, sized by the
//!   composite `smem` rule (all internal activations for blocks);
//! * every gradient-carrying node gets a backward node consuming its own
//!   forward output, its parents' outputs, and its children's backward
//!   outputs, and producing a gradient tensor of the same `smem`;
//! * a loss barrier sits between the forward and backward phases, so any
//!   topological order gives the same bound up to one tensor (§4.3.3's
//!   argument).
//!
//! Frozen/loaded layers retain nothing: their internals spike only while
//! the layer itself executes.

use crate::mat_opt::NodeAction;
use crate::multimodel::{MNodeId, MultiModelGraph};
use std::collections::BTreeMap;

/// Breakdown of an estimated peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Parameter bytes of present layers.
    pub params_bytes: u64,
    /// Optimizer-state + parameter-gradient bytes (trainable layers only).
    pub optimizer_bytes: u64,
    /// Peak live activation bytes at the given batch size.
    pub activation_bytes: u64,
    /// Configured workspace allowance.
    pub workspace_bytes: u64,
}

impl MemoryEstimate {
    /// Total estimated peak.
    pub fn total(&self) -> u64 {
        self.params_bytes + self.optimizer_bytes + self.activation_bytes + self.workspace_bytes
    }
}

/// Estimates the peak training memory of a reuse plan at `batch_size`.
///
/// `optimizer_state_factor` is the per-trainable-parameter state multiple
/// (1 for SGD+momentum, 2 for Adam) on top of one gradient copy.
pub fn estimate_peak_memory(
    multi: &MultiModelGraph,
    actions: &BTreeMap<MNodeId, NodeAction>,
    batch_size: usize,
    workspace_bytes: u64,
    optimizer_state_factor: f64,
) -> MemoryEstimate {
    // Present nodes in topological order (MNodeIds are topo-ordered), with
    // their computed flag; `pos_of` maps a merged id to its position.
    let present: Vec<(MNodeId, bool)> = actions
        .iter()
        .filter(|(_, &a)| a != NodeAction::Pruned)
        .map(|(&m, &a)| (m, a == NodeAction::Computed))
        .collect();
    let mut pos_of = vec![usize::MAX; multi.nodes.len()];
    for (i, &(m, _)) in present.iter().enumerate() {
        pos_of[m.index()] = i;
    }
    let n = present.len();

    // Plan-level gradient-need analysis: gradients flow into a node iff it
    // is computed-and-trainable, or a computed descendant of such a node...
    // equivalently (walking forward): trainable itself, or has a present,
    // computed parent that requires grad.
    let grad_of = |needs_grad: &[bool], p: &MNodeId| {
        let pp = pos_of[p.index()];
        pp != usize::MAX && needs_grad[pp]
    };
    let mut needs_grad = vec![false; n];
    let mut params_bytes = 0u64;
    let mut trainable_param_bytes = 0u64;
    for (i, &(m, computed)) in present.iter().enumerate() {
        let node = multi.node(m);
        if computed {
            params_bytes += node.profile.param_bytes;
        }
        let trainable = computed && node.profile.trainable;
        if trainable {
            trainable_param_bytes += node.profile.param_bytes;
        }
        let from_parents =
            computed && node.parents.iter().any(|p| grad_of(&needs_grad, p));
        needs_grad[i] = trainable || from_parents;
    }

    // Schedule positions: forward 0..n-1, loss at n, backward nodes at
    // n+1.. in reverse topological order.
    let bwd_pos = |i: usize| n + 1 + (n - 1 - i);

    // For each forward tensor: birth at its position, death at its last
    // consumer; retained bytes differ for grad vs non-grad nodes. Only the
    // per-step sums matter (subtracting a sum saturates exactly where
    // subtracting its terms one by one would).
    let mut births: Vec<u64> = vec![0; 2 * n + 2];
    let mut deaths: Vec<u64> = vec![0; 2 * n + 3];
    let mut transient: Vec<u64> = vec![0; 2 * n + 2];

    for (i, &(m, _)) in present.iter().enumerate() {
        let node = multi.node(m);
        let grad = needs_grad[i];
        let retained = if grad { node.profile.internal_bytes } else { node.profile.out_bytes };
        // Transient spike while this node itself executes (composite
        // internals that are not retained).
        transient[i] += node.profile.internal_bytes.saturating_sub(retained);

        let mut last = i;
        for c in &node.children {
            let cp = pos_of[c.index()];
            if cp != usize::MAX && present[cp].1 {
                last = last.max(cp);
                if needs_grad[cp] {
                    last = last.max(bwd_pos(cp));
                }
            }
        }
        if grad {
            last = last.max(bwd_pos(i));
        }
        // Member outputs feed the loss barrier.
        if node.is_output {
            last = last.max(n);
            // ... and their backward nodes are seeded by the loss.
            if grad {
                last = last.max(bwd_pos(i));
            }
        }
        births[i] += retained;
        deaths[last + 1] += retained;

        // Gradient tensor produced by this node's backward, consumed by the
        // parents' backward nodes.
        if grad {
            let gbytes = node.profile.internal_bytes;
            let gpos = bwd_pos(i);
            let mut glast = gpos;
            for p in &node.parents {
                if grad_of(&needs_grad, p) {
                    glast = glast.max(bwd_pos(pos_of[p.index()]));
                }
            }
            births[gpos] += gbytes;
            deaths[glast + 1] += gbytes;
        }
    }

    let mut live = 0u64;
    let mut peak = 0u64;
    for t in 0..2 * n + 2 {
        live = live.saturating_sub(deaths[t]) + births[t];
        peak = peak.max(live + transient[t]);
    }

    let activation_bytes = peak * batch_size as u64;
    let optimizer_bytes =
        (trainable_param_bytes as f64 * (1.0 + optimizer_state_factor)).ceil() as u64;
    MemoryEstimate { params_bytes, optimizer_bytes, activation_bytes, workspace_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat_opt::{no_reuse_plan, plan_given_v};
    use crate::multimodel::MultiModelGraph;
    use crate::spec::{CandidateModel, Hyper};
    use crate::SystemConfig;
    use nautilus_dnn::{OptimizerSpec, TaskKind};
    use nautilus_models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
    use nautilus_models::BuildScale;
    use std::collections::BTreeSet;

    fn candidate(strategy: FeatureStrategy, lr: f32) -> CandidateModel {
        let cfg = BertConfig::tiny(8, 50);
        CandidateModel {
            name: format!("{}-{lr}", strategy.label()),
            graph: feature_transfer_model(&cfg, strategy, 9, BuildScale::Real).unwrap(),
            hyper: Hyper { batch_size: 8, epochs: 5, optimizer: OptimizerSpec::adam(lr) },
            task: TaskKind::TokenTagging,
        }
    }

    #[test]
    fn memory_scales_with_batch_size() {
        let cands = vec![candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let plan = no_reuse_plan(&multi, &[0], &SystemConfig::tiny());
        let m8 = estimate_peak_memory(&multi, &plan.actions, 8, 0, 2.0);
        let m32 = estimate_peak_memory(&multi, &plan.actions, 32, 0, 2.0);
        assert_eq!(m8.params_bytes, m32.params_bytes);
        assert_eq!(m32.activation_bytes, 4 * m8.activation_bytes);
        assert!(m32.total() > m8.total());
    }

    #[test]
    fn loading_features_reduces_params_and_activations() {
        let cfg = SystemConfig::tiny();
        let cands = vec![candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let full = no_reuse_plan(&multi, &[0], &cfg);
        // Materialize the whole frontier; plan with a slow planner so it
        // prefers loading.
        let mut slow = cfg.clone();
        slow.planner.flops_per_sec = 1e9;
        let v: BTreeSet<_> = multi.mat_candidates().into_iter().collect();
        let lean = plan_given_v(&multi, &[0], &v, &slow);
        let mf = estimate_peak_memory(&multi, &full.actions, 8, 0, 2.0);
        let ml = estimate_peak_memory(&multi, &lean.actions, 8, 0, 2.0);
        assert!(ml.params_bytes < mf.params_bytes);
        assert!(ml.activation_bytes <= mf.activation_bytes);
        assert!(ml.total() < mf.total());
    }

    #[test]
    fn fused_pair_needs_more_memory_than_single() {
        let cfg = SystemConfig::tiny();
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01),
            candidate(FeatureStrategy::LastHidden, 0.02),
        ];
        let multi = MultiModelGraph::build(&cands);
        let v = BTreeSet::new();
        let solo = plan_given_v(&multi, &[0], &v, &cfg);
        let pair = plan_given_v(&multi, &[0, 1], &v, &cfg);
        let ms = estimate_peak_memory(&multi, &solo.actions, 8, 0, 2.0);
        let mp = estimate_peak_memory(&multi, &pair.actions, 8, 0, 2.0);
        assert!(mp.total() > ms.total());
        // But less than 2x: the frozen trunk is shared and not retained.
        assert!(mp.total() < 2 * ms.total());
    }

    #[test]
    fn workspace_and_optimizer_terms_add_up() {
        let cands = vec![candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let plan = no_reuse_plan(&multi, &[0], &SystemConfig::tiny());
        let est = estimate_peak_memory(&multi, &plan.actions, 4, 1234, 2.0);
        assert_eq!(est.workspace_bytes, 1234);
        assert_eq!(
            est.total(),
            est.params_bytes + est.optimizer_bytes + est.activation_bytes + 1234
        );
        assert!(est.optimizer_bytes > 0);
    }
}
