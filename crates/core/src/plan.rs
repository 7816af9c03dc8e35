//! Executable reuse-plan construction.
//!
//! Converts a [`TrainUnit`]'s merged-node actions into a runnable
//! [`ModelGraph`]: pruned nodes vanish, loaded nodes become input
//! placeholders fed from the feature store (or the raw dataset), computed
//! nodes are cloned from their exemplar candidate with parameters and
//! frozen flags intact. Each member keeps its own output head and its own
//! trainable branch, so the Trainer can attach one optimizer per member
//! (paper §3).

use crate::fusion::TrainUnit;
use crate::mat_opt::NodeAction;
use crate::multimodel::{MNodeId, MultiModelGraph};
use crate::spec::CandidateModel;
use nautilus_dnn::graph::{GraphError, ModelGraph, NodeId, ParamInit};
use nautilus_tensor::Shape;
use std::collections::BTreeMap;

/// Where a plan input placeholder gets its data.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanFeed {
    /// Raw model input: fed from the labeled dataset.
    Raw {
        /// The plan graph's input node.
        plan_node: NodeId,
        /// The merged node it stands for.
        merged: MNodeId,
    },
    /// Materialized intermediate: fed from the feature store under `key`.
    Materialized {
        /// The plan graph's input node.
        plan_node: NodeId,
        /// The merged node it stands for.
        merged: MNodeId,
        /// Feature-store key.
        key: String,
        /// Per-record shape (for diagnostics / store validation).
        shape: Shape,
    },
}

/// A runnable reuse plan for one training unit.
#[derive(Debug, Clone)]
pub struct ExecutablePlan {
    /// The rewritten graph.
    pub graph: ModelGraph,
    /// Data feeds for every input placeholder.
    pub feeds: Vec<PlanFeed>,
    /// `(candidate index, plan output node)` per member.
    pub member_outputs: Vec<(usize, NodeId)>,
    /// `(candidate index, trainable plan nodes)` per member.
    pub member_trainables: Vec<(usize, Vec<NodeId>)>,
    /// Merged-node → plan-node mapping.
    pub merged_to_plan: BTreeMap<MNodeId, NodeId>,
}

impl ExecutablePlan {
    /// Builds the executable plan for `unit`.
    pub fn build(
        multi: &MultiModelGraph,
        candidates: &[CandidateModel],
        unit: &TrainUnit,
    ) -> Result<ExecutablePlan, GraphError> {
        let mut graph = ModelGraph::new();
        let mut merged_to_plan: BTreeMap<MNodeId, NodeId> = BTreeMap::new();
        let mut feeds = Vec::new();

        // Membership: candidate index -> set of merged nodes it maps to.
        let member_merged: Vec<(usize, Vec<bool>)> = unit
            .members
            .iter()
            .map(|&mi| {
                let mut owned = vec![false; multi.nodes.len()];
                for &m in &multi.mappings[mi].node_to_merged {
                    owned[m.index()] = true;
                }
                (mi, owned)
            })
            .collect();

        for (i, (&m, &action)) in unit.plan.actions.iter().enumerate() {
            let mnode = multi.node(m);
            match action {
                NodeAction::Pruned => {}
                NodeAction::Loaded => {
                    let shape = mnode.out_shape().clone();
                    let plan_node = graph.add_input(
                        format!("load{}:{}", i, mnode.name),
                        shape.clone(),
                    );
                    merged_to_plan.insert(m, plan_node);
                    feeds.push(if mnode.is_input {
                        PlanFeed::Raw { plan_node, merged: m }
                    } else {
                        PlanFeed::Materialized {
                            plan_node,
                            merged: m,
                            key: mnode.key.clone(),
                            shape,
                        }
                    });
                }
                NodeAction::Computed => {
                    let (mi, nid) = mnode.exemplar;
                    let src = candidates[mi].graph.node(nid);
                    let inputs: Vec<NodeId> = mnode
                        .parents
                        .iter()
                        .map(|p| {
                            merged_to_plan.get(p).copied().ok_or_else(|| {
                                GraphError::Layer(format!(
                                    "computed node '{}' depends on pruned parent '{}'",
                                    mnode.name,
                                    multi.node(*p).name
                                ))
                            })
                        })
                        .collect::<Result<_, _>>()?;
                    let init = if src.params.is_empty() && !src.param_shapes.is_empty() {
                        ParamInit::ShapesOnly { sig: src.param_sig }
                    } else {
                        ParamInit::Given(src.params.clone())
                    };
                    let plan_node = graph.add_layer(
                        format!("n{}:{}", i, mnode.name),
                        src.kind.clone(),
                        &inputs,
                        src.frozen,
                        init,
                    )?;
                    merged_to_plan.insert(m, plan_node);
                }
            }
        }

        let mut member_outputs = Vec::with_capacity(unit.members.len());
        let mut member_trainables = Vec::with_capacity(unit.members.len());
        for (mi, owned) in &member_merged {
            let mapping = &multi.mappings[*mi];
            let mut outs = Vec::new();
            for &o in &mapping.outputs {
                let plan_node = merged_to_plan.get(&o).copied().ok_or_else(|| {
                    GraphError::Layer(format!(
                        "member {mi} output '{}' missing from plan",
                        multi.node(o).name
                    ))
                })?;
                graph.add_output(plan_node)?;
                outs.push(plan_node);
            }
            debug_assert_eq!(outs.len(), 1, "one output head per candidate");
            member_outputs.push((*mi, outs[0]));

            let trainables: Vec<NodeId> = merged_to_plan
                .iter()
                .filter(|(m, _)| owned[m.index()])
                .filter(|(_, &p)| graph.node(p).trainable())
                .map(|(_, &p)| p)
                .collect();
            member_trainables.push((*mi, trainables));
        }

        graph.validate()?;
        Ok(ExecutablePlan { graph, feeds, member_outputs, member_trainables, merged_to_plan })
    }

    /// Keys of materialized features this plan loads.
    pub fn materialized_keys(&self) -> Vec<&str> {
        self.feeds
            .iter()
            .filter_map(|f| match f {
                PlanFeed::Materialized { key, .. } => Some(key.as_str()),
                PlanFeed::Raw { .. } => None,
            })
            .collect()
    }

    /// Checkpoint size of this plan's trainable state (what Nautilus writes
    /// after training, vs. Current Practice's full-model checkpoints).
    pub fn trainable_checkpoint_bytes(&self) -> u64 {
        nautilus_dnn::checkpoint::encoded_len(&self.graph, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse_models;
    use crate::mat_opt::{choose_materialization, loads_of};
    use crate::spec::Hyper;
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
            hyper: Hyper { batch_size: 8, epochs: 2, optimizer: OptimizerSpec::adam(lr) },
            task: TaskKind::TokenTagging,
        }
    }

    #[test]
    fn no_reuse_plan_reproduces_candidate_graph() {
        let cands = vec![candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let cfg = SystemConfig::tiny();
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        assert_eq!(plan.graph.len(), cands[0].graph.len());
        assert_eq!(plan.member_outputs.len(), 1);
        assert_eq!(plan.feeds.len(), 1); // raw input only
        assert!(matches!(plan.feeds[0], PlanFeed::Raw { .. }));
        assert_eq!(plan.member_trainables[0].1.len(), 2);
    }

    #[test]
    fn loaded_features_replace_backbone() {
        let cands = vec![candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let mut cfg = SystemConfig::tiny();
        cfg.planner.flops_per_sec = 1e9; // make loading attractive
        let res = choose_materialization(&multi, &cands, &cfg, 64);
        assert!(!res.materialized.is_empty());
        let units = fuse_models(&multi, &cands, &res.materialized, &cfg, true);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        // Plan: loaded feature input + head transformer + classifier.
        assert!(plan.graph.len() <= 4, "plan has {} nodes", plan.graph.len());
        assert_eq!(plan.materialized_keys().len(), 1);
        let loads = loads_of(&multi, &units[0].plan.actions);
        assert_eq!(loads.len(), 1);
        // Loaded feature shape matches the backbone output.
        match &plan.feeds[0] {
            PlanFeed::Materialized { shape, .. } => {
                assert_eq!(shape.0, vec![8, 32]);
            }
            f => panic!("expected materialized feed, got {f:?}"),
        }
    }

    #[test]
    fn fused_plan_shares_trunk_and_separates_branches() {
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01),
            candidate(FeatureStrategy::LastHidden, 0.02),
        ];
        let multi = MultiModelGraph::build(&cands);
        let cfg = SystemConfig::tiny();
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, true);
        assert_eq!(units.len(), 1);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        // Shared: input + embedding + 6 blocks (8). Separate: 2 heads each.
        assert_eq!(plan.graph.len(), 8 + 4);
        assert_eq!(plan.member_outputs.len(), 2);
        assert_ne!(plan.member_outputs[0].1, plan.member_outputs[1].1);
        // Branch trainables are disjoint.
        let t0: BTreeSet<NodeId> = plan.member_trainables[0].1.iter().copied().collect();
        let t1: BTreeSet<NodeId> = plan.member_trainables[1].1.iter().copied().collect();
        assert!(t0.is_disjoint(&t1));
        assert_eq!(t0.len(), 2);
        assert_eq!(t1.len(), 2);
        // Branch parameters start identical (same architecture seed) but are
        // distinct tensors.
        plan.graph.validate().unwrap();
    }

    #[test]
    fn checkpoint_bytes_smaller_than_full_model() {
        let cands = vec![candidate(FeatureStrategy::LastHidden, 0.01)];
        let multi = MultiModelGraph::build(&cands);
        let cfg = SystemConfig::tiny();
        let units = fuse_models(&multi, &cands, &BTreeSet::new(), &cfg, false);
        let plan = ExecutablePlan::build(&multi, &cands, &units[0]).unwrap();
        let full = nautilus_dnn::checkpoint::encoded_len(&cands[0].graph, false);
        assert!(plan.trainable_checkpoint_bytes() < full);
    }
}
