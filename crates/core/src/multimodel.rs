//! The multi-model graph (paper §4.1, Def 4.4).
//!
//! All candidate models are merged into one information graph by unifying
//! *materializable identical sub-expressions*: two nodes merge iff they are
//! materializable (Def 2.4) and their expression signatures (Def 4.3 —
//! layer type, configuration, parameter values, and parents' signatures)
//! are equal. Trainable and gradient-carrying nodes are never merged — each
//! model keeps its own.
//!
//! The builder also computes a *graph signature* per candidate. Candidates
//! with equal graph signatures (same architecture, same freezing, same
//! initial parameters — e.g. grid points differing only in learning rate or
//! batch size) are interchangeable for planning purposes; the MILP groups
//! them into one weighted block, an exact reduction that keeps solver
//! instances small.

use crate::profiler::{profile_graph, NodeProfile};
use crate::spec::CandidateModel;
use nautilus_dnn::NodeId;
use nautilus_tensor::Shape;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Index of a merged node in the [`MultiModelGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MNodeId(pub usize);

impl MNodeId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One merged node.
#[derive(Debug, Clone)]
pub struct MNode {
    /// Expression signature (shared nodes: the signature they merged on).
    pub sig: u64,
    /// Stable store key for materialized outputs of this expression.
    pub key: String,
    /// Exemplar name (diagnostics).
    pub name: String,
    /// Materializable per Def 2.4 (uniform across all models it appears in).
    pub materializable: bool,
    /// This is a raw model input placeholder.
    pub is_input: bool,
    /// Parent merged nodes, in layer-argument order.
    pub parents: Vec<MNodeId>,
    /// Child merged nodes in id order (a child taking this node twice is
    /// listed twice).
    pub children: Vec<MNodeId>,
    /// Some candidate's output head.
    pub is_output: bool,
    /// Exemplar `(model index, node id)` to fetch kind/params at plan time.
    pub exemplar: (usize, NodeId),
    /// Per-record profile of the exemplar node.
    pub profile: NodeProfile,
}

impl MNode {
    /// Per-record output shape.
    pub fn out_shape(&self) -> &Shape {
        &self.profile.out_shape
    }
}

/// Mapping of one candidate into the merged graph.
#[derive(Debug, Clone)]
pub struct ModelMapping {
    /// Merged node for each of the candidate's graph nodes (by index).
    pub node_to_merged: Vec<MNodeId>,
    /// Merged output nodes of this candidate.
    pub outputs: Vec<MNodeId>,
    /// Whole-graph signature for interchangeability grouping.
    pub graph_sig: u64,
}

/// The multi-model graph over a candidate set.
#[derive(Debug, Clone)]
pub struct MultiModelGraph {
    /// Merged nodes in a topological order.
    pub nodes: Vec<MNode>,
    /// Per-candidate mappings, aligned with the candidate list.
    pub mappings: Vec<ModelMapping>,
}

impl MultiModelGraph {
    /// Builds the multi-model graph for a candidate set.
    pub fn build(candidates: &[CandidateModel]) -> Self {
        let mut nodes: Vec<MNode> = Vec::new();
        let mut by_sig: HashMap<u64, MNodeId> = HashMap::new();
        let mut mappings = Vec::with_capacity(candidates.len());

        for (mi, cand) in candidates.iter().enumerate() {
            let sigs = cand.graph.expr_signatures();
            let profiles = profile_graph(&cand.graph);
            let mut node_to_merged = Vec::with_capacity(cand.graph.len());
            for id in cand.graph.ids() {
                let node = cand.graph.node(id);
                let profile = &profiles[id.index()];
                let sig = sigs[id.index()];
                let merged = if profile.materializable {
                    if let Some(&m) = by_sig.get(&sig) {
                        Some(m)
                    } else {
                        None
                    }
                } else {
                    None
                };
                let mid = match merged {
                    Some(m) => m,
                    None => {
                        let mid = MNodeId(nodes.len());
                        let parents: Vec<MNodeId> = node
                            .inputs
                            .iter()
                            .map(|p| node_to_merged[p.index()])
                            .collect();
                        for p in &parents {
                            nodes[p.index()].children.push(mid);
                        }
                        nodes.push(MNode {
                            sig,
                            key: format!("mat-{sig:016x}"),
                            name: node.name.clone(),
                            materializable: profile.materializable,
                            is_input: matches!(
                                node.kind,
                                nautilus_dnn::LayerKind::Input { .. }
                            ),
                            parents,
                            children: Vec::new(),
                            is_output: false,
                            exemplar: (mi, id),
                            profile: profile.clone(),
                        });
                        if profile.materializable {
                            by_sig.insert(sig, mid);
                        }
                        mid
                    }
                };
                node_to_merged.push(mid);
            }
            let outputs: Vec<MNodeId> = cand
                .graph
                .outputs()
                .iter()
                .map(|o| node_to_merged[o.index()])
                .collect();
            for o in &outputs {
                nodes[o.index()].is_output = true;
            }
            let graph_sig = graph_signature(&sigs, cand.graph.outputs());
            mappings.push(ModelMapping { node_to_merged, outputs, graph_sig });
        }
        MultiModelGraph { nodes, mappings }
    }

    /// The materialization candidate set `U`: materializable merged nodes
    /// that are not raw inputs.
    pub fn mat_candidates(&self) -> Vec<MNodeId> {
        (0..self.nodes.len())
            .map(MNodeId)
            .filter(|&m| {
                let n = &self.nodes[m.index()];
                n.materializable && !n.is_input
            })
            .collect()
    }

    /// Groups candidate indices by interchangeable graph signature,
    /// preserving first-seen order.
    pub fn interchangeable_groups(&self) -> Vec<Vec<usize>> {
        let mut order: Vec<u64> = Vec::new();
        let mut groups: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, m) in self.mappings.iter().enumerate() {
            if !groups.contains_key(&m.graph_sig) {
                order.push(m.graph_sig);
            }
            groups.entry(m.graph_sig).or_default().push(i);
        }
        order.into_iter().map(|s| groups.remove(&s).expect("group present")).collect()
    }

    /// Merged node lookup.
    pub fn node(&self, id: MNodeId) -> &MNode {
        &self.nodes[id.index()]
    }

    /// Merged nodes reachable (via parents) from the outputs of the given
    /// candidate subset, in topological order.
    pub fn reachable_from(&self, members: &[usize]) -> Vec<MNodeId> {
        let mut needed = vec![false; self.nodes.len()];
        let mut stack: Vec<MNodeId> = members
            .iter()
            .flat_map(|&m| self.mappings[m].outputs.iter().copied())
            .collect();
        while let Some(id) = stack.pop() {
            if needed[id.index()] {
                continue;
            }
            needed[id.index()] = true;
            stack.extend(self.nodes[id.index()].parents.iter().copied());
        }
        (0..self.nodes.len()).map(MNodeId).filter(|m| needed[m.index()]).collect()
    }
}

fn graph_signature(sigs: &[u64], outputs: &[NodeId]) -> u64 {
    let mut h = DefaultHasher::new();
    sigs.hash(&mut h);
    for o in outputs {
        o.index().hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Hyper;
    use nautilus_dnn::{OptimizerSpec, TaskKind};
    use nautilus_models::bert::{feature_transfer_model, BertConfig, FeatureStrategy};
    use nautilus_models::BuildScale;

    fn candidate(strategy: FeatureStrategy, lr: f32, batch: usize) -> CandidateModel {
        let cfg = BertConfig::tiny(8, 50);
        CandidateModel {
            name: format!("{}-lr{lr}-b{batch}", strategy.label()),
            graph: feature_transfer_model(&cfg, strategy, 9, BuildScale::Real).unwrap(),
            hyper: Hyper { batch_size: batch, epochs: 5, optimizer: OptimizerSpec::adam(lr) },
            task: TaskKind::TokenTagging,
        }
    }

    #[test]
    fn backbone_merges_across_strategies() {
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 16),
            candidate(FeatureStrategy::SumLast4, 0.01, 16),
        ];
        let multi = MultiModelGraph::build(&cands);
        // Shared: input + embedding + 6 blocks = 8 nodes. Model 1 adds its
        // 2 head nodes; model 2 adds its sum node + 2 head nodes.
        assert_eq!(multi.nodes.len(), 8 + 2 + 3);
        // Both models map their backbone prefix to the same merged ids.
        for i in 0..8 {
            assert_eq!(
                multi.mappings[0].node_to_merged[i],
                multi.mappings[1].node_to_merged[i]
            );
        }
        // Heads are distinct.
        let h0 = *multi.mappings[0].node_to_merged.last().unwrap();
        let h1 = *multi.mappings[1].node_to_merged.last().unwrap();
        assert_ne!(h0, h1);
    }

    #[test]
    fn trainable_nodes_never_merge_even_with_equal_sigs() {
        // Same strategy twice (identical graphs incl. head init): heads are
        // trainable, must not merge; backbone must fully merge.
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 16),
            candidate(FeatureStrategy::LastHidden, 0.02, 16),
        ];
        let multi = MultiModelGraph::build(&cands);
        let single = cands[0].graph.len();
        assert_eq!(multi.nodes.len(), single + 2); // + the 2nd model's head pair
        let last0 = *multi.mappings[0].node_to_merged.last().unwrap();
        let last1 = *multi.mappings[1].node_to_merged.last().unwrap();
        assert_ne!(last0, last1);
        assert_eq!(multi.node(last0).sig, multi.node(last1).sig);
    }

    #[test]
    fn interchangeable_groups_by_architecture() {
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 16),
            candidate(FeatureStrategy::LastHidden, 0.02, 32),
            candidate(FeatureStrategy::SumLast4, 0.01, 16),
            candidate(FeatureStrategy::LastHidden, 0.03, 16),
        ];
        let multi = MultiModelGraph::build(&cands);
        let groups = multi.interchangeable_groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], vec![0, 1, 3]);
        assert_eq!(groups[1], vec![2]);
    }

    #[test]
    fn mat_candidates_exclude_inputs_and_heads() {
        let cands = vec![candidate(FeatureStrategy::ConcatLast4, 0.01, 16)];
        let multi = MultiModelGraph::build(&cands);
        let u = multi.mat_candidates();
        for m in &u {
            let n = multi.node(*m);
            assert!(n.materializable && !n.is_input);
        }
        // embedding + 6 blocks + concat = 8.
        assert_eq!(u.len(), 8);
    }

    #[test]
    fn reachable_from_subset() {
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 16),
            candidate(FeatureStrategy::SumLast4, 0.01, 16),
        ];
        let multi = MultiModelGraph::build(&cands);
        let r0 = multi.reachable_from(&[0]);
        assert_eq!(r0.len(), cands[0].graph.len());
        let rboth = multi.reachable_from(&[0, 1]);
        assert_eq!(rboth.len(), multi.nodes.len());
        // Topological: parents precede children.
        let pos: HashMap<MNodeId, usize> =
            rboth.iter().enumerate().map(|(i, &m)| (m, i)).collect();
        for &m in &rboth {
            for p in &multi.node(m).parents {
                assert!(pos[p] < pos[&m]);
            }
        }
    }

    #[test]
    fn merged_nodes_are_topologically_ordered() {
        let cands = vec![
            candidate(FeatureStrategy::LastHidden, 0.01, 16),
            candidate(FeatureStrategy::ConcatLast4, 0.01, 16),
            candidate(FeatureStrategy::SumAllHidden, 0.02, 32),
        ];
        let multi = MultiModelGraph::build(&cands);
        for (i, n) in multi.nodes.iter().enumerate() {
            for p in &n.parents {
                assert!(p.index() < i, "node {i} has parent {}", p.index());
            }
        }
    }
}
