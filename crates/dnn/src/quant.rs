//! int8 row-quantized serving forward.
//!
//! The serving counterpart of [`crate::delta`]: where delta extraction
//! splits a trained variant into shared frozen base + per-tenant deltas,
//! this module compresses the *compute* of the hot path. Dense layers'
//! weights are row-quantized once at export/publish time (per output
//! channel, symmetric — see [`nautilus_tensor::ops::qgemm`]) and the
//! quantized forward runs an i32-accumulating int8 GEMM with one
//! dequantize per output element, skipping the f32 matmul entirely.
//!
//! Only [`LayerKind::Dense`] nodes quantize — they are where serving
//! FLOPs live in the MLP/head suffixes the multi-tenant plane hosts.
//! There is no separate quantized forward: a [`QuantizedModel`] is one
//! more per-group parameter source of
//! [`crate::exec::forward_batch_shared_trunk`] ([`TrunkGroup::quant`]). A
//! node present in `layers` serves int8; every other node (embeddings,
//! transformer blocks, adapters, norms, combinators) runs its ordinary f32
//! path, its params resolved through the group's [`ParamOverrides`].
//!
//! Accuracy contract: dynamic per-row activation scales plus per-channel
//! weight scales bound the logit delta tightly enough that top-1
//! decisions survive (gated by `tests/serving.rs`). A record's outputs do
//! not depend on its batch-mates: every input row quantizes against its
//! own scale and accumulates in exact integers, and the residual f32 nodes
//! obey the summation contract of [`nautilus_tensor::ops::matmul`].

use crate::exec::{apply_act, exec_err, resolve, ExecError, ParamOverrides, Resolved, TrunkGroup};
use crate::graph::{ModelGraph, NodeId};
use crate::layer::LayerKind;
use nautilus_tensor::ops::qgemm::{qgemm_dyn, quantize_rows, QuantizedMatrix};
use nautilus_tensor::Tensor;
use std::collections::HashMap;
use std::sync::Arc;

/// One dense layer's int8 serving form: weights transposed to
/// `[out_channel][in_dim]` row-major and quantized per channel, bias and
/// activation kept in f32 (they are O(out_dim), not worth quantizing).
#[derive(Debug, Clone)]
pub struct QuantDense {
    /// Per-output-channel quantized weights, `out_dim` rows of `in_dim`.
    pub weights: QuantizedMatrix,
    /// f32 bias, length `out_dim`.
    pub bias: Vec<f32>,
    /// Activation applied after the affine map.
    pub act: crate::layer::Activation,
}

impl QuantDense {
    /// Quantizes a dense layer's parameters: `w` stored `(in_dim,
    /// out_dim)` as in [`LayerKind::Dense`] nodes, `b` of `out_dim`.
    pub fn from_params(w: &Tensor, b: &Tensor, act: crate::layer::Activation) -> QuantDense {
        let (in_dim, out_dim) = (w.shape().dim(0), w.shape().dim(1));
        // Transpose to [out][in] so each channel's weights are one
        // contiguous strip for the int8 dot kernel.
        let wd = w.data();
        let mut wt = vec![0.0f32; out_dim * in_dim];
        for i in 0..in_dim {
            for o in 0..out_dim {
                wt[o * in_dim + i] = wd[i * out_dim + o];
            }
        }
        QuantDense {
            weights: quantize_rows(out_dim, in_dim, &wt),
            bias: b.data().to_vec(),
            act,
        }
    }

    /// Heap bytes of the quantized layer (codes + scales + bias).
    pub fn bytes(&self) -> usize {
        self.weights.bytes() + self.bias.len() * 4
    }

    /// Runs the layer on a batch: int8 GEMM, f32 bias, activation.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor, ExecError> {
        let (m, k, xd) = x.as_matrix();
        let out_dim = self.weights.rows;
        if k != self.weights.cols {
            return Err(exec_err(
                "quant_dense",
                format!("input dim {k} vs quantized weights {}", self.weights.cols),
            ));
        }
        nautilus_tensor::ops::matmul::count_dispatch("int8");
        let mut out = nautilus_util::scratch::take_vec(m * out_dim);
        qgemm_dyn(m, k, xd, &self.weights, &mut out);
        for row in out.chunks_exact_mut(out_dim) {
            for (o, &b) in row.iter_mut().zip(&self.bias) {
                *o += b;
            }
        }
        let pre = Tensor::from_vec(x.shape().with_last_dim(out_dim), out)
            .map_err(|e| exec_err("quant_dense", e))?;
        Ok(apply_act(self.act, &pre))
    }
}

/// The int8 serving form of (part of) a model: quantized dense layers
/// keyed by node id. `Arc` granularity lets a registry share one resident
/// quantization of the frozen trunk across every tenant of a base.
#[derive(Debug, Clone, Default)]
pub struct QuantizedModel {
    /// Quantized dense layers by node.
    pub layers: HashMap<NodeId, Arc<QuantDense>>,
}

impl QuantizedModel {
    /// Empty model (no node serves int8).
    pub fn new() -> Self {
        Self::default()
    }

    /// Quantizes every dense node of `graph` selected by `select`,
    /// resolving parameters through `overrides` exactly like the f32
    /// forward does, and failing where that forward would. Non-dense nodes
    /// are never quantized.
    pub fn from_graph_where(
        graph: &ModelGraph,
        overrides: Option<&ParamOverrides>,
        mut select: impl FnMut(NodeId) -> bool,
    ) -> Result<QuantizedModel, ExecError> {
        let group = TrunkGroup { rows: 0, overrides, quant: None };
        let mut layers = HashMap::new();
        for id in graph.ids() {
            let LayerKind::Dense { act, .. } = &graph.node(id).kind else { continue };
            if !select(id) {
                continue;
            }
            let Resolved::F32(params) = resolve(graph, id, &group)? else {
                unreachable!("a group without int8 layers resolves f32 params")
            };
            layers.insert(id, Arc::new(QuantDense::from_params(&params[0], &params[1], *act)));
        }
        Ok(QuantizedModel { layers })
    }

    /// Quantizes every dense node of `graph` (params resolved through
    /// `overrides`).
    pub fn from_graph(
        graph: &ModelGraph,
        overrides: Option<&ParamOverrides>,
    ) -> Result<QuantizedModel, ExecError> {
        Self::from_graph_where(graph, overrides, |_| true)
    }

    /// Whether any node serves int8.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Total heap bytes across all quantized layers.
    pub fn bytes(&self) -> usize {
        self.layers.values().map(|l| l.bytes()).sum()
    }

    /// Merges `other`'s layers over `self`'s (other wins on conflict),
    /// sharing the `Arc`s. Used to combine a base's frozen-trunk
    /// quantization with a tenant's quantized head.
    pub fn merged_with(&self, other: &QuantizedModel) -> QuantizedModel {
        let mut layers = self.layers.clone();
        for (id, l) in &other.layers {
            layers.insert(*id, Arc::clone(l));
        }
        QuantizedModel { layers }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{forward_batch_shared_trunk, BatchInputs};
    use crate::graph::ParamInit;
    use crate::layer::Activation;
    use nautilus_tensor::init::{randn, seeded_rng};
    use nautilus_tensor::ops::matmul;
    use nautilus_tensor::Tensor;

    /// The int8 forward of `inputs`' batch at `x` through the serving entry:
    /// one group spanning every row. Returns node `y`'s output.
    fn int8_forward(
        g: &ModelGraph,
        inputs: &BatchInputs,
        x: NodeId,
        y: NodeId,
        quant: &QuantizedModel,
        overrides: Option<&ParamOverrides>,
    ) -> Result<Tensor, ExecError> {
        let stacked = inputs.get(x).expect("input bound").clone();
        let group = TrunkGroup { rows: stacked.shape().dim(0), overrides, quant: Some(quant) };
        Ok(forward_batch_shared_trunk(g, x, y, stacked, &[group])?.remove(0))
    }

    /// Frozen 32→48 trunk layer + trainable 48→10 head.
    fn mlp(seed: u64) -> (ModelGraph, NodeId, NodeId) {
        let mut rng = seeded_rng(seed);
        let mut g = ModelGraph::new();
        let x = g.add_input("x", [32]);
        let h = g
            .add_layer(
                "h",
                LayerKind::Dense { in_dim: 32, out_dim: 48, act: Activation::Relu },
                &[x],
                true,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let y = g
            .add_layer(
                "y",
                LayerKind::Dense { in_dim: 48, out_dim: 10, act: Activation::None },
                &[h],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(y).unwrap();
        (g, x, y)
    }

    #[test]
    fn quant_dense_matches_f32_within_tolerance() {
        let mut rng = seeded_rng(21);
        let w = randn([32, 48], 0.3, &mut rng);
        let b = randn([48], 0.3, &mut rng);
        let q = QuantDense::from_params(&w, &b, Activation::None);
        let x = randn([4, 32], 1.0, &mut rng);
        let got = q.forward(&x).unwrap();
        let mut want = matmul(&x, &w).unwrap();
        nautilus_tensor::ops::add_assign(&mut want, &b).unwrap();
        let abs_tol = 0.05 * 32f32.sqrt() * 0.3; // √k · weight sigma headroom
        for (i, (&g, &f)) in got.data().iter().zip(want.data()).enumerate() {
            assert!((g - f).abs() <= 0.05 * f.abs() + abs_tol, "[{i}] {g} vs {f}");
        }
    }

    #[test]
    fn quantized_forward_matches_f32_graph_within_tolerance() {
        let (g, x, y) = mlp(3);
        let mut rng = seeded_rng(22);
        let input = randn([6, 32], 1.0, &mut rng);
        let mut inputs = BatchInputs::new();
        inputs.insert(x, input);
        let f32_out = crate::exec::forward_batch(&g, &inputs, 6).unwrap();
        let f32_out = &f32_out.outputs[y.index()];
        let qm = QuantizedModel::from_graph(&g, None).unwrap();
        assert_eq!(qm.layers.len(), 2);
        assert!(qm.bytes() > 0);
        let q_out = int8_forward(&g, &inputs, x, y, &qm, None).unwrap();
        assert_eq!(q_out.shape(), f32_out.shape());
        for (i, (&a, &b)) in q_out.data().iter().zip(f32_out.data()).enumerate() {
            assert!((a - b).abs() <= 0.05 * b.abs() + 0.6, "[{i}] int8 {a} vs f32 {b}");
        }
    }

    #[test]
    fn quantized_forward_respects_overrides_for_unquantized_nodes() {
        let (g, x, y) = mlp(5);
        let mut rng = seeded_rng(23);
        let input = randn([2, 32], 1.0, &mut rng);
        let mut inputs = BatchInputs::new();
        inputs.insert(x, input);
        // Quantize only the frozen layer; serve the head through overrides.
        let rg = g.requires_grad();
        let qm = QuantizedModel::from_graph_where(&g, None, |id| !rg[id.index()]).unwrap();
        assert_eq!(qm.layers.len(), 1);
        let new_w = randn([48, 10], 0.2, &mut rng);
        let new_b = randn([10], 0.2, &mut rng);
        let mut ov: ParamOverrides = HashMap::new();
        ov.insert(y, Arc::new(vec![new_w.clone(), new_b.clone()]));
        let out = int8_forward(&g, &inputs, x, y, &qm, Some(&ov)).unwrap();
        // Reference: same quantized trunk, head applied by hand.
        let trunk_id = *qm.layers.keys().next().unwrap();
        let trunk = qm.layers[&trunk_id].forward(inputs.get(x).unwrap()).unwrap();
        let mut want = matmul(&trunk, &new_w).unwrap();
        nautilus_tensor::ops::add_assign(&mut want, &new_b).unwrap();
        assert_eq!(out.data(), want.data(), "override head must apply exactly");
    }

    /// A record's quantized outputs must not depend on what it is
    /// batched with — the serving bit-identity promise.
    #[test]
    fn quantized_forward_is_batch_invariant() {
        let (g, x, y) = mlp(8);
        let mut rng = seeded_rng(24);
        let batch = randn([5, 32], 1.0, &mut rng);
        let qm = QuantizedModel::from_graph(&g, None).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(x, batch.clone());
        let stacked = int8_forward(&g, &inputs, x, y, &qm, None).unwrap();
        let per = stacked.len() / 5;
        for r in 0..5 {
            let solo_in = Tensor::from_vec(
                [1usize, 32],
                batch.data()[r * 32..(r + 1) * 32].to_vec(),
            )
            .unwrap();
            let mut si = BatchInputs::new();
            si.insert(x, solo_in);
            let solo = int8_forward(&g, &si, x, y, &qm, None).unwrap();
            assert_eq!(
                &stacked.data()[r * per..(r + 1) * per],
                solo.data(),
                "record {r} diverged from solo serving"
            );
        }
    }

    /// Two tenants' int8 forms over one shared quantized trunk, in one
    /// shared-trunk call: the trunk runs once over both groups' rows, and
    /// every row is bitwise what that tenant's solo int8 forward gives. An
    /// f32 group cannot join them: its trunk resolves to other parameters.
    #[test]
    fn int8_groups_share_one_quantized_trunk_bitwise_vs_solo() {
        let (g, x, y) = mlp(13);
        let base = crate::delta::strip_trainable(&g);
        let rg = base.requires_grad();
        let frozen = QuantizedModel::from_graph_where(&base, None, |id| !rg[id.index()]).unwrap();
        let mut rng = seeded_rng(25);
        let tenants: Vec<(ParamOverrides, QuantizedModel)> = (0..2)
            .map(|_| {
                let head = vec![randn([48, 10], 0.2, &mut rng), randn([10], 0.2, &mut rng)];
                let ov: ParamOverrides = HashMap::from([(y, Arc::new(head))]);
                let own = QuantizedModel::from_graph_where(&base, Some(&ov), |id| id == y).unwrap();
                let merged = frozen.merged_with(&own);
                (ov, merged)
            })
            .collect();
        let rows = [2usize, 3];
        let stacked = randn([5, 32], 1.0, &mut rng);
        let groups: Vec<TrunkGroup<'_>> = tenants
            .iter()
            .zip(rows)
            .map(|((ov, q), rows)| TrunkGroup { rows, overrides: Some(ov), quant: Some(q) })
            .collect();
        let outs = forward_batch_shared_trunk(&base, x, y, stacked.clone(), &groups).unwrap();
        let mut row = 0;
        for ((ov, q), (out, rows)) in tenants.iter().zip(outs.iter().zip(rows)) {
            for r in 0..rows {
                let mut si = BatchInputs::new();
                let rec = stacked.data()[(row + r) * 32..(row + r + 1) * 32].to_vec();
                si.insert(x, Tensor::from_vec([1usize, 32], rec).unwrap());
                let solo = int8_forward(&base, &si, x, y, q, Some(ov)).unwrap();
                let got = &out.data()[r * 10..(r + 1) * 10];
                assert_eq!(
                    nautilus_util::prop::f32_bits(got),
                    nautilus_util::prop::f32_bits(solo.data()),
                    "row {r} of a group diverged from its solo int8 forward"
                );
            }
            row += rows;
        }

        let f32_group = TrunkGroup { rows: 3, overrides: Some(&tenants[1].0), quant: None };
        let mixed = [TrunkGroup { rows: 2, ..groups[0] }, f32_group];
        assert!(forward_batch_shared_trunk(&base, x, y, stacked, &mixed).is_err());
    }

    #[test]
    fn merged_with_prefers_other_and_shares_arcs() {
        let (g, _x, y) = mlp(11);
        let base = QuantizedModel::from_graph(&g, None).unwrap();
        let head_only = QuantizedModel::from_graph_where(&g, None, |id| id == y).unwrap();
        let merged = base.merged_with(&head_only);
        assert_eq!(merged.layers.len(), base.layers.len());
        assert!(Arc::ptr_eq(&merged.layers[&y], &head_only.layers[&y]));
    }
}
