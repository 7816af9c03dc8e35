//! Forward and backward execution of model graphs on mini-batches.
//!
//! The forward pass computes every node output in topological order; the
//! backward pass visits nodes in reverse order but *only* where gradients
//! are needed: a node participates iff a trainable layer is reachable
//! through its ancestors ([`ModelGraph::requires_grad`]). This reproduces
//! the cost structure the paper's profiler assumes — trainable layers pay
//! forward + input-gradient + parameter-gradient, frozen non-materializable
//! layers pay forward + input-gradient, and materializable layers pay
//! forward only (§4.1).
//!
//! Every forward entry point — training [`forward`], [`forward_batch`] and
//! shared-trunk serving in f32 or int8 — is one walk over a chosen set of
//! nodes, with each node's parameters looked up in one place (`resolve`).

use crate::graph::{ModelGraph, NodeId};
use crate::layer::{Activation, LayerKind};
use crate::quant::{QuantDense, QuantizedModel};
use nautilus_tensor::ops::{
    add, add_assign, attention_backward, attention_forward, avg_pool2d_global, conv2d,
    conv2d_backward, conv2d_backward_ex, gelu, gelu_backward, gelu_backward_cached,
    gelu_with_tanh, layer_norm, layer_norm_backward, matmul, matmul_ta, matmul_tb, max_pool2d,
    max_pool2d_backward, relu, relu_backward, sum_rows, tanh_act, tanh_backward, AttnDims,
};
use nautilus_tensor::{Shape, Tensor, TensorError};
use nautilus_util::telemetry;
use nautilus_util::pool;
use std::collections::HashMap;
use std::sync::Arc;

/// Batched tensors for a graph's input placeholders.
#[derive(Debug, Clone, Default)]
pub struct BatchInputs {
    map: HashMap<NodeId, Tensor>,
}

impl BatchInputs {
    /// Empty input set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds `tensor` (batched: leading batch axis) to input node `id`.
    pub fn insert(&mut self, id: NodeId, tensor: Tensor) -> &mut Self {
        self.map.insert(id, tensor);
        self
    }

    /// Lookup.
    pub fn get(&self, id: NodeId) -> Option<&Tensor> {
        self.map.get(&id)
    }
}

/// Execution error: graph/shape/data problems surfaced with the node name.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Node where the failure occurred.
    pub node: String,
    /// Description.
    pub message: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution failed at '{}': {}", self.node, self.message)
    }
}

impl std::error::Error for ExecError {}

pub(crate) fn exec_err(node: &str, e: impl std::fmt::Display) -> ExecError {
    ExecError { node: node.to_string(), message: e.to_string() }
}

/// Per-node cache retained by the forward pass for the backward pass.
///
/// Fields are implementation details of each layer's backward formula; the
/// variant docs name them in order.
#[allow(missing_docs)]
#[derive(Debug, Clone)]
pub enum Cache {
    /// No cache needed.
    None,
    /// Dense: input and pre-activation.
    Dense { input: Tensor, pre: Tensor },
    /// Embedding: ids, LN cache.
    Embedding { ids: Tensor, xhat: Tensor, inv_std: Vec<f32> },
    /// Transformer block internals.
    Transformer(Box<TransformerCache>),
    /// Adapter: input, bottleneck pre-activation, bottleneck activation.
    Adapter { input: Tensor, hidden_pre: Tensor, hidden: Tensor },
    /// Conv2d: input and pre-activation.
    Conv { input: Tensor, pre: Tensor },
    /// Residual block internals.
    ResBlock(Box<ResBlockCache>),
    /// Max pooling: input shape + argmax indices.
    MaxPool { in_shape: Shape, argmax: Vec<u32> },
    /// Concat: innermost widths of each input.
    Concat { widths: Vec<usize> },
    /// Shape-only caches (flatten/pool).
    InShape(Shape),
}

/// Cached intermediates of one transformer block forward.
#[derive(Debug, Clone)]
pub struct TransformerCache {
    x: Tensor,
    q: Tensor,
    k: Tensor,
    v: Tensor,
    /// `[B, heads, S, S]` attention probability matrices.
    attn: Tensor,
    ctx: Tensor,
    ln1_xhat: Tensor,
    ln1_inv_std: Vec<f32>,
    h1: Tensor,
    ff_pre: Tensor,
    /// The tanh factor of `gelu(ff_pre)`, so backward does not recompute it.
    ff_tanh: Tensor,
    ff_act: Tensor,
    ln2_xhat: Tensor,
    ln2_inv_std: Vec<f32>,
}

/// Cached intermediates of one residual block forward.
#[derive(Debug, Clone)]
pub struct ResBlockCache {
    x: Tensor,
    pre1: Tensor,
    a1: Tensor,
    sum_pre: Tensor,
}

/// Result of a forward pass: every node's batched output plus caches.
#[derive(Debug)]
pub struct ForwardResult {
    /// Output of each node, indexed by node id.
    pub outputs: Vec<Tensor>,
    caches: Vec<Cache>,
}

impl Cache {
    /// Bytes of activation data this cache retains for the backward pass.
    pub fn bytes(&self) -> usize {
        let t = |x: &Tensor| x.len() * nautilus_tensor::ELEM_BYTES;
        match self {
            Cache::None => 0,
            Cache::Dense { input, pre } => t(input) + t(pre),
            Cache::Embedding { ids, xhat, inv_std } => {
                t(ids) + t(xhat) + inv_std.len() * 4
            }
            Cache::Transformer(tc) => {
                t(&tc.x)
                    + t(&tc.q)
                    + t(&tc.k)
                    + t(&tc.v)
                    + t(&tc.attn)
                    + t(&tc.ctx)
                    + t(&tc.ln1_xhat)
                    + tc.ln1_inv_std.len() * 4
                    + t(&tc.h1)
                    + t(&tc.ff_pre)
                    + t(&tc.ff_tanh)
                    + t(&tc.ff_act)
                    + t(&tc.ln2_xhat)
                    + tc.ln2_inv_std.len() * 4
            }
            Cache::Adapter { input, hidden_pre, hidden } => {
                t(input) + t(hidden_pre) + t(hidden)
            }
            Cache::Conv { input, pre } => t(input) + t(pre),
            Cache::ResBlock(rc) => t(&rc.x) + t(&rc.pre1) + t(&rc.a1) + t(&rc.sum_pre),
            Cache::MaxPool { argmax, .. } => argmax.len() * 4,
            Cache::Concat { widths } => widths.len() * std::mem::size_of::<usize>(),
            Cache::InShape(_) => 0,
        }
    }
}

impl ForwardResult {
    /// Output of a specific node.
    pub fn output(&self, id: NodeId) -> &Tensor {
        &self.outputs[id.index()]
    }

    /// Bytes actually retained by this forward pass at the loss barrier:
    /// every node output plus every backward cache.
    ///
    /// This is the *measured* counterpart of the §4.3.3 estimator's
    /// forward-live set — used to validate that the analytical bound tracks
    /// reality within a constant factor (this implementation clones inputs
    /// into caches, so the measurement double-counts relative to a
    /// zero-copy framework).
    pub fn retained_activation_bytes(&self) -> usize {
        let outputs: usize =
            self.outputs.iter().map(|t| t.len() * nautilus_tensor::ELEM_BYTES).sum();
        let caches: usize = self.caches.iter().map(Cache::bytes).sum();
        outputs + caches
    }
}

/// Gradients produced by a backward pass.
#[derive(Debug, Default)]
pub struct Gradients {
    /// Parameter gradients for trainable nodes (`node id -> grads`, aligned
    /// with the node's parameter order).
    pub params: HashMap<NodeId, Vec<Tensor>>,
}

/// Per-node parameter overrides: a variant's trainable tensors applied to
/// a shared base graph at execution time, without cloning the graph.
///
/// Keyed by node id; each value replaces that node's `params` wholesale.
/// The `Arc<Vec<Tensor>>` granularity lets a registry share one resident
/// copy of structurally identical deltas across tenants.
pub type ParamOverrides = HashMap<NodeId, Arc<Vec<Tensor>>>;

/// Runs the forward pass. `training` controls whether backward caches are
/// retained.
pub fn forward(
    graph: &ModelGraph,
    inputs: &BatchInputs,
    training: bool,
) -> Result<ForwardResult, ExecError> {
    let _sp = telemetry::span("dnn", "dnn.forward");
    let n = graph.len();
    let mut outputs: Vec<Option<Tensor>> = vec![None; n];
    let mut caches: Vec<Cache> = Vec::with_capacity(n);
    // Only training reads it: inference skips the graph walk.
    let requires_grad = training.then(|| graph.requires_grad());
    // One group over the whole batch, with the graph's own params.
    let own = [TrunkGroup { rows: 0, overrides: None, quant: None }];
    let keep = Some((&mut caches, requires_grad.as_deref()));
    walk(graph, graph.ids(), &own, inputs, &mut outputs, keep)?;
    Ok(ForwardResult {
        outputs: outputs.into_iter().map(|o| o.expect("all nodes computed")).collect(),
        caches,
    })
}

/// A node's parameters as one group resolves them.
pub(crate) enum Resolved<'a> {
    /// f32 tensors, in the node's parameter order.
    F32(&'a [Tensor]),
    /// The group's int8 form of a dense node.
    Int8(&'a Arc<QuantDense>),
}

impl Resolved<'_> {
    /// The same tensors: identity, not equal values.
    fn same(&self, other: &Resolved<'_>) -> bool {
        match (self, other) {
            (Resolved::F32(a), Resolved::F32(b)) => std::ptr::eq(*a, *b),
            (Resolved::Int8(a), Resolved::Int8(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// Resolves node `id`'s parameters for `group`: the group's int8 layer, else
/// its override entry, else the graph's own params. f32 params must match
/// the node's declared `param_shapes` in count (and, for an override, in
/// shape; the graph's own were checked when set), so no layer indexes past
/// what it was given.
pub(crate) fn resolve<'a>(
    graph: &'a ModelGraph,
    id: NodeId,
    group: &TrunkGroup<'a>,
) -> Result<Resolved<'a>, ExecError> {
    if let Some(q) = group.quant.and_then(|q| q.layers.get(&id)) {
        return Ok(Resolved::Int8(q));
    }
    let node = graph.node(id);
    let over = group.overrides.and_then(|o| o.get(&id));
    let params = over.map_or(&node.params[..], |v| &v[..]);
    if params.len() != node.param_shapes.len() {
        return Err(exec_err(
            &node.name,
            format!("{} parameter tensors, the layer takes {}", params.len(), node.param_shapes.len()),
        ));
    }
    if over.is_some() {
        for (p, s) in params.iter().zip(&node.param_shapes) {
            if p.shape() != s {
                return Err(exec_err(&node.name, format!("override parameter {} is not {s}", p.shape())));
            }
        }
    }
    Ok(Resolved::F32(params))
}

/// The one forward walk: runs `nodes` (ascending ids, so topological) over
/// the batch in `outs`, each node's parameters resolved in every one of
/// `groups` — which must agree, since the node's output serves them all.
/// A parent's output must already sit in `outs`. With `caches`, every
/// walked node pushes a cache, kept where its `keep` entry is set.
fn walk<'a>(
    graph: &'a ModelGraph,
    nodes: impl Iterator<Item = NodeId>,
    groups: &[TrunkGroup<'a>],
    inputs: &BatchInputs,
    outs: &mut [Option<Tensor>],
    mut caches: Option<(&mut Vec<Cache>, Option<&[bool]>)>,
) -> Result<(), ExecError> {
    for id in nodes {
        let node = graph.node(id);
        let mut each = groups.iter().map(|g| resolve(graph, id, g));
        let params = each.next().expect("at least one group")?;
        for other in each {
            if !params.same(&other?) {
                return Err(exec_err(&node.name, "groups sharing this node resolve different parameters"));
            }
        }
        let keep = caches.as_ref().and_then(|(_, k)| *k).is_some_and(|k| k[id.index()]);
        let parents: Vec<&Tensor> =
            node.inputs.iter().map(|p| outs[p.index()].as_ref().expect("topological order")).collect();
        let (out, cache) = match params {
            Resolved::Int8(q) => {
                let out = q.forward(parents[0]).map_err(|e| exec_err(&node.name, e.message))?;
                (out, Cache::None)
            }
            Resolved::F32(p) => {
                run_forward(node, p, &parents, inputs, id, keep).map_err(|e| exec_err(&node.name, e))?
            }
        };
        outs[id.index()] = Some(out);
        if let Some((c, _)) = caches.as_mut() {
            c.push(if keep { cache } else { Cache::None });
        }
    }
    Ok(())
}

/// Inference forward over a stacked batch of `batch` records: one graph
/// walk, no backward caches — [`forward`] without training state, under its
/// own span.
///
/// Each record's rows in the stacked output are bit-identical to running
/// that record alone, by construction: every graph op is record-separable
/// (dense/conv rows, per-record attention, per-row norms) and every product
/// element is the same float chain whichever kernel serves it and however
/// many records ride along (the summation contract of
/// [`nautilus_tensor::ops::matmul`]). `batch` therefore changes no result;
/// it is kept for callers that state the stacking they did.
pub fn forward_batch(
    graph: &ModelGraph,
    inputs: &BatchInputs,
    _batch: usize,
) -> Result<ForwardResult, ExecError> {
    let _sp = telemetry::span("dnn", "dnn.forward_batch");
    forward(graph, inputs, false)
}

/// One tenant's slice of a shared-trunk batch: `rows` consecutive records
/// of the stacked input, executed with the variant's parameters: per node,
/// its int8 layer, else its override entry, else the graph's own params.
pub struct TrunkGroup<'a> {
    /// Number of consecutive records belonging to this group.
    pub rows: usize,
    /// The variant's trainable parameters (`None` = graph's own params).
    pub overrides: Option<&'a ParamOverrides>,
    /// The variant's int8 serving form: dense nodes it holds run the
    /// row-quantized kernel (`None` = f32 throughout).
    pub quant: Option<&'a QuantizedModel>,
}

/// Inference over a stacked batch spanning several variants of one base:
/// the tenant-independent trunk (nodes with `requires_grad = false`) runs
/// **once** over the union batch, then each group's suffix (adapters,
/// heads, and any frozen layers above them) runs on its own row slice with
/// its own parameters — the serving dual of the paper's FUSE optimization.
/// A trunk node must resolve to the same tensors (or the same int8 layer)
/// in every group, otherwise the call fails: one trunk output cannot serve
/// two parameter sets.
///
/// Bit-identity with solo serving holds as for [`forward_batch`]: all graph
/// ops are record-separable and no kernel choice changes a bit, so each
/// returned tensor is bit-identical to running that group's records alone
/// through the full variant graph. int8 nodes quantize each row against its
/// own scale and accumulate in exact integers, so they keep the promise.
///
/// `stacked` must hold `sum(rows)` records of `input`'s per-record shape;
/// returns one stacked output tensor (of node `output`) per group, in
/// order.
pub fn forward_batch_shared_trunk(
    graph: &ModelGraph,
    input: NodeId,
    output: NodeId,
    stacked: Tensor,
    groups: &[TrunkGroup<'_>],
) -> Result<Vec<Tensor>, ExecError> {
    let _sp = telemetry::span("dnn", "dnn.forward_shared_trunk");
    let n = graph.len();
    if output.index() >= n || input.index() >= n {
        return Err(exec_err("graph", "input/output node out of range"));
    }
    let total: usize = groups.iter().map(|g| g.rows).sum();
    if total != stacked.shape().dim(0) || groups.iter().any(|g| g.rows == 0) {
        return Err(exec_err(
            "graph",
            format!(
                "group rows sum to {total}, stacked batch is {}",
                stacked.shape().dim(0)
            ),
        ));
    }
    if groups.is_empty() {
        return Ok(Vec::new());
    }
    let rg = graph.requires_grad();

    // Trunk pass: every tenant-independent node, once, over the union batch.
    // A trunk node's parents are all trunk: requires_grad is monotone along
    // edges, so !rg[child] implies !rg[parent].
    let mut binputs = BatchInputs::new();
    binputs.insert(input, stacked);
    let mut trunk_out: Vec<Option<Tensor>> = vec![None; n];
    walk(graph, graph.ids().filter(|id| !rg[id.index()]), groups, &binputs, &mut trunk_out, None)?;

    // Boundary: trunk nodes whose rows each group takes — those feeding a
    // per-tenant node, and the output itself when it is trunk.
    let mut needed = vec![false; n];
    needed[output.index()] = !rg[output.index()];
    for id in graph.ids().filter(|id| rg[id.index()]) {
        for p in &graph.node(id).inputs {
            needed[p.index()] |= !rg[p.index()];
        }
    }

    let empty = BatchInputs::new();
    let mut results = Vec::with_capacity(groups.len());
    let mut row = 0usize;
    for g in groups {
        let (a, b) = (row, row + g.rows);
        row = b;
        let mut outs: Vec<Option<Tensor>> = vec![None; n];
        for (i, need) in needed.iter().enumerate() {
            if *need {
                outs[i] = Some(slice_rows(trunk_out[i].as_ref().expect("boundary is trunk"), a, b));
            }
        }
        let suffix = graph.ids().filter(|id| rg[id.index()]);
        walk(graph, suffix, std::slice::from_ref(g), &empty, &mut outs, None)?;
        results.push(outs[output.index()].take().expect("output computed"));
    }
    Ok(results)
}

/// Copies record rows `[a, b)` out of a batch-leading stacked tensor.
fn slice_rows(t: &Tensor, a: usize, b: usize) -> Tensor {
    let per = t.shape().num_elements() / t.shape().dim(0);
    let mut dims = t.shape().0.clone();
    dims[0] = b - a;
    Tensor::from_vec(Shape::new(dims), t.data()[a * per..b * per].to_vec())
        .expect("row slice preserves shape")
}

/// Runs the backward pass from per-output-node gradients, returning
/// parameter gradients for every trainable node reached.
pub fn backward(
    graph: &ModelGraph,
    fwd: &ForwardResult,
    out_grads: HashMap<NodeId, Tensor>,
) -> Result<Gradients, ExecError> {
    let _sp = telemetry::span("dnn", "dnn.backward");
    let n = graph.len();
    let requires_grad = graph.requires_grad();
    let mut grads: Vec<Option<Tensor>> = vec![None; n];
    for (id, g) in out_grads {
        if requires_grad[id.index()] {
            accumulate(&mut grads[id.index()], g);
        }
    }
    let mut result = Gradients::default();

    for idx in (0..n).rev() {
        let Some(grad) = grads[idx].take() else { continue };
        let id = NodeId(idx);
        let node = graph.node(id);
        let parent_outputs: Vec<&Tensor> = node
            .inputs
            .iter()
            .map(|p| &fwd.outputs[p.index()])
            .collect();
        let needs_input_grads: Vec<bool> =
            node.inputs.iter().map(|p| requires_grad[p.index()]).collect();
        let out = run_backward(
            node,
            &fwd.caches[idx],
            &parent_outputs,
            &fwd.outputs[idx],
            &grad,
            &needs_input_grads,
        )
        .map_err(|e| exec_err(&node.name, e))?;
        if node.trainable() {
            debug_assert_eq!(out.param_grads.len(), node.params.len());
            result.params.insert(id, out.param_grads);
        }
        for (p, g) in node.inputs.iter().zip(out.input_grads) {
            if let Some(g) = g {
                accumulate(&mut grads[p.index()], g);
            }
        }
    }
    Ok(result)
}

fn accumulate(slot: &mut Option<Tensor>, g: Tensor) {
    match slot {
        None => *slot = Some(g),
        Some(acc) => {
            add_assign(acc, &g).expect("gradient shapes match");
        }
    }
}

struct BackwardOut {
    input_grads: Vec<Option<Tensor>>,
    param_grads: Vec<Tensor>,
}

pub(crate) fn apply_act(act: Activation, pre: &Tensor) -> Tensor {
    match act {
        Activation::None => pre.clone(),
        Activation::Relu => relu(pre),
        Activation::Gelu => gelu(pre),
        Activation::Tanh => tanh_act(pre),
    }
}

fn act_backward(act: Activation, pre: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
    match act {
        Activation::None => Ok(grad.clone()),
        Activation::Relu => relu_backward(pre, grad),
        Activation::Gelu => gelu_backward(pre, grad),
        Activation::Tanh => tanh_backward(&tanh_act(pre), grad),
    }
}

#[allow(clippy::too_many_lines)]
fn run_forward(
    node: &crate::graph::Node,
    params: &[Tensor],
    parents: &[&Tensor],
    inputs: &BatchInputs,
    id: NodeId,
    keep_cache: bool,
) -> Result<(Tensor, Cache), TensorError> {
    let p = params;
    match &node.kind {
        LayerKind::Input { shape } => {
            let t = inputs.get(id).ok_or_else(|| {
                TensorError::Incompatible(format!("no data bound to input '{}'", node.name))
            })?;
            let expected = Shape::new(shape.clone());
            let got = t.shape().without_batch();
            got.expect_eq(&expected)?;
            Ok((t.clone(), Cache::None))
        }
        LayerKind::Embedding { vocab, dim, .. } => {
            let ids = parents[0];
            let b = ids.shape().dim(0);
            let s = ids.shape().dim(1);
            let (tok, pos, gamma, beta) = (&p[0], &p[1], &p[2], &p[3]);
            let mut e = vec![0.0f32; b * s * dim];
            for bi in 0..b {
                for si in 0..s {
                    let tid = token_id(ids.data()[bi * s + si], *vocab)?;
                    let dst = &mut e[(bi * s + si) * dim..(bi * s + si + 1) * dim];
                    let tokrow = &tok.data()[tid * dim..(tid + 1) * dim];
                    let posrow = &pos.data()[si * dim..(si + 1) * dim];
                    for ((d, &t), &q) in dst.iter_mut().zip(tokrow).zip(posrow) {
                        *d = t + q;
                    }
                }
            }
            let e = Tensor::from_vec([b, s, *dim], e)?;
            let (out, xhat, inv_std) = layer_norm(&e, gamma, beta, 1e-5)?;
            let cache = if keep_cache {
                Cache::Embedding { ids: ids.clone(), xhat, inv_std }
            } else {
                Cache::None
            };
            Ok((out, cache))
        }
        LayerKind::TransformerBlock { dim, heads, .. } => {
            transformer_forward(parents[0], p, *dim, *heads, keep_cache)
        }
        LayerKind::Dense { act, .. } => {
            let x = parents[0];
            let mut pre = matmul(x, &p[0])?;
            add_assign(&mut pre, &p[1])?;
            let out = apply_act(*act, &pre);
            let cache = if keep_cache {
                Cache::Dense { input: x.clone(), pre }
            } else {
                Cache::None
            };
            Ok((out, cache))
        }
        LayerKind::Adapter { .. } => {
            let x = parents[0];
            let mut hidden_pre = matmul(x, &p[0])?;
            add_assign(&mut hidden_pre, &p[1])?;
            let hidden = relu(&hidden_pre);
            let mut up = matmul(&hidden, &p[2])?;
            add_assign(&mut up, &p[3])?;
            let out = add(x, &up)?;
            let cache = if keep_cache {
                Cache::Adapter { input: x.clone(), hidden_pre, hidden }
            } else {
                Cache::None
            };
            Ok((out, cache))
        }
        LayerKind::Add => {
            let mut out = parents[0].clone();
            for t in &parents[1..] {
                add_assign(&mut out, t)?;
            }
            Ok((out, Cache::None))
        }
        LayerKind::ConcatLast => {
            let widths: Vec<usize> = parents.iter().map(|t| t.shape().last_dim()).collect();
            let rows = parents[0].shape().outer_elements();
            let total: usize = widths.iter().sum();
            let mut data = vec![0.0f32; rows * total];
            let mut off = 0usize;
            for (t, &w) in parents.iter().zip(&widths) {
                let td = t.data();
                for r in 0..rows {
                    data[r * total + off..r * total + off + w]
                        .copy_from_slice(&td[r * w..(r + 1) * w]);
                }
                off += w;
            }
            let out_shape = parents[0].shape().with_last_dim(total);
            let cache =
                if keep_cache { Cache::Concat { widths } } else { Cache::None };
            Ok((Tensor::from_vec(out_shape, data)?, cache))
        }
        LayerKind::MeanPoolSeq => {
            let x = parents[0]; // [B, S, D]
            let (b, s, d) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
            let mut out = vec![0.0f32; b * d];
            let inv = 1.0 / s as f32;
            for bi in 0..b {
                for si in 0..s {
                    let row = &x.data()[(bi * s + si) * d..(bi * s + si + 1) * d];
                    let dst = &mut out[bi * d..(bi + 1) * d];
                    for (o, &v) in dst.iter_mut().zip(row) {
                        *o += v * inv;
                    }
                }
            }
            let cache = if keep_cache {
                Cache::InShape(x.shape().clone())
            } else {
                Cache::None
            };
            Ok((Tensor::from_vec([b, d], out)?, cache))
        }
        LayerKind::Conv2d { stride, pad, act, .. } => {
            let x = parents[0];
            let pre = conv2d(x, &p[0], &p[1], *stride, *pad)?;
            let out = apply_act(*act, &pre);
            let cache = if keep_cache {
                Cache::Conv { input: x.clone(), pre }
            } else {
                Cache::None
            };
            Ok((out, cache))
        }
        LayerKind::ResidualBlock { in_ch, out_ch, stride } => {
            let x = parents[0];
            let pre1 = conv2d(x, &p[0], &p[1], *stride, 1)?;
            let a1 = relu(&pre1);
            let a2 = conv2d(&a1, &p[2], &p[3], 1, 1)?;
            let skip = if *in_ch != *out_ch || *stride != 1 {
                conv2d(x, &p[4], &p[5], *stride, 0)?
            } else {
                x.clone()
            };
            let sum_pre = add(&a2, &skip)?;
            let out = relu(&sum_pre);
            let cache = if keep_cache {
                Cache::ResBlock(Box::new(ResBlockCache { x: x.clone(), pre1, a1, sum_pre }))
            } else {
                Cache::None
            };
            Ok((out, cache))
        }
        LayerKind::MaxPool2d { k, stride } => {
            let x = parents[0];
            let (out, argmax) = max_pool2d(x, *k, *stride)?;
            let cache = if keep_cache {
                Cache::MaxPool { in_shape: x.shape().clone(), argmax }
            } else {
                Cache::None
            };
            Ok((out, cache))
        }
        LayerKind::GlobalAvgPool => {
            let x = parents[0];
            let out = avg_pool2d_global(x)?;
            let cache = if keep_cache {
                Cache::InShape(x.shape().clone())
            } else {
                Cache::None
            };
            Ok((out, cache))
        }
        LayerKind::Flatten => {
            let x = parents[0];
            let b = x.shape().dim(0);
            let rest = x.len() / b.max(1);
            let out = x.reshape([b, rest])?;
            let cache = if keep_cache {
                Cache::InShape(x.shape().clone())
            } else {
                Cache::None
            };
            Ok((out, cache))
        }
        LayerKind::SliceSeq { index } => {
            let x = parents[0]; // [B, S, D]
            let (b, s, d) = (x.shape().dim(0), x.shape().dim(1), x.shape().dim(2));
            let mut out = vec![0.0f32; b * d];
            for bi in 0..b {
                out[bi * d..(bi + 1) * d]
                    .copy_from_slice(&x.data()[(bi * s + index) * d..(bi * s + index + 1) * d]);
            }
            let cache = if keep_cache {
                Cache::InShape(x.shape().clone())
            } else {
                Cache::None
            };
            Ok((Tensor::from_vec([b, d], out)?, cache))
        }
        LayerKind::ZerosLike { shape } => {
            let b = parents[0].shape().dim(0);
            Ok((Tensor::zeros(Shape::new(shape.clone()).with_batch(b)), Cache::None))
        }
    }
}

/// A token id as an index: ids arrive as floats (possibly from a request
/// body), so anything but an exact integer in `0..vocab` is rejected rather
/// than truncated or saturated into a valid row.
fn token_id(raw: f32, vocab: usize) -> Result<usize, TensorError> {
    // `as usize` saturates, so an integral float past `usize::MAX` still
    // fails the range check.
    if raw >= 0.0 && raw.fract() == 0.0 && (raw as usize) < vocab {
        Ok(raw as usize)
    } else {
        Err(TensorError::Incompatible(format!("token id {raw} is not an integer in 0..{vocab}")))
    }
}

fn transformer_forward(
    x: &Tensor,
    p: &[Tensor],
    dim: usize,
    heads: usize,
    keep_cache: bool,
) -> Result<(Tensor, Cache), TensorError> {
    let (b, s) = (x.shape().dim(0), x.shape().dim(1));
    let dims = AttnDims { seq: s, dim, heads };
    let (wq, bq, wk, bk, wv, bv, wo, bo) =
        (&p[0], &p[1], &p[2], &p[3], &p[4], &p[5], &p[6], &p[7]);
    let (ln1g, ln1b) = (&p[8], &p[9]);
    let (w1, b1, w2, b2) = (&p[10], &p[11], &p[12], &p[13]);
    let (ln2g, ln2b) = (&p[14], &p[15]);

    let mut q = matmul(x, wq)?;
    add_assign(&mut q, bq)?;
    let mut k = matmul(x, wk)?;
    add_assign(&mut k, bk)?;
    let mut v = matmul(x, wv)?;
    add_assign(&mut v, bv)?;

    // Attention cores are independent per record; fan records out over the
    // pool, each task writing its own record of `ctx` (and of the kept
    // probabilities), so results are identical to the sequential loop at
    // any thread count.
    let mut ctx = Tensor::zeros(x.shape().clone());
    // Kept probabilities and the GELU tanh factor exist only for backward:
    // both stay empty in inference.
    let mut attn = Tensor::zeros([if keep_cache { b } else { 0 }, heads, s, s]);
    if s > 0 {
        let rec = dims.record_len();
        let (qd, kd, vd) = (q.data(), k.data(), v.data());
        let mut kept = attn.data_mut().chunks_exact_mut(dims.probs_len());
        pool::run_scope(
            ctx.data_mut()
                .chunks_exact_mut(rec)
                .enumerate()
                .map(|(bi, ctx_rec)| {
                    let probs = kept.next();
                    let r = bi * rec..(bi + 1) * rec;
                    Box::new(move || {
                        attention_forward(dims, &qd[r.clone()], &kd[r.clone()], &vd[r], ctx_rec, probs)
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
    }
    let mut ao = matmul(&ctx, wo)?;
    add_assign(&mut ao, bo)?;
    let res1 = add(x, &ao)?;
    let (h1, ln1_xhat, ln1_inv_std) = layer_norm(&res1, ln1g, ln1b, 1e-5)?;
    let mut ff_pre = matmul(&h1, w1)?;
    add_assign(&mut ff_pre, b1)?;
    let (ff_act, ff_tanh) =
        if keep_cache { gelu_with_tanh(&ff_pre) } else { (gelu(&ff_pre), Tensor::zeros([0])) };
    let mut ff = matmul(&ff_act, w2)?;
    add_assign(&mut ff, b2)?;
    let res2 = add(&h1, &ff)?;
    let (out, ln2_xhat, ln2_inv_std) = layer_norm(&res2, ln2g, ln2b, 1e-5)?;

    let cache = if keep_cache {
        Cache::Transformer(Box::new(TransformerCache {
            x: x.clone(),
            q,
            k,
            v,
            attn,
            ctx,
            ln1_xhat,
            ln1_inv_std,
            h1,
            ff_pre,
            ff_tanh,
            ff_act,
            ln2_xhat,
            ln2_inv_std,
        }))
    } else {
        Cache::None
    };
    Ok((out, cache))
}

#[allow(clippy::too_many_lines)]
fn transformer_backward(
    tc: &TransformerCache,
    p: &[Tensor],
    dim: usize,
    heads: usize,
    dout: &Tensor,
    trainable: bool,
    need_input_grad: bool,
) -> Result<BackwardOut, TensorError> {
    let s = tc.x.shape().dim(1);
    let dims = AttnDims { seq: s, dim, heads };
    let (wq, wk, wv, wo) = (&p[0], &p[2], &p[4], &p[6]);
    let (ln1g, w1, w2, ln2g) = (&p[8], &p[10], &p[12], &p[14]);

    // Output layer norm.
    let (dres2, dg2, db2ln) = layer_norm_backward(&tc.ln2_xhat, &tc.ln2_inv_std, ln2g, dout)?;
    // Feed-forward branch.
    let dff = &dres2;
    let dw2 = matmul_ta(&tc.ff_act, dff)?;
    let db2 = sum_rows(dff)?;
    let dff_act = matmul_tb_weight(dff, w2)?;
    let dff_pre = gelu_backward_cached(&tc.ff_pre, &tc.ff_tanh, &dff_act)?;
    let dw1 = matmul_ta(&tc.h1, &dff_pre)?;
    let db1 = sum_rows(&dff_pre)?;
    let mut dh1 = dres2.clone(); // residual path
    add_assign(&mut dh1, &matmul_tb_weight(&dff_pre, w1)?)?;
    // Attention layer norm.
    let (dres1, dg1, db1ln) = layer_norm_backward(&tc.ln1_xhat, &tc.ln1_inv_std, ln1g, &dh1)?;
    // Attention output projection.
    let dao = &dres1;
    let dwo = matmul_ta(&tc.ctx, dao)?;
    let dbo = sum_rows(dao)?;
    let dctx = matmul_tb_weight(dao, wo)?;
    // Attention cores: per-record gradients fan out over the pool, each
    // task writing its own record of dq/dk/dv — bit-identical to the
    // sequential loop.
    let mut dq = Tensor::zeros(tc.q.shape().clone());
    let mut dk = Tensor::zeros(tc.k.shape().clone());
    let mut dv = Tensor::zeros(tc.v.shape().clone());
    if s > 0 {
        let (rec, plen) = (dims.record_len(), dims.probs_len());
        let (qd, kd, vd) = (tc.q.data(), tc.k.data(), tc.v.data());
        let (ad, dcd) = (tc.attn.data(), dctx.data());
        pool::run_scope(
            dq.data_mut()
                .chunks_exact_mut(rec)
                .zip(dk.data_mut().chunks_exact_mut(rec))
                .zip(dv.data_mut().chunks_exact_mut(rec))
                .enumerate()
                .map(|(bi, ((dq_rec, dk_rec), dv_rec))| {
                    let r = bi * rec..(bi + 1) * rec;
                    Box::new(move || {
                        attention_backward(
                            dims,
                            &qd[r.clone()],
                            &kd[r.clone()],
                            &vd[r.clone()],
                            &ad[bi * plen..(bi + 1) * plen],
                            &dcd[r],
                            dq_rec,
                            dk_rec,
                            dv_rec,
                        )
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect(),
        );
    }
    // Input projections.
    let param_grads = if trainable {
        vec![
            matmul_ta(&tc.x, &dq)?,
            sum_rows(&dq)?,
            matmul_ta(&tc.x, &dk)?,
            sum_rows(&dk)?,
            matmul_ta(&tc.x, &dv)?,
            sum_rows(&dv)?,
            dwo,
            dbo,
            dg1,
            db1ln,
            dw1,
            db1,
            dw2,
            db2,
            dg2,
            db2ln,
        ]
    } else {
        Vec::new()
    };
    let dx = if need_input_grad {
        let mut dx = dres1.clone(); // residual into the block input
        add_assign(&mut dx, &matmul_tb_weight(&dq, wq)?)?;
        add_assign(&mut dx, &matmul_tb_weight(&dk, wk)?)?;
        add_assign(&mut dx, &matmul_tb_weight(&dv, wv)?)?;
        Some(dx)
    } else {
        None
    };
    Ok(BackwardOut { input_grads: vec![dx], param_grads })
}

#[allow(clippy::too_many_lines)]
fn run_backward(
    node: &crate::graph::Node,
    cache: &Cache,
    parents: &[&Tensor],
    output: &Tensor,
    grad: &Tensor,
    needs_input_grads: &[bool],
) -> Result<BackwardOut, TensorError> {
    let p = &node.params;
    let trainable = node.trainable();
    let no_params = Vec::new();
    match (&node.kind, cache) {
        (LayerKind::Input { .. }, _) => {
            Ok(BackwardOut { input_grads: vec![], param_grads: no_params })
        }
        (LayerKind::Embedding { dim, .. }, Cache::Embedding { ids, xhat, inv_std }) => {
            let gamma = &p[2];
            let (de, dgamma, dbeta) = layer_norm_backward(xhat, inv_std, gamma, grad)?;
            let param_grads = if trainable {
                let (b, s) = (ids.shape().dim(0), ids.shape().dim(1));
                let mut dtok = Tensor::zeros(p[0].shape().clone());
                let mut dpos = Tensor::zeros(p[1].shape().clone());
                for bi in 0..b {
                    for si in 0..s {
                        // Validated by the forward pass that built this cache.
                        let tid = ids.data()[bi * s + si] as usize;
                        let src = &de.data()[(bi * s + si) * dim..(bi * s + si + 1) * dim];
                        let trow = &mut dtok.data_mut()[tid * dim..(tid + 1) * dim];
                        for (o, &g) in trow.iter_mut().zip(src) {
                            *o += g;
                        }
                        let prow = &mut dpos.data_mut()[si * dim..(si + 1) * dim];
                        for (o, &g) in prow.iter_mut().zip(src) {
                            *o += g;
                        }
                    }
                }
                vec![dtok, dpos, dgamma, dbeta]
            } else {
                no_params
            };
            // ids are not differentiable.
            Ok(BackwardOut { input_grads: vec![None], param_grads })
        }
        (LayerKind::TransformerBlock { dim, heads, .. }, Cache::Transformer(tc)) => {
            transformer_backward(tc, p, *dim, *heads, grad, trainable, needs_input_grads[0])
        }
        (LayerKind::Dense { act, .. }, Cache::Dense { input, pre }) => {
            let dpre = act_backward(*act, pre, grad)?;
            let param_grads = if trainable {
                vec![matmul_ta(input, &dpre)?, sum_rows(&dpre)?]
            } else {
                no_params
            };
            let dx = if needs_input_grads[0] {
                Some(matmul_tb_weight(&dpre, &p[0])?)
            } else {
                None
            };
            Ok(BackwardOut { input_grads: vec![dx], param_grads })
        }
        (LayerKind::Adapter { .. }, Cache::Adapter { input, hidden_pre, hidden }) => {
            // out = x + relu(xWd + bd) Wu + bu
            let du = grad; // gradient into the up-projection output
            let mut param_grads = no_params;
            let dh = matmul_tb_weight(du, &p[2])?;
            let dh_pre = relu_backward(hidden_pre, &dh)?;
            if trainable {
                param_grads = vec![
                    matmul_ta(input, &dh_pre)?,
                    sum_rows(&dh_pre)?,
                    matmul_ta(hidden, du)?,
                    sum_rows(du)?,
                ];
            }
            let dx = if needs_input_grads[0] {
                let mut dx = grad.clone(); // residual path
                let through = matmul_tb_weight(&dh_pre, &p[0])?;
                add_assign(&mut dx, &through)?;
                Some(dx)
            } else {
                None
            };
            Ok(BackwardOut { input_grads: vec![dx], param_grads })
        }
        (LayerKind::Add, _) => {
            let input_grads = needs_input_grads
                .iter()
                .map(|&need| if need { Some(grad.clone()) } else { None })
                .collect();
            Ok(BackwardOut { input_grads, param_grads: no_params })
        }
        (LayerKind::ConcatLast, Cache::Concat { widths }) => {
            let rows = grad.shape().outer_elements();
            let total = grad.shape().last_dim();
            let mut input_grads = Vec::with_capacity(widths.len());
            let mut off = 0usize;
            for (i, &w) in widths.iter().enumerate() {
                if needs_input_grads[i] {
                    let mut data = vec![0.0f32; rows * w];
                    for r in 0..rows {
                        data[r * w..(r + 1) * w]
                            .copy_from_slice(&grad.data()[r * total + off..r * total + off + w]);
                    }
                    input_grads.push(Some(Tensor::from_vec(
                        parents[i].shape().clone(),
                        data,
                    )?));
                } else {
                    input_grads.push(None);
                }
                off += w;
            }
            Ok(BackwardOut { input_grads, param_grads: no_params })
        }
        (LayerKind::MeanPoolSeq, Cache::InShape(in_shape)) => {
            let dx = if needs_input_grads[0] {
                let (b, s, d) = (in_shape.dim(0), in_shape.dim(1), in_shape.dim(2));
                let inv = 1.0 / s as f32;
                let mut data = vec![0.0f32; b * s * d];
                for bi in 0..b {
                    let src = &grad.data()[bi * d..(bi + 1) * d];
                    for si in 0..s {
                        let dst = &mut data[(bi * s + si) * d..(bi * s + si + 1) * d];
                        for (o, &g) in dst.iter_mut().zip(src) {
                            *o = g * inv;
                        }
                    }
                }
                Some(Tensor::from_vec(in_shape.clone(), data)?)
            } else {
                None
            };
            Ok(BackwardOut { input_grads: vec![dx], param_grads: no_params })
        }
        (LayerKind::Conv2d { stride, pad, act, .. }, Cache::Conv { input, pre }) => {
            let dpre = act_backward(*act, pre, grad)?;
            let (dx, dw, db) =
                conv2d_backward_ex(input, &p[0], &dpre, *stride, *pad, needs_input_grads[0])?;
            let param_grads = if trainable { vec![dw, db] } else { no_params };
            Ok(BackwardOut { input_grads: vec![dx], param_grads })
        }
        (LayerKind::ResidualBlock { in_ch, out_ch, stride }, Cache::ResBlock(rc)) => {
            let dsum = relu_backward(&rc.sum_pre, grad)?;
            // Main path: conv2 then conv1.
            let (da1, dw2, db2) = conv2d_backward(&rc.a1, &p[2], &dsum, 1, 1)?;
            let dpre1 = relu_backward(&rc.pre1, &da1)?;
            let need_dx = needs_input_grads[0];
            let (dx_main, dw1, db1) =
                conv2d_backward_ex(&rc.x, &p[0], &dpre1, *stride, 1, need_dx)?;
            // Skip path.
            let has_proj = *in_ch != *out_ch || *stride != 1;
            let (dx_skip, proj_grads) = if has_proj {
                let (dx, dwp, dbp) = conv2d_backward_ex(&rc.x, &p[4], &dsum, *stride, 0, need_dx)?;
                (dx, Some((dwp, dbp)))
            } else {
                (need_dx.then(|| dsum.clone()), None)
            };
            let param_grads = if trainable {
                let mut g = vec![dw1, db1, dw2, db2];
                if let Some((dwp, dbp)) = proj_grads {
                    g.push(dwp);
                    g.push(dbp);
                }
                g
            } else {
                no_params
            };
            let dx = match (dx_main, dx_skip) {
                (Some(main), Some(skip)) => Some(add(&main, &skip)?),
                _ => None,
            };
            Ok(BackwardOut { input_grads: vec![dx], param_grads })
        }
        (LayerKind::MaxPool2d { .. }, Cache::MaxPool { in_shape, argmax }) => {
            let dx = if needs_input_grads[0] {
                Some(max_pool2d_backward(in_shape, argmax, grad)?)
            } else {
                None
            };
            Ok(BackwardOut { input_grads: vec![dx], param_grads: no_params })
        }
        (LayerKind::GlobalAvgPool, Cache::InShape(in_shape)) => {
            let dx = if needs_input_grads[0] {
                let (b, c, h, w) =
                    (in_shape.dim(0), in_shape.dim(1), in_shape.dim(2), in_shape.dim(3));
                let inv = 1.0 / (h * w) as f32;
                let mut data = vec![0.0f32; b * c * h * w];
                for bi in 0..b {
                    for ci in 0..c {
                        let g = grad.data()[bi * c + ci] * inv;
                        let base = (bi * c + ci) * h * w;
                        data[base..base + h * w].iter_mut().for_each(|x| *x = g);
                    }
                }
                Some(Tensor::from_vec(in_shape.clone(), data)?)
            } else {
                None
            };
            Ok(BackwardOut { input_grads: vec![dx], param_grads: no_params })
        }
        (LayerKind::Flatten, Cache::InShape(in_shape)) => {
            let dx = if needs_input_grads[0] {
                Some(grad.reshape(in_shape.clone())?)
            } else {
                None
            };
            Ok(BackwardOut { input_grads: vec![dx], param_grads: no_params })
        }
        (LayerKind::SliceSeq { index }, Cache::InShape(in_shape)) => {
            let dx = if needs_input_grads[0] {
                let (b, s, d) = (in_shape.dim(0), in_shape.dim(1), in_shape.dim(2));
                let mut data = vec![0.0f32; b * s * d];
                for bi in 0..b {
                    data[(bi * s + index) * d..(bi * s + index + 1) * d]
                        .copy_from_slice(&grad.data()[bi * d..(bi + 1) * d]);
                }
                Some(Tensor::from_vec(in_shape.clone(), data)?)
            } else {
                None
            };
            Ok(BackwardOut { input_grads: vec![dx], param_grads: no_params })
        }
        (LayerKind::ZerosLike { .. }, _) => {
            // Constant output: no gradient flows to the (shape-donor) input.
            Ok(BackwardOut { input_grads: vec![None], param_grads: no_params })
        }
        (kind, _) => Err(TensorError::Incompatible(format!(
            "missing forward cache for {} backward (was the forward run with training=true? output shape {})",
            kind.type_name(),
            output.shape(),
        ))),
    }
}

/// `dX = dY · Wᵀ` where `W` is stored `(in, out)`: uses `matmul_tb` against
/// `W` viewed as `(out, in)` columns — i.e. plain `matmul_tb(dY, Wᵀstored)`.
/// Our `matmul_tb(a, b)` computes `a · bᵀ` for `b` stored `(k, n)`; here we
/// need `dY(…,out) · Wᵀ(out,in)` with `W` stored `(in, out)`, so transpose
/// the weight once.
fn matmul_tb_weight(dy: &Tensor, w: &Tensor) -> Result<Tensor, TensorError> {
    // W is (in, out); dX = dY · Wᵀ. matmul_tb(dy, b) computes dy · bᵀ with b
    // stored (k, n) = (in, out): dy(…,out)·bᵀ requires b's inner dim to be
    // out, i.e. b stored (in, out) transposed gives (out, in)... matmul_tb
    // expects b as (k, n) with n == dy's last dim. W is (in, out) with
    // out == dy.last, so matmul_tb(dy, W) = dy · Wᵀ with result (…, in). ✓
    matmul_tb(dy, w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{ModelGraph, ParamInit};
    use nautilus_tensor::init::{randn, seeded_rng};
    use nautilus_tensor::ops::cross_entropy_logits;

    /// Builds a graph, runs a scalar loss, and finite-difference-checks the
    /// gradient of every trainable parameter.
    fn grad_check(graph: &mut ModelGraph, inputs: &BatchInputs, targets: &[i64], tol: f32) {
        let out_id = graph.outputs()[0];
        let loss_of = |g: &ModelGraph| -> f32 {
            let fwd = forward(g, inputs, false).unwrap();
            cross_entropy_logits(fwd.output(out_id), targets).unwrap().0
        };
        let fwd = forward(graph, inputs, true).unwrap();
        let (_, dlogits) = cross_entropy_logits(fwd.output(out_id), targets).unwrap();
        let mut out_grads = HashMap::new();
        out_grads.insert(out_id, dlogits);
        let grads = backward(graph, &fwd, out_grads).unwrap();

        let trainable_ids: Vec<NodeId> =
            graph.ids().filter(|&id| graph.node(id).trainable()).collect();
        assert!(!trainable_ids.is_empty());
        for id in trainable_ids {
            let nparams = graph.node(id).params.len();
            let g = grads.params.get(&id).unwrap_or_else(|| {
                panic!("no grads for trainable node {}", graph.node(id).name)
            });
            assert_eq!(g.len(), nparams);
            #[allow(clippy::needless_range_loop)]
            for pi in 0..nparams {
                let plen = graph.node(id).params[pi].len();
                // Spot-check up to 4 coordinates per parameter.
                let step = (plen / 4).max(1);
                for ei in (0..plen).step_by(step) {
                    let eps = 1e-2f32;
                    let orig = graph.node(id).params[pi].data()[ei];
                    graph.node_mut(id).params[pi].data_mut()[ei] = orig + eps;
                    let lp = loss_of(graph);
                    graph.node_mut(id).params[pi].data_mut()[ei] = orig - eps;
                    let lm = loss_of(graph);
                    graph.node_mut(id).params[pi].data_mut()[ei] = orig;
                    let num = (lp - lm) / (2.0 * eps);
                    let ana = g[pi].data()[ei];
                    assert!(
                        (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                        "node {} param {pi} elem {ei}: numeric {num} vs analytic {ana}",
                        graph.node(id).name
                    );
                }
            }
        }
    }

    #[test]
    fn dense_stack_grad_check() {
        let mut rng = seeded_rng(11);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [6]);
        let h = g
            .add_layer(
                "hidden",
                LayerKind::Dense { in_dim: 6, out_dim: 5, act: Activation::Relu },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 5, out_dim: 3, act: Activation::None },
                &[h],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([4, 6], 1.0, &mut rng));
        grad_check(&mut g, &inputs, &[0, 1, 2, 0], 5e-2);
    }

    #[test]
    fn adapter_grad_check() {
        let mut rng = seeded_rng(13);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let a = g
            .add_layer(
                "adapter",
                LayerKind::Adapter { dim: 4, bottleneck: 3 },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
                &[a],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([3, 4], 1.0, &mut rng));
        grad_check(&mut g, &inputs, &[0, 1, 1], 5e-2);
    }

    #[test]
    fn transformer_grad_check() {
        let mut rng = seeded_rng(17);
        let mut g = ModelGraph::new();
        let inp = g.add_input("tokens", [5]);
        let emb = g
            .add_layer(
                "emb",
                LayerKind::Embedding { vocab: 11, dim: 8, max_len: 8 },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let t = g
            .add_layer(
                "block",
                LayerKind::TransformerBlock { dim: 8, heads: 2, ff_dim: 12 },
                &[emb],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 8, out_dim: 3, act: Activation::None },
                &[t],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        let ids =
            Tensor::from_vec([2, 5], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0])
                .unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, ids);
        // Token tagging: 2 records x 5 tokens -> 10 targets.
        grad_check(&mut g, &inputs, &[0, 1, 2, 0, 1, 2, 0, 1, 2, 0], 8e-2);
    }

    #[test]
    fn conv_resblock_grad_check() {
        let mut rng = seeded_rng(19);
        let mut g = ModelGraph::new();
        let inp = g.add_input("img", [2, 6, 6]);
        let c = g
            .add_layer(
                "stem",
                LayerKind::Conv2d { in_ch: 2, out_ch: 4, k: 3, stride: 1, pad: 1, act: Activation::Relu },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let r = g
            .add_layer(
                "res",
                LayerKind::ResidualBlock { in_ch: 4, out_ch: 8, stride: 2 },
                &[c],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let gap = g
            .add_layer("gap", LayerKind::GlobalAvgPool, &[r], true, ParamInit::Given(vec![]))
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 8, out_dim: 2, act: Activation::None },
                &[gap],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([2, 2, 6, 6], 1.0, &mut rng));
        grad_check(&mut g, &inputs, &[0, 1], 8e-2);
    }

    #[test]
    fn concat_and_add_grad_check() {
        let mut rng = seeded_rng(23);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let a = g
            .add_layer(
                "a",
                LayerKind::Dense { in_dim: 4, out_dim: 3, act: Activation::Tanh },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let b = g
            .add_layer(
                "b",
                LayerKind::Dense { in_dim: 4, out_dim: 3, act: Activation::Gelu },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let sum = g
            .add_layer("sum", LayerKind::Add, &[a, b], true, ParamInit::Given(vec![]))
            .unwrap();
        let cat = g
            .add_layer("cat", LayerKind::ConcatLast, &[sum, a], true, ParamInit::Given(vec![]))
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 6, out_dim: 2, act: Activation::None },
                &[cat],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([3, 4], 1.0, &mut rng));
        grad_check(&mut g, &inputs, &[1, 0, 1], 5e-2);
    }

    #[test]
    fn frozen_backbone_gets_no_gradients() {
        let mut rng = seeded_rng(29);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let frozen = g
            .add_layer(
                "frozen",
                LayerKind::Dense { in_dim: 4, out_dim: 4, act: Activation::Relu },
                &[inp],
                true,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let head = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
                &[frozen],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(head).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([2, 4], 1.0, &mut rng));
        let fwd = forward(&g, &inputs, true).unwrap();
        let (_, dl) = cross_entropy_logits(fwd.output(head), &[0, 1]).unwrap();
        let mut ogs = HashMap::new();
        ogs.insert(head, dl);
        let grads = backward(&g, &fwd, ogs).unwrap();
        assert!(grads.params.contains_key(&head));
        assert!(!grads.params.contains_key(&frozen));
    }

    #[test]
    fn forward_requires_bound_inputs() {
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let _ = inp;
        let r = forward(&g, &BatchInputs::new(), false);
        assert!(r.is_err());
    }

    #[test]
    fn forward_rejects_wrong_record_shape() {
        let mut rng = seeded_rng(31);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([2, 5], 1.0, &mut rng));
        assert!(forward(&g, &inputs, false).is_err());
    }

    #[test]
    fn slice_seq_grad_check() {
        // A head over one sliced position: the scatter backward must place
        // gradient mass only at that position.
        let mut rng = seeded_rng(41);
        let mut g = ModelGraph::new();
        let inp = g.add_input("seq", [4, 3]);
        let proj = g
            .add_layer(
                "proj",
                LayerKind::Dense { in_dim: 3, out_dim: 3, act: Activation::Tanh },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let sl = g
            .add_layer(
                "pick2",
                LayerKind::SliceSeq { index: 2 },
                &[proj],
                true,
                ParamInit::Given(vec![]),
            )
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 3, out_dim: 2, act: Activation::None },
                &[sl],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([3, 4, 3], 1.0, &mut rng));
        grad_check(&mut g, &inputs, &[0, 1, 0], 5e-2);
    }

    #[test]
    fn zeros_like_blocks_gradients() {
        let mut rng = seeded_rng(43);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        // Trainable layer feeding a ZerosLike: its output is discarded, so
        // it must receive no gradient even though it is trainable.
        let dead = g
            .add_layer(
                "dead-branch",
                LayerKind::Dense { in_dim: 4, out_dim: 4, act: Activation::None },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let z = g
            .add_layer(
                "zeros",
                LayerKind::ZerosLike { shape: vec![4] },
                &[dead],
                true,
                ParamInit::Given(vec![]),
            )
            .unwrap();
        let live = g
            .add_layer(
                "live",
                LayerKind::Dense { in_dim: 4, out_dim: 4, act: Activation::Relu },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let sum = g
            .add_layer("sum", LayerKind::Add, &[z, live], true, ParamInit::Given(vec![]))
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
                &[sum],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([2, 4], 1.0, &mut rng));
        let fwd = forward(&g, &inputs, true).unwrap();
        // Zeros output really is zeros.
        assert!(fwd.output(z).data().iter().all(|&x| x == 0.0));
        let (_, dl) = cross_entropy_logits(fwd.output(o), &[0, 1]).unwrap();
        let mut og = HashMap::new();
        og.insert(o, dl);
        let grads = backward(&g, &fwd, og).unwrap();
        assert!(!grads.params.contains_key(&dead), "gradient crossed ZerosLike");
        assert!(grads.params.contains_key(&live));
        assert!(grads.params.contains_key(&o));
    }

    #[test]
    fn multi_output_graph_trains_both_heads() {
        let mut rng = seeded_rng(47);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let trunk = g
            .add_layer(
                "trunk",
                LayerKind::Dense { in_dim: 4, out_dim: 6, act: Activation::Relu },
                &[inp],
                true,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let h1 = g
            .add_layer(
                "head1",
                LayerKind::Dense { in_dim: 6, out_dim: 2, act: Activation::None },
                &[trunk],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let h2 = g
            .add_layer(
                "head2",
                LayerKind::Dense { in_dim: 6, out_dim: 3, act: Activation::None },
                &[trunk],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(h1).unwrap();
        g.add_output(h2).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([2, 4], 1.0, &mut rng));
        let fwd = forward(&g, &inputs, true).unwrap();
        let (_, g1) = cross_entropy_logits(fwd.output(h1), &[0, 1]).unwrap();
        let (_, g2) = cross_entropy_logits(fwd.output(h2), &[2, 0]).unwrap();
        let mut og = HashMap::new();
        og.insert(h1, g1);
        og.insert(h2, g2);
        let grads = backward(&g, &fwd, og).unwrap();
        assert!(grads.params.contains_key(&h1));
        assert!(grads.params.contains_key(&h2));
        assert!(!grads.params.contains_key(&trunk), "trunk frozen");
    }

    #[test]
    fn maxpool_flatten_pipeline() {
        let mut rng = seeded_rng(37);
        let mut g = ModelGraph::new();
        let inp = g.add_input("img", [1, 4, 4]);
        let mp = g
            .add_layer(
                "pool",
                LayerKind::MaxPool2d { k: 2, stride: 2 },
                &[inp],
                true,
                ParamInit::Given(vec![]),
            )
            .unwrap();
        let fl = g
            .add_layer("flat", LayerKind::Flatten, &[mp], true, ParamInit::Given(vec![]))
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
                &[fl],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, randn([2, 1, 4, 4], 1.0, &mut rng));
        grad_check(&mut g, &inputs, &[0, 1], 5e-2);
    }

    /// Freezing everything below a conv layer makes its input gradient dead
    /// (`needs_input_grads[0]` false): the layer must then skip `dX` and
    /// still return the parameter gradients of the full backward, bit for bit.
    #[test]
    fn conv_layers_keep_param_grads_without_input_grads() {
        let kinds = [
            LayerKind::Conv2d { in_ch: 4, out_ch: 6, k: 3, stride: 2, pad: 1, act: Activation::Relu },
            LayerKind::ResidualBlock { in_ch: 4, out_ch: 8, stride: 2 },
            LayerKind::ResidualBlock { in_ch: 4, out_ch: 4, stride: 1 },
        ];
        for kind in kinds {
            let mut rng = seeded_rng(41);
            let mut g = ModelGraph::new();
            let inp = g.add_input("img", [2, 6, 6]);
            let below = g
                .add_layer(
                    "below",
                    LayerKind::Conv2d { in_ch: 2, out_ch: 4, k: 3, stride: 1, pad: 1, act: Activation::Relu },
                    &[inp],
                    false,
                    ParamInit::Seeded(&mut rng),
                )
                .unwrap();
            let layer = g.add_layer("layer", kind.clone(), &[below], false, ParamInit::Seeded(&mut rng)).unwrap();
            g.add_output(layer).unwrap();
            let mut inputs = BatchInputs::new();
            inputs.insert(inp, randn([3, 2, 6, 6], 1.0, &mut rng));
            let param_grads = |g: &ModelGraph| {
                let fwd = forward(g, &inputs, true).unwrap();
                let dout = randn(fwd.output(layer).shape().clone(), 1.0, &mut seeded_rng(43));
                let grads = backward(g, &fwd, HashMap::from([(layer, dout)])).unwrap();
                assert_eq!(grads.params.contains_key(&below), g.node(below).trainable());
                grads.params[&layer].iter().map(|t| nautilus_util::prop::f32_bits(t.data())).collect::<Vec<_>>()
            };
            let with_dx = param_grads(&g);
            g.node_mut(below).frozen = true;
            assert_eq!(param_grads(&g), with_dx, "{kind:?}");
        }
    }

    /// Extracts head `h` of record `b` from `[B, S, D]` as `[S, dh]`.
    fn slice_head(x: &Tensor, b: usize, s: usize, d: usize, h: usize, dh: usize) -> Tensor {
        let mut out = vec![0.0f32; s * dh];
        let base = b * s * d + h * dh;
        for si in 0..s {
            out[si * dh..(si + 1) * dh]
                .copy_from_slice(&x.data()[base + si * d..base + si * d + dh]);
        }
        Tensor::from_vec([s, dh], out).unwrap()
    }

    /// Adds `[S, dh]` into head `h` of record `b` of `[B, S, D]`.
    fn add_head(dst: &mut Tensor, src: &Tensor, b: usize, s: usize, d: usize, h: usize, dh: usize) {
        let base = b * s * d + h * dh;
        for si in 0..s {
            let drow = &mut dst.data_mut()[base + si * d..base + si * d + dh];
            for (o, &v) in drow.iter_mut().zip(&src.data()[si * dh..(si + 1) * dh]) {
                *o += v;
            }
        }
    }

    /// The transformer block as `transformer_forward`/`transformer_backward`
    /// composed it before the in-place attention kernels and the cached
    /// tanh: per-head copies through `matmul_tb → scale → softmax_last →
    /// matmul`, `gelu_backward` recomputing its tanh. Returns the block
    /// output, the input gradient and the 16 parameter gradients.
    fn reference_block(
        x: &Tensor,
        p: &[Tensor],
        dim: usize,
        heads: usize,
        dout: &Tensor,
    ) -> (Tensor, Tensor, Vec<Tensor>) {
        use nautilus_tensor::ops::{scale, softmax_last, softmax_last_backward};
        let (b, s) = (x.shape().dim(0), x.shape().dim(1));
        let dh = dim / heads;
        let scale_f = 1.0 / (dh as f32).sqrt();
        let proj = |x: &Tensor, w: &Tensor, bias: &Tensor| {
            let mut y = matmul(x, w).unwrap();
            add_assign(&mut y, bias).unwrap();
            y
        };
        let (q, k, v) = (proj(x, &p[0], &p[1]), proj(x, &p[2], &p[3]), proj(x, &p[4], &p[5]));
        let mut ctx = Tensor::zeros(x.shape().clone());
        let mut attn_mats = Vec::new();
        for bi in 0..b {
            for h in 0..heads {
                let qh = slice_head(&q, bi, s, dim, h, dh);
                let kh = slice_head(&k, bi, s, dim, h, dh);
                let vh = slice_head(&v, bi, s, dim, h, dh);
                let attn = softmax_last(&scale(&matmul_tb(&qh, &kh).unwrap(), scale_f));
                add_head(&mut ctx, &matmul(&attn, &vh).unwrap(), bi, s, dim, h, dh);
                attn_mats.push(attn);
            }
        }
        let res1 = add(x, &proj(&ctx, &p[6], &p[7])).unwrap();
        let (h1, ln1_xhat, ln1_inv_std) = layer_norm(&res1, &p[8], &p[9], 1e-5).unwrap();
        let ff_pre = proj(&h1, &p[10], &p[11]);
        let ff_act = gelu(&ff_pre);
        let res2 = add(&h1, &proj(&ff_act, &p[12], &p[13])).unwrap();
        let (out, ln2_xhat, ln2_inv_std) = layer_norm(&res2, &p[14], &p[15], 1e-5).unwrap();

        let (dres2, dg2, db2ln) = layer_norm_backward(&ln2_xhat, &ln2_inv_std, &p[14], dout).unwrap();
        let dw2 = matmul_ta(&ff_act, &dres2).unwrap();
        let db2 = sum_rows(&dres2).unwrap();
        let dff_pre = gelu_backward(&ff_pre, &matmul_tb(&dres2, &p[12]).unwrap()).unwrap();
        let dw1 = matmul_ta(&h1, &dff_pre).unwrap();
        let db1 = sum_rows(&dff_pre).unwrap();
        let mut dh1 = dres2.clone();
        add_assign(&mut dh1, &matmul_tb(&dff_pre, &p[10]).unwrap()).unwrap();
        let (dres1, dg1, db1ln) = layer_norm_backward(&ln1_xhat, &ln1_inv_std, &p[8], &dh1).unwrap();
        let dwo = matmul_ta(&ctx, &dres1).unwrap();
        let dbo = sum_rows(&dres1).unwrap();
        let dctx = matmul_tb(&dres1, &p[6]).unwrap();
        let mut dq = Tensor::zeros(q.shape().clone());
        let mut dk = Tensor::zeros(q.shape().clone());
        let mut dv = Tensor::zeros(q.shape().clone());
        for bi in 0..b {
            for h in 0..heads {
                let attn = &attn_mats[bi * heads + h];
                let dctx_h = slice_head(&dctx, bi, s, dim, h, dh);
                let qh = slice_head(&q, bi, s, dim, h, dh);
                let kh = slice_head(&k, bi, s, dim, h, dh);
                let vh = slice_head(&v, bi, s, dim, h, dh);
                let dattn = matmul_tb(&dctx_h, &vh).unwrap();
                let dvh = matmul_ta(attn, &dctx_h).unwrap();
                let dscores = softmax_last_backward(attn, &dattn).unwrap();
                let dqh = scale(&matmul(&dscores, &kh).unwrap(), scale_f);
                let dkh = scale(&matmul_ta(&dscores, &qh).unwrap(), scale_f);
                add_head(&mut dq, &dqh, bi, s, dim, h, dh);
                add_head(&mut dk, &dkh, bi, s, dim, h, dh);
                add_head(&mut dv, &dvh, bi, s, dim, h, dh);
            }
        }
        let mut dx = dres1.clone();
        add_assign(&mut dx, &matmul_tb(&dq, &p[0]).unwrap()).unwrap();
        add_assign(&mut dx, &matmul_tb(&dk, &p[2]).unwrap()).unwrap();
        add_assign(&mut dx, &matmul_tb(&dv, &p[4]).unwrap()).unwrap();
        let grads = vec![
            matmul_ta(x, &dq).unwrap(),
            sum_rows(&dq).unwrap(),
            matmul_ta(x, &dk).unwrap(),
            sum_rows(&dk).unwrap(),
            matmul_ta(x, &dv).unwrap(),
            sum_rows(&dv).unwrap(),
            dwo,
            dbo,
            dg1,
            db1ln,
            dw1,
            db1,
            dw2,
            db2,
            dg2,
            db2ln,
        ];
        (out, dx, grads)
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        nautilus_util::prop::f32_bits(t.data())
    }

    /// `forward(training)` → `backward` of a block against the composition
    /// it replaced: output, input gradient and every parameter gradient
    /// bit for bit, over random shapes (the transformer grad-check graph's
    /// among them) with heads ∈ {1, 2, 4}, salted operands, at pool widths
    /// 1/2/8; the inference forward must agree with the training one.
    #[test]
    fn transformer_block_bitwise_vs_reference() {
        use nautilus_util::prop::{bools, prop_check, u64s, usizes};
        use nautilus_util::prop_assert_eq;
        let check = |&(four_heads, dim, b, s, seed): &(bool, usize, usize, usize, u64)| {
            let ff = 1 + (seed % 12) as usize;
            let heads = if four_heads { 4 } else { 2 - dim % 2 };
            let dim = if four_heads { 4 * dim } else { dim };
            let mut salt = seed;
            let mut mat = |shape: &[usize]| {
                salt += 1;
                let data = nautilus_util::prop::salted_f32s(salt, shape.iter().product());
                Tensor::from_vec(shape.to_vec(), data).unwrap()
            };
            let mut p = Vec::new();
            for _ in 0..4 {
                p.extend([mat(&[dim, dim]), mat(&[dim])]);
            }
            p.extend([mat(&[dim]), mat(&[dim])]);
            p.extend([mat(&[dim, ff]), mat(&[ff]), mat(&[ff, dim]), mat(&[dim])]);
            p.extend([mat(&[dim]), mat(&[dim])]);
            let (x, dout) = (mat(&[b, s, dim]), mat(&[b, s, dim]));
            let (want_out, want_dx, want_grads) = reference_block(&x, &p, dim, heads, &dout);
            for limit in [1usize, 2, 8] {
                let (out, cache) = pool::with_parallelism_limit(limit, || {
                    transformer_forward(&x, &p, dim, heads, true).unwrap()
                });
                prop_assert_eq!(bits(&out), bits(&want_out));
                let (inference, _) = transformer_forward(&x, &p, dim, heads, false).unwrap();
                prop_assert_eq!(bits(&inference), bits(&want_out));
                let Cache::Transformer(tc) = cache else { return Err("no cache kept".into()) };
                let back = pool::with_parallelism_limit(limit, || {
                    transformer_backward(&tc, &p, dim, heads, &dout, true, true).unwrap()
                });
                prop_assert_eq!(bits(back.input_grads[0].as_ref().unwrap()), bits(&want_dx));
                prop_assert_eq!(back.param_grads.len(), want_grads.len());
                for (g, w) in back.param_grads.iter().zip(&want_grads) {
                    prop_assert_eq!(bits(g), bits(w));
                }
            }
            Ok(())
        };
        check(&(false, 8, 2, 5, 11)).unwrap();
        let gen = (bools(), usizes(1..9), usizes(1..4), usizes(1..8), u64s(0..u64::MAX));
        prop_check(0xB10C, 24, &gen, check);
    }

    /// Ids reach the embedding as floats, possibly straight from a request
    /// body: anything but an exact integer inside the vocabulary is a typed
    /// error, never a truncated or saturated lookup.
    #[test]
    fn embedding_rejects_ids_that_are_not_vocab_indices() {
        let mut rng = seeded_rng(3);
        let mut g = ModelGraph::new();
        let inp = g.add_input("tokens", [3]);
        let emb = g
            .add_layer(
                "emb",
                LayerKind::Embedding { vocab: 11, dim: 4, max_len: 4 },
                &[inp],
                true,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(emb).unwrap();
        let run = |ids: [f32; 3]| {
            let mut inputs = BatchInputs::new();
            inputs.insert(inp, Tensor::from_vec([1, 3], ids.to_vec()).unwrap());
            forward(&g, &inputs, false)
        };
        assert!(run([0.0, 10.0, -0.0]).is_ok());
        for bad in [-5.0, 2.7, 11.0, 1e30, f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = run([1.0, bad, 3.0]).expect_err("id must be rejected");
            assert!(err.message.contains("token id"), "{bad}: {err}");
        }
    }

    /// Batch invariance per `LayerKind`, forward **and** backward: the
    /// first k ∈ {1, 4} records of a batch of n ∈ {8, 24} carry the bits of
    /// a batch of k — outputs and input gradients — through plain
    /// `run_forward` / `run_backward`, with no scope around either. The dense,
    /// adapter and transformer shapes give one record 4 rows over a shared
    /// dimension of 64, so at a batch of 1 the forward products are row
    /// vectors (fewer than `MR` rows inside one `KC` block: the naive loop
    /// on the safe kernel) and at batches of 4 and up they run the blocked
    /// engine; the conv shapes are the
    /// MiniResNet projections whose whole-batch work used to pick direct
    /// loops at 4 images and the lowering at 24.
    #[test]
    fn layer_batch_prefix_bitwise_vs_reference() {
        use nautilus_tensor::ops::gemm::{KC, MR};
        use nautilus_util::prop::salted_f32s;
        assert!(4 < MR && 4 * 4 >= MR && 64 <= KC, "sizing");

        let check = |kind: LayerKind, records: &[&[usize]]| {
            let ctx = format!("{kind:?}");
            let ids = matches!(kind, LayerKind::Embedding { .. });
            let mut rng = seeded_rng(0xD1);
            let mut g = ModelGraph::new();
            let ins: Vec<NodeId> =
                records.iter().enumerate().map(|(i, r)| g.add_input(format!("in{i}"), r.to_vec())).collect();
            let node = g.add_layer("layer", kind, &ins, false, ParamInit::Seeded(&mut rng)).unwrap();
            for n in [8usize, 24] {
                let full: Vec<Tensor> = records
                    .iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let shape: Vec<usize> = std::iter::once(n).chain(r.iter().copied()).collect();
                        let len = shape.iter().product();
                        let data = if ids {
                            (0..len).map(|j| ((j * 7 + n) % 11) as f32).collect()
                        } else {
                            salted_f32s(0xD2 + i as u64, len)
                        };
                        Tensor::from_vec(shape, data).unwrap()
                    })
                    .collect();
                let run = |k: usize, dout: Option<&Tensor>| {
                    let xs: Vec<Tensor> = full.iter().map(|t| slice_rows(t, 0, k)).collect();
                    let parents: Vec<&Tensor> = xs.iter().collect();
                    let layer = g.node(node);
                    let (out, cache) =
                        run_forward(layer, &layer.params, &parents, &BatchInputs::new(), node, true).unwrap();
                    let dout = match dout {
                        Some(d) => slice_rows(d, 0, k),
                        None => Tensor::from_vec(out.shape().clone(), salted_f32s(0xD3, out.len())).unwrap(),
                    };
                    let back =
                        run_backward(layer, &cache, &parents, &out, &dout, &vec![true; xs.len()]).unwrap();
                    (out, dout, back.input_grads)
                };
                let (out_n, dout_n, dx_n) = run(n, None);
                for k in [1usize, 4] {
                    let (out_k, _, dx_k) = run(k, Some(&dout_n));
                    assert_eq!(bits(&out_k), bits(&slice_rows(&out_n, 0, k)), "{ctx}: forward, {k} of {n}");
                    for (gk, gn) in dx_k.iter().zip(&dx_n) {
                        assert_eq!(gk.is_some(), gn.is_some(), "{ctx}");
                        if let (Some(gk), Some(gn)) = (gk, gn) {
                            assert_eq!(bits(gk), bits(&slice_rows(gn, 0, k)), "{ctx}: dX, {k} of {n}");
                        }
                    }
                }
            }
        };

        let act = Activation::Gelu;
        check(LayerKind::Embedding { vocab: 11, dim: 8, max_len: 4 }, &[&[4]]);
        check(LayerKind::TransformerBlock { dim: 64, heads: 4, ff_dim: 64 }, &[&[4, 64]]);
        check(LayerKind::Dense { in_dim: 64, out_dim: 64, act }, &[&[4, 64]]);
        check(LayerKind::Adapter { dim: 64, bottleneck: 64 }, &[&[4, 64]]);
        check(LayerKind::Add, &[&[4, 8], &[4, 8]]);
        check(LayerKind::ConcatLast, &[&[4, 8], &[4, 3]]);
        check(LayerKind::MeanPoolSeq, &[&[4, 8]]);
        check(LayerKind::Conv2d { in_ch: 8, out_ch: 16, k: 1, stride: 2, pad: 0, act }, &[&[8, 16, 16]]);
        check(LayerKind::Conv2d { in_ch: 24, out_ch: 32, k: 3, stride: 2, pad: 1, act }, &[&[24, 4, 4]]);
        check(LayerKind::ResidualBlock { in_ch: 16, out_ch: 24, stride: 2 }, &[&[16, 8, 8]]);
        check(LayerKind::MaxPool2d { k: 2, stride: 2 }, &[&[3, 4, 4]]);
        check(LayerKind::GlobalAvgPool, &[&[3, 4, 4]]);
        check(LayerKind::Flatten, &[&[3, 4, 4]]);
        check(LayerKind::SliceSeq { index: 2 }, &[&[4, 8]]);
        check(LayerKind::ZerosLike { shape: vec![5] }, &[&[4, 8]]);
    }

    /// `forward_batch` over a stacked batch must reproduce per-record
    /// `forward` bit for bit — including when each record alone is a row
    /// vector (one row, shared dimension inside one `KC` block) and so runs
    /// the naive loop on the safe kernel, while the batch runs the engine.
    #[test]
    fn forward_batch_bit_identical_to_per_record_forward() {
        use nautilus_tensor::ops::gemm::{KC, MR};
        let mut rng = seeded_rng(42);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [64]);
        let h = g
            .add_layer(
                "hidden",
                LayerKind::Dense { in_dim: 64, out_dim: 64, act: Activation::Gelu },
                &[inp],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let o = g
            .add_layer(
                "logits",
                LayerKind::Dense { in_dim: 64, out_dim: 48, act: Activation::None },
                &[h],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(o).unwrap();

        let batch = 64usize;
        assert!(batch >= MR && 64 <= KC, "a record is a row vector, the batch is not");

        let records: Vec<Tensor> = (0..batch).map(|_| randn([1, 64], 1.0, &mut rng)).collect();
        let mut stacked = Vec::new();
        for r in &records {
            stacked.extend_from_slice(r.data());
        }
        let stacked = Tensor::from_vec([batch, 64], stacked).unwrap();

        let mut bi = BatchInputs::new();
        bi.insert(inp, stacked);
        let batched = forward_batch(&g, &bi, batch).unwrap();
        let out = batched.output(o);
        let per_record = out.len() / batch;

        for (i, r) in records.iter().enumerate() {
            let mut solo_in = BatchInputs::new();
            solo_in.insert(inp, r.clone());
            let solo = forward(&g, &solo_in, false).unwrap();
            assert_eq!(
                &out.data()[i * per_record..(i + 1) * per_record],
                solo.output(o).data(),
                "record {i} diverged between batched and solo forward"
            );
        }
    }

    /// A shared-trunk batch over several variants of one base must be
    /// bit-identical to running each variant's records alone through its
    /// full graph: the trunk runs once over the union batch, each suffix
    /// over its group's rows.
    #[test]
    fn shared_trunk_forward_bit_identical_to_solo_variants() {
        use crate::delta::{extract_delta, strip_trainable};
        let dim = 16usize;
        let build = |tenant_seed: u64| {
            let mut frozen_rng = seeded_rng(7);
            let mut rng = seeded_rng(tenant_seed);
            let mut g = ModelGraph::new();
            let inp = g.add_input("in", [dim]);
            let trunk = g
                .add_layer(
                    "trunk",
                    LayerKind::Dense { in_dim: dim, out_dim: dim, act: Activation::Gelu },
                    &[inp],
                    true,
                    ParamInit::Seeded(&mut frozen_rng),
                )
                .unwrap();
            let ad = g
                .add_layer(
                    "adapter",
                    LayerKind::Adapter { dim, bottleneck: 4 },
                    &[trunk],
                    false,
                    ParamInit::Seeded(&mut rng),
                )
                .unwrap();
            // Frozen layer *above* the adapter: tenant-dependent activations
            // through tenant-independent weights — must run in the suffix.
            let post = g
                .add_layer(
                    "post",
                    LayerKind::Dense { in_dim: dim, out_dim: dim, act: Activation::Relu },
                    &[ad],
                    true,
                    ParamInit::Seeded(&mut frozen_rng),
                )
                .unwrap();
            let o = g
                .add_layer(
                    "head",
                    LayerKind::Dense { in_dim: dim, out_dim: 3, act: Activation::None },
                    &[post],
                    false,
                    ParamInit::Seeded(&mut rng),
                )
                .unwrap();
            g.add_output(o).unwrap();
            (g, inp, o)
        };

        let variants: Vec<_> = (0..3u64).map(|s| build(100 + s)).collect();
        let (base, inp, out) = {
            let (g, i, o) = &variants[0];
            (strip_trainable(g), *i, *o)
        };
        let overrides: Vec<ParamOverrides> = variants
            .iter()
            .map(|(g, _, _)| {
                extract_delta(g)
                    .unwrap()
                    .entries
                    .into_iter()
                    .map(|e| (NodeId(e.node), std::sync::Arc::new(e.params)))
                    .collect()
            })
            .collect();

        let mut rng = seeded_rng(55);
        let rows = [2usize, 1, 3];
        let records: Vec<Vec<Tensor>> = rows
            .iter()
            .map(|&k| (0..k).map(|_| randn([1, dim], 1.0, &mut rng)).collect())
            .collect();
        let mut stacked = Vec::new();
        for group in &records {
            for r in group {
                stacked.extend_from_slice(r.data());
            }
        }
        let stacked = Tensor::from_vec([rows.iter().sum::<usize>(), dim], stacked).unwrap();

        let groups: Vec<TrunkGroup<'_>> = rows
            .iter()
            .zip(&overrides)
            .map(|(&rows, ov)| TrunkGroup { rows, overrides: Some(ov), quant: None })
            .collect();
        let outs = forward_batch_shared_trunk(&base, inp, out, stacked, &groups).unwrap();

        for (gi, ((g, _, _), group)) in variants.iter().zip(&records).enumerate() {
            let per = outs[gi].len() / rows[gi];
            for (ri, r) in group.iter().enumerate() {
                let mut solo_in = BatchInputs::new();
                solo_in.insert(inp, r.clone());
                let solo = forward_batch(g, &solo_in, 1).unwrap();
                assert_eq!(
                    &outs[gi].data()[ri * per..(ri + 1) * per],
                    solo.output(out).data(),
                    "variant {gi} record {ri} diverged from solo serving"
                );
            }
        }
    }

    /// frozen `trunk` (6→6) → trainable `head` (6→2), and its stripped base.
    fn trunk_head(seed: u64) -> (ModelGraph, ModelGraph, NodeId, NodeId, NodeId) {
        let mut rng = seeded_rng(seed);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [6]);
        let dense = |out_dim| LayerKind::Dense { in_dim: 6, out_dim, act: Activation::None };
        let trunk = g.add_layer("trunk", dense(6), &[inp], true, ParamInit::Seeded(&mut rng)).unwrap();
        let head = g.add_layer("head", dense(2), &[trunk], false, ParamInit::Seeded(&mut rng)).unwrap();
        g.add_output(head).unwrap();
        let base = crate::delta::strip_trainable(&g);
        (g, base, inp, trunk, head)
    }

    /// A stripped base run without the overrides it needs is a typed error
    /// naming the node, not an index past the end of its empty params.
    #[test]
    fn forward_on_stripped_base_without_overrides_is_an_error() {
        let (_, base, inp, _, _) = trunk_head(61);
        let mut inputs = BatchInputs::new();
        inputs.insert(inp, Tensor::zeros([1, 6]));
        let err = forward(&base, &inputs, false).expect_err("head has no params");
        assert_eq!(err.node, "head");
    }

    /// One trunk output serves every group, so a group that overrides a
    /// trunk node cannot be honoured: the call fails rather than answering
    /// that group with the base's trunk.
    #[test]
    fn group_overriding_a_trunk_node_is_an_error() {
        let (g, base, inp, trunk, head) = trunk_head(62);
        let mut rng = seeded_rng(63);
        let plain: ParamOverrides = HashMap::from([(head, Arc::new(g.node(head).params.clone()))]);
        let mut retrunked = plain.clone();
        retrunked.insert(trunk, Arc::new(vec![randn([6, 6], 1.0, &mut rng), randn([6], 1.0, &mut rng)]));
        let groups = [
            TrunkGroup { rows: 1, overrides: Some(&plain), quant: None },
            TrunkGroup { rows: 1, overrides: Some(&retrunked), quant: None },
        ];
        let err = forward_batch_shared_trunk(&base, inp, head, Tensor::zeros([2, 6]), &groups)
            .expect_err("trunk resolves differently per group");
        assert_eq!(err.node, "trunk");
    }

    /// The transformer fans per-record attention tasks out over the shared
    /// pool, so `forward_batch` bit-identity must hold whichever thread runs
    /// a record. Two shapes straddle the boundaries the GEMM routing has
    /// left. (1) `seq` 4 < `MR`: alone, a record's projections are row
    /// vectors (naive loop on the safe kernel) except the FF down-projection,
    /// whose shared dim `ff` exceeds one `KC` block and so runs the engine;
    /// stacked, every product runs the engine. (2) `seq` > `KC`: the
    /// attention context product's shared dim spans two `kc` blocks.
    #[test]
    fn forward_batch_transformer_straddles_mr_and_kc() {
        use nautilus_tensor::ops::gemm::{KC, MR};
        let (dim, heads, batch) = (8usize, 1usize, 8usize);
        for (seq, ff) in [(4usize, KC + 8), (KC + 32, 16usize)] {
            assert!((seq < MR && ff > KC && batch * seq >= MR) || seq > KC, "sizing");
            let mut rng = seeded_rng(23);
            let mut g = ModelGraph::new();
            let inp = g.add_input("seq", [seq, dim]);
            let t = g
                .add_layer(
                    "block",
                    LayerKind::TransformerBlock { dim, heads, ff_dim: ff },
                    &[inp],
                    false,
                    ParamInit::Seeded(&mut rng),
                )
                .unwrap();
            g.add_output(t).unwrap();

            let records: Vec<Tensor> =
                (0..batch).map(|_| randn([1, seq, dim], 1.0, &mut rng)).collect();
            let mut stacked = Vec::new();
            for r in &records {
                stacked.extend_from_slice(r.data());
            }
            let stacked = Tensor::from_vec([batch, seq, dim], stacked).unwrap();

            let mut bi = BatchInputs::new();
            bi.insert(inp, stacked);
            let batched = forward_batch(&g, &bi, batch).unwrap();
            let out = batched.output(t);
            let per_record = out.len() / batch;

            for (i, r) in records.iter().enumerate() {
                let mut solo_in = BatchInputs::new();
                solo_in.insert(inp, r.clone());
                let solo = forward(&g, &solo_in, false).unwrap();
                assert_eq!(
                    &out.data()[i * per_record..(i + 1) * per_record],
                    solo.output(t).data(),
                    "seq {seq}: record {i} diverged between batched and solo transformer forward"
                );
            }
        }
    }
}
