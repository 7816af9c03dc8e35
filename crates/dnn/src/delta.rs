//! Delta extraction and application against a frozen base.
//!
//! Transfer-learning variants share their frozen trunk bit-for-bit; only
//! the trainable layers (Houlsby adapters, task heads) differ per variant.
//! This module splits a trained graph into a *base* (the frozen layers,
//! shared once across all tenants) and a *delta* (the trainable parameter
//! tensors, stored per tenant), with content hashes over tensors so stores
//! can deduplicate structurally identical deltas (NeurStore-style).
//!
//! The pairing is keyed by [`base_signature`]: a hash over the graph's
//! structure, layer configs, frozen flags, frozen parameter *values*, and
//! trainable parameter *shapes* — everything a delta relies on, and nothing
//! a delta provides. Two variants with equal base signatures can share one
//! resident copy of the base weights; a delta applies only to a base with
//! the signature it was extracted against.

use crate::graph::{hash_params, GraphError, ModelGraph, NodeId};
use nautilus_tensor::{ser, Tensor};
use nautilus_util::bytesio::{PutBytes, TakeBytes};
use nautilus_util::{json, json_struct};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Delta (de)serialization and application errors.
#[derive(Debug)]
pub enum DeltaError {
    /// The delta was extracted against a different base.
    BaseMismatch {
        /// Signature the delta expects.
        expected: u64,
        /// Signature of the base it was applied to.
        actual: u64,
    },
    /// An entry references a node that is missing or not trainable, or its
    /// tensors do not match the declared shapes.
    BadEntry(String),
    /// Serialized payload is malformed.
    BadPayload(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::BaseMismatch { expected, actual } => {
                write!(f, "delta base signature {expected:#x} does not match base {actual:#x}")
            }
            DeltaError::BadEntry(m) => write!(f, "bad delta entry: {m}"),
            DeltaError::BadPayload(m) => write!(f, "bad delta payload: {m}"),
            DeltaError::Io(e) => write!(f, "delta io: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<std::io::Error> for DeltaError {
    fn from(e: std::io::Error) -> Self {
        DeltaError::Io(e)
    }
}

impl From<GraphError> for DeltaError {
    fn from(e: GraphError) -> Self {
        DeltaError::BadEntry(e.to_string())
    }
}

/// Content hash of one tensor (shape + exact f32 bit patterns). Equal
/// hashes are the dedup candidate key; stores must still verify equality
/// on hash collisions before sharing storage.
pub fn tensor_hash(t: &Tensor) -> u64 {
    let mut h = DefaultHasher::new();
    t.shape().0.hash(&mut h);
    for &x in t.data() {
        x.to_bits().hash(&mut h);
    }
    h.finish()
}

/// Content hash of an ordered tensor list (one delta entry's parameters).
pub fn tensors_hash(ts: &[Tensor]) -> u64 {
    let mut h = DefaultHasher::new();
    ts.len().hash(&mut h);
    for t in ts {
        tensor_hash(t).hash(&mut h);
    }
    h.finish()
}

/// Hash of everything a delta relies on: structure, layer configs, frozen
/// flags and frozen parameter values, trainable parameter shapes, and the
/// output set. Trainable parameter *values* are deliberately excluded —
/// they are exactly what the delta provides.
pub fn base_signature(g: &ModelGraph) -> u64 {
    let mut h = DefaultHasher::new();
    g.len().hash(&mut h);
    for n in g.nodes() {
        n.name.hash(&mut h);
        n.kind.hash(&mut h);
        n.frozen.hash(&mut h);
        for i in &n.inputs {
            i.index().hash(&mut h);
        }
        for s in &n.param_shapes {
            s.0.hash(&mut h);
        }
        if n.trainable() {
            // Shapes only: the values live in the delta.
            0u8.hash(&mut h);
        } else {
            n.param_sig.hash(&mut h);
        }
    }
    for o in g.outputs() {
        o.index().hash(&mut h);
    }
    h.finish()
}

/// One trainable node's parameter tensors.
#[derive(Debug, Clone)]
pub struct DeltaEntry {
    /// Node index in the base graph.
    pub node: usize,
    /// Parameter tensors, in the node's parameter order.
    pub params: Vec<Tensor>,
}

impl DeltaEntry {
    /// Content hash of this entry's tensors.
    pub fn content_hash(&self) -> u64 {
        tensors_hash(&self.params)
    }

    /// Total parameter bytes in this entry.
    pub fn bytes(&self) -> usize {
        self.params.iter().map(|t| t.shape().num_bytes()).sum()
    }
}

/// The trainable parameters of a variant, relative to a frozen base.
#[derive(Debug, Clone)]
pub struct GraphDelta {
    /// [`base_signature`] of the graph this delta was extracted from.
    pub base_sig: u64,
    /// Entries in node-index order, one per trainable node.
    pub entries: Vec<DeltaEntry>,
}

impl GraphDelta {
    /// Total delta parameter bytes.
    pub fn bytes(&self) -> usize {
        self.entries.iter().map(DeltaEntry::bytes).sum()
    }
}

/// Extracts the trainable parameters of `g` as a delta against its base.
///
/// Every trainable node must have materialized parameters.
pub fn extract_delta(g: &ModelGraph) -> Result<GraphDelta, DeltaError> {
    let mut entries = Vec::new();
    for (i, n) in g.nodes().iter().enumerate() {
        if !n.trainable() {
            continue;
        }
        if n.params.len() != n.param_shapes.len() {
            return Err(DeltaError::BadEntry(format!(
                "trainable node '{}' has no materialized parameters",
                n.name
            )));
        }
        entries.push(DeltaEntry { node: i, params: n.params.clone() });
    }
    Ok(GraphDelta { base_sig: base_signature(g), entries })
}

/// Clones `g` with trainable parameter tensors dropped (shapes stay).
///
/// The result is the shared base: all frozen weights present, trainable
/// slots empty. Its [`base_signature`] equals the original's, so any delta
/// extracted from a variant of `g` applies to it.
pub fn strip_trainable(g: &ModelGraph) -> ModelGraph {
    let mut base = g.clone();
    for id in g.ids() {
        if g.node(id).trainable() {
            let node = base.node_mut(id);
            node.params = Vec::new();
            // Neutralize the value signature: all stripped bases of one
            // architecture are interchangeable regardless of which variant
            // they were stripped from.
            node.param_sig = 0;
        }
    }
    base
}

/// Applies `delta` to (a clone of) `base`, producing the full variant
/// graph. `base` may be a stripped base or any variant with the same
/// [`base_signature`].
pub fn apply_delta(base: &ModelGraph, delta: &GraphDelta) -> Result<ModelGraph, DeltaError> {
    let sig = base_signature(base);
    if sig != delta.base_sig {
        return Err(DeltaError::BaseMismatch { expected: delta.base_sig, actual: sig });
    }
    check_delta(base, delta)?;
    let mut g = base.clone();
    for e in &delta.entries {
        g.set_node_params(NodeId(e.node), e.params.clone())?;
    }
    Ok(g)
}

/// Checks that `delta`'s entries fit `base` (signatures aside): each names
/// an in-range trainable node with params matching its `param_shapes`, and
/// together they cover every trainable node exactly once.
pub fn check_delta(base: &ModelGraph, delta: &GraphDelta) -> Result<(), DeltaError> {
    let mut covered = vec![false; base.len()];
    for e in &delta.entries {
        let node = base
            .nodes()
            .get(e.node)
            .ok_or_else(|| DeltaError::BadEntry(format!("entry references missing node #{}", e.node)))?;
        if !node.trainable() {
            return Err(DeltaError::BadEntry(format!("entry targets non-trainable node '{}'", node.name)));
        }
        if std::mem::replace(&mut covered[e.node], true) {
            return Err(DeltaError::BadEntry(format!("two entries for node '{}'", node.name)));
        }
        if e.params.len() != node.param_shapes.len()
            || e.params.iter().zip(&node.param_shapes).any(|(p, s)| p.shape() != s)
        {
            return Err(DeltaError::BadEntry(format!(
                "entry for '{}' does not match the layer's parameter shapes",
                node.name
            )));
        }
    }
    let covered = covered.iter().filter(|&&c| c).count();
    let trainable = base.nodes().iter().filter(|n| n.trainable()).count();
    if covered != trainable {
        return Err(DeltaError::BadEntry(format!(
            "delta covers {covered} of {trainable} trainable nodes"
        )));
    }
    Ok(())
}

struct DeltaHeader {
    version: u32,
    base_sig: u64,
    nodes: Vec<usize>,
    counts: Vec<usize>,
    hashes: Vec<u64>,
}

json_struct!(DeltaHeader { version, base_sig, nodes, counts, hashes });

/// Serializes a delta: JSON header (node indices + per-tensor content
/// hashes) followed by the tensors in `nautilus-tensor` binary format.
pub fn save_delta_to_bytes(delta: &GraphDelta) -> Vec<u8> {
    let mut nodes = Vec::with_capacity(delta.entries.len());
    let mut counts = Vec::with_capacity(delta.entries.len());
    let mut hashes = Vec::new();
    for e in &delta.entries {
        nodes.push(e.node);
        counts.push(e.params.len());
        for t in &e.params {
            hashes.push(tensor_hash(t));
        }
    }
    let header = DeltaHeader { version: 1, base_sig: delta.base_sig, nodes, counts, hashes };
    let header_json = json::to_vec(&header);
    let mut buf = Vec::with_capacity(header_json.len() + 16 + delta.bytes());
    buf.put_u64_le(header_json.len() as u64);
    buf.put_slice(&header_json);
    for e in &delta.entries {
        for t in &e.params {
            ser::encode_into(t, &mut buf);
        }
    }
    buf
}

/// Reconstructs a delta from [`save_delta_to_bytes`] output, verifying the
/// recorded per-tensor content hashes.
pub fn load_delta_from_bytes(bytes: &[u8]) -> Result<GraphDelta, DeltaError> {
    let mut cur = bytes;
    let hlen = cur
        .take_u64_le()
        .ok_or_else(|| DeltaError::BadPayload("truncated length prefix".into()))?
        as usize;
    let header_bytes = cur
        .take_slice(hlen)
        .ok_or_else(|| DeltaError::BadPayload("truncated header".into()))?;
    let header: DeltaHeader =
        json::from_slice(header_bytes).map_err(|e| DeltaError::BadPayload(e.to_string()))?;
    if header.version != 1 {
        return Err(DeltaError::BadPayload(format!("unsupported version {}", header.version)));
    }
    if header.nodes.len() != header.counts.len() {
        return Err(DeltaError::BadPayload("nodes/counts length mismatch".into()));
    }
    if header.hashes.len() != header.counts.iter().sum::<usize>() {
        return Err(DeltaError::BadPayload("hash count mismatch".into()));
    }
    let mut entries = Vec::with_capacity(header.nodes.len());
    let mut hi = 0usize;
    for (&node, &count) in header.nodes.iter().zip(&header.counts) {
        let mut params = Vec::with_capacity(count);
        for _ in 0..count {
            let t = ser::decode_from(&mut cur).map_err(|e| DeltaError::BadPayload(e.to_string()))?;
            if tensor_hash(&t) != header.hashes[hi] {
                return Err(DeltaError::BadPayload(format!(
                    "content hash mismatch for node #{node} tensor #{hi}"
                )));
            }
            hi += 1;
            params.push(t);
        }
        entries.push(DeltaEntry { node, params });
    }
    Ok(GraphDelta { base_sig: header.base_sig, entries })
}

/// Writes a delta checkpoint file; returns the bytes written.
pub fn save_delta(delta: &GraphDelta, path: &std::path::Path) -> Result<usize, DeltaError> {
    let bytes = save_delta_to_bytes(delta);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len())
}

/// Reads a delta checkpoint file; returns the delta and the bytes read.
pub fn load_delta(path: &std::path::Path) -> Result<(GraphDelta, usize), DeltaError> {
    let data = std::fs::read(path)?;
    let n = data.len();
    Ok((load_delta_from_bytes(&data)?, n))
}

/// Re-hash a node's parameters (the value identity used by expression
/// signatures and [`base_signature`]).
pub fn params_signature(params: &[Tensor]) -> u64 {
    hash_params(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ParamInit;
    use crate::layer::{Activation, LayerKind};
    use nautilus_tensor::init::seeded_rng;

    /// input -> dense(frozen) -> adapter(trainable) -> head(trainable)
    fn variant(seed: u64) -> ModelGraph {
        let mut frozen_rng = seeded_rng(11);
        let mut rng = seeded_rng(seed);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [6]);
        let f = g
            .add_layer(
                "trunk",
                LayerKind::Dense { in_dim: 6, out_dim: 8, act: Activation::Gelu },
                &[inp],
                true,
                ParamInit::Seeded(&mut frozen_rng),
            )
            .unwrap();
        let a = g
            .add_layer(
                "adapter",
                LayerKind::Adapter { dim: 8, bottleneck: 4 },
                &[f],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let h = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim: 8, out_dim: 3, act: Activation::None },
                &[a],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(h).unwrap();
        g
    }

    #[test]
    fn base_signature_ignores_trainable_values_only() {
        let a = variant(1);
        let b = variant(2);
        assert_eq!(base_signature(&a), base_signature(&b), "same base, different deltas");
        assert_eq!(base_signature(&a), base_signature(&strip_trainable(&a)));
        // A frozen-value change breaks the base pairing.
        let mut c = variant(1);
        let mut params = c.node(NodeId(1)).params.clone();
        let mut d = params[0].data().to_vec();
        d[0] += 1.0;
        params[0] = Tensor::from_vec(params[0].shape().clone(), d).unwrap();
        c.set_node_params(NodeId(1), params).unwrap();
        assert_ne!(base_signature(&a), base_signature(&c));
    }

    #[test]
    fn extract_apply_round_trip_is_exact() {
        let v = variant(5);
        let base = strip_trainable(&v);
        assert_eq!(base.node(NodeId(2)).params.len(), 0);
        assert!(base.node(NodeId(1)).params.len() > 0, "frozen weights stay");
        let delta = extract_delta(&v).unwrap();
        assert_eq!(delta.entries.len(), 2);
        let back = apply_delta(&base, &delta).unwrap();
        for (x, y) in v.nodes().iter().zip(back.nodes()) {
            assert_eq!(x.params, y.params);
            assert_eq!(x.param_sig, y.param_sig);
        }
        assert_eq!(v.expr_signatures(), back.expr_signatures());
    }

    #[test]
    fn delta_bytes_round_trip_and_verify_hashes() {
        let v = variant(9);
        let delta = extract_delta(&v).unwrap();
        let bytes = save_delta_to_bytes(&delta);
        assert!(bytes.len() < crate::checkpoint::save_to_bytes(&v).len());
        let back = load_delta_from_bytes(&bytes).unwrap();
        assert_eq!(back.base_sig, delta.base_sig);
        assert_eq!(back.entries.len(), delta.entries.len());
        for (a, b) in delta.entries.iter().zip(&back.entries) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.params, b.params);
        }
        // Corrupt one payload byte: the content hash check must catch it.
        let mut bad = bytes.clone();
        let off = bad.len() - 2;
        bad[off] ^= 0x40;
        assert!(load_delta_from_bytes(&bad).is_err());
    }

    #[test]
    fn apply_rejects_wrong_base_and_partial_cover() {
        let v = variant(3);
        let delta = extract_delta(&v).unwrap();
        let mut other = variant(3);
        let mut params = other.node(NodeId(1)).params.clone();
        let mut d = params[0].data().to_vec();
        d[1] -= 0.5;
        params[0] = Tensor::from_vec(params[0].shape().clone(), d).unwrap();
        other.set_node_params(NodeId(1), params).unwrap();
        assert!(matches!(
            apply_delta(&other, &delta),
            Err(DeltaError::BaseMismatch { .. })
        ));
        let mut partial = delta.clone();
        partial.entries.pop();
        assert!(matches!(
            apply_delta(&strip_trainable(&v), &partial),
            Err(DeltaError::BadEntry(_))
        ));
    }

    /// Entry count matches the trainable count, but one node is covered
    /// twice and another not at all.
    #[test]
    fn apply_rejects_a_duplicated_entry() {
        let v = variant(3);
        let mut dup = extract_delta(&v).unwrap();
        dup.entries[1] = dup.entries[0].clone();
        let err = apply_delta(&strip_trainable(&v), &dup).unwrap_err();
        assert!(matches!(&err, DeltaError::BadEntry(m) if m.contains("two entries")), "{err}");
    }

    #[test]
    fn identical_deltas_share_content_hashes() {
        let a = extract_delta(&variant(4)).unwrap();
        let b = extract_delta(&variant(4)).unwrap();
        let c = extract_delta(&variant(6)).unwrap();
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.content_hash(), y.content_hash());
        }
        assert_ne!(a.entries[0].content_hash(), c.entries[0].content_hash());
    }

    #[test]
    fn extract_requires_materialized_params() {
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [4]);
        let d = g
            .add_layer(
                "virtual-head",
                LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
                &[inp],
                false,
                ParamInit::ShapesOnly { sig: 3 },
            )
            .unwrap();
        g.add_output(d).unwrap();
        assert!(extract_delta(&g).is_err());
    }
}
