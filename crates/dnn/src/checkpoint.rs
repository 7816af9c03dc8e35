//! Model checkpointing with byte accounting.
//!
//! A checkpoint is a JSON header (graph structure, layer configs, frozen
//! flags, output set) followed by the parameter tensors in
//! `nautilus-tensor`'s binary format. The paper's Fig 11 hinges on
//! checkpoint traffic: Current Practice writes the *whole* model (~400–500
//! MB for BERT) after every training run, while Nautilus's rewritten plans
//! prune frozen parameters ([`save_to_bytes_with`]'s `trainable_only`);
//! [`encoded_len`] gives either checkpoint's exact size from shapes alone,
//! so a shapes-only (simulated) model is sized as its real counterpart.

use crate::graph::{ModelGraph, Node, NodeId};
use crate::layer::LayerKind;
use nautilus_tensor::ser;
use nautilus_tensor::{Shape, Tensor};
use nautilus_util::bytesio::{PutBytes, TakeBytes};
use nautilus_util::{json, json_struct};

/// Checkpoint (de)serialization errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Header is not valid JSON / schema.
    BadHeader(String),
    /// Parameter payload is malformed.
    BadPayload(String),
    /// The reconstructed graph failed validation.
    BadGraph(String),
    /// Underlying IO failure.
    Io(std::io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::BadHeader(m) => write!(f, "bad checkpoint header: {m}"),
            CheckpointError::BadPayload(m) => write!(f, "bad checkpoint payload: {m}"),
            CheckpointError::BadGraph(m) => write!(f, "bad checkpoint graph: {m}"),
            CheckpointError::Io(e) => write!(f, "checkpoint io: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

struct NodeHeader {
    name: String,
    kind: LayerKind,
    inputs: Vec<usize>,
    frozen: bool,
    param_sig: u64,
    param_shapes: Vec<Vec<usize>>,
    /// Whether real parameter data follows in the payload.
    has_data: bool,
}

json_struct!(NodeHeader { name, kind, inputs, frozen, param_sig, param_shapes, has_data });

struct GraphHeader {
    version: u32,
    nodes: Vec<NodeHeader>,
    outputs: Vec<usize>,
}

json_struct!(GraphHeader { version, nodes, outputs });

/// The header of a checkpoint of `graph`. A node's parameters are in the
/// payload when `stored(node)` says so.
fn header(graph: &ModelGraph, stored: impl Fn(&Node) -> bool) -> Vec<u8> {
    let header = GraphHeader {
        version: 1,
        nodes: graph
            .nodes()
            .iter()
            .map(|n| NodeHeader {
                name: n.name.clone(),
                kind: n.kind.clone(),
                inputs: n.inputs.iter().map(|i| i.index()).collect(),
                frozen: n.frozen,
                param_sig: n.param_sig,
                param_shapes: n.param_shapes.iter().map(|s| s.0.clone()).collect(),
                has_data: stored(n),
            })
            .collect(),
        outputs: graph.outputs().iter().map(|o| o.index()).collect(),
    };
    json::to_vec(&header)
}

/// Serializes a model graph (structure + any real parameters) to bytes.
pub fn save_to_bytes(graph: &ModelGraph) -> Vec<u8> {
    save_to_bytes_with(graph, false)
}

/// Serializes a model graph; with `trainable_only`, frozen nodes keep their
/// structure but not their parameters (Nautilus's pruned checkpoints).
pub fn save_to_bytes_with(graph: &ModelGraph, trainable_only: bool) -> Vec<u8> {
    let stored = |n: &Node| !(n.params.is_empty() || trainable_only && n.frozen);
    let header_json = header(graph, stored);
    let params = || graph.nodes().iter().filter(|n| stored(n)).flat_map(|n| &n.params);
    let payload: usize = params().map(|p| ser::encoded_len(p.shape())).sum();
    let mut buf = Vec::with_capacity(8 + header_json.len() + payload);
    buf.put_u64_le(header_json.len() as u64);
    buf.put_slice(&header_json);
    for p in params() {
        ser::encode_into(p, &mut buf);
    }
    buf
}

/// The exact length of [`save_to_bytes_with`]'s output for `graph` with
/// every parameter in memory, computed from shapes: for a real graph it is
/// the serialized length, and a shapes-only graph is sized as its real
/// counterpart.
pub fn encoded_len(graph: &ModelGraph, trainable_only: bool) -> u64 {
    let stored = |n: &Node| !(n.param_shapes.is_empty() || trainable_only && n.frozen);
    let params: usize = graph
        .nodes()
        .iter()
        .filter(|n| stored(n))
        .flat_map(|n| &n.param_shapes)
        .map(ser::encoded_len)
        .sum();
    (8 + header(graph, stored).len() + params) as u64
}

/// Reconstructs a model graph from [`save_to_bytes`] output.
pub fn load_from_bytes(bytes: &[u8]) -> Result<ModelGraph, CheckpointError> {
    let mut cur = bytes;
    let hlen = cur
        .take_u64_le()
        .ok_or_else(|| CheckpointError::BadHeader("truncated length prefix".into()))?
        as usize;
    let header_bytes = cur
        .take_slice(hlen)
        .ok_or_else(|| CheckpointError::BadHeader("truncated header".into()))?;
    let header: GraphHeader = json::from_slice(header_bytes)
        .map_err(|e| CheckpointError::BadHeader(e.to_string()))?;
    if header.version != 1 {
        return Err(CheckpointError::BadHeader(format!(
            "unsupported version {}",
            header.version
        )));
    }
    let mut graph = ModelGraph::new();
    for nh in header.nodes {
        let params: Vec<Tensor> = if nh.has_data {
            (0..nh.param_shapes.len())
                .map(|_| {
                    ser::decode_from(&mut cur)
                        .map_err(|e| CheckpointError::BadPayload(e.to_string()))
                })
                .collect::<Result<_, _>>()?
        } else {
            Vec::new()
        };
        let node = Node {
            name: nh.name,
            kind: nh.kind,
            inputs: nh.inputs.into_iter().map(NodeId).collect(),
            frozen: nh.frozen,
            params,
            param_shapes: nh.param_shapes.into_iter().map(Shape::new).collect(),
            param_sig: nh.param_sig,
        };
        graph
            .push_node(node)
            .map_err(|e| CheckpointError::BadGraph(e.to_string()))?;
    }
    for o in header.outputs {
        graph
            .add_output(NodeId(o))
            .map_err(|e| CheckpointError::BadGraph(e.to_string()))?;
    }
    graph.validate().map_err(|e| CheckpointError::BadGraph(e.to_string()))?;
    Ok(graph)
}

/// Writes a checkpoint file; returns the number of bytes written.
pub fn save(graph: &ModelGraph, path: &std::path::Path) -> Result<usize, CheckpointError> {
    let bytes = save_to_bytes(graph);
    std::fs::write(path, &bytes)?;
    Ok(bytes.len())
}

/// Reads a checkpoint file; returns the graph and the bytes read.
pub fn load(path: &std::path::Path) -> Result<(ModelGraph, usize), CheckpointError> {
    let data = std::fs::read(path)?;
    let n = data.len();
    Ok((load_from_bytes(&data)?, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ParamInit;
    use crate::layer::Activation;
    use nautilus_tensor::init::seeded_rng;

    fn sample_graph() -> ModelGraph {
        let mut rng = seeded_rng(7);
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [6]);
        let a = g
            .add_layer(
                "frozen",
                LayerKind::Dense { in_dim: 6, out_dim: 4, act: Activation::Gelu },
                &[inp],
                true,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        let b = g
            .add_layer(
                "head",
                LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
                &[a],
                false,
                ParamInit::Seeded(&mut rng),
            )
            .unwrap();
        g.add_output(b).unwrap();
        g
    }

    #[test]
    fn round_trip_preserves_everything() {
        let g = sample_graph();
        let bytes = save_to_bytes(&g);
        let back = load_from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), g.len());
        assert_eq!(back.outputs(), g.outputs());
        for (a, b) in g.nodes().iter().zip(back.nodes()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.frozen, b.frozen);
            assert_eq!(a.params, b.params);
            assert_eq!(a.param_sig, b.param_sig);
        }
        assert_eq!(g.expr_signatures(), back.expr_signatures());
    }

    #[test]
    fn file_round_trip_reports_bytes() {
        let g = sample_graph();
        let dir = std::env::temp_dir().join(format!("nautilus-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ckpt");
        let written = save(&g, &path).unwrap();
        let (back, read) = load(&path).unwrap();
        assert_eq!(written, read);
        assert_eq!(back.len(), g.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shapes_only_graphs_round_trip_without_payload() {
        let mut g = ModelGraph::new();
        let inp = g.add_input("in", [8]);
        let d = g
            .add_layer(
                "virtual",
                LayerKind::Dense { in_dim: 8, out_dim: 8, act: Activation::None },
                &[inp],
                true,
                ParamInit::ShapesOnly { sig: 42 },
            )
            .unwrap();
        g.add_output(d).unwrap();
        let bytes = save_to_bytes(&g);
        let back = load_from_bytes(&bytes).unwrap();
        assert!(back.node(d).params.is_empty());
        assert_eq!(back.node(d).param_sig, 42);
        assert_eq!(back.node(d).param_bytes(), (64 + 8) * 4);
    }

    #[test]
    fn trainable_only_checkpoints_omit_frozen_parameters() {
        let g = sample_graph();
        let full = save_to_bytes(&g);
        let pruned = save_to_bytes_with(&g, true);
        for (bytes, trainable_only) in [(&full, false), (&pruned, true)] {
            assert_eq!(encoded_len(&g, trainable_only), bytes.len() as u64);
        }
        // The frozen layer's (6*4 + 4) floats are the difference, payload
        // and NTSR headers, less the one byte its header entry grows by
        // ("false" vs "true").
        let frozen = ser::encoded_len(&Shape::new([6, 4])) + ser::encoded_len(&Shape::new([4]));
        assert_eq!(full.len() - pruned.len(), frozen - 1);
        let back = load_from_bytes(&pruned).unwrap();
        assert!(back.node(NodeId(1)).params.is_empty(), "frozen parameters pruned");
        assert_eq!(back.node(NodeId(2)).params, g.node(NodeId(2)).params);
        // A shapes-only copy is sized as the real graph.
        let mut shapes_only = g.clone();
        for id in shapes_only.ids().collect::<Vec<_>>() {
            shapes_only.node_mut(id).params.clear();
        }
        assert_eq!(encoded_len(&shapes_only, false), full.len() as u64);
        assert_eq!(encoded_len(&shapes_only, true), pruned.len() as u64);
    }

    #[test]
    fn rejects_garbage() {
        assert!(load_from_bytes(b"nope").is_err());
        let mut b = Vec::new();
        b.put_u64_le(4);
        b.put_slice(b"{..}");
        assert!(load_from_bytes(&b).is_err());
    }
}
