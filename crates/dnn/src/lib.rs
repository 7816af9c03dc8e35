#![warn(missing_docs)]

//! Deep-learning training substrate for the Nautilus reproduction.
//!
//! The paper builds on Keras/TensorFlow; this crate is the from-scratch
//! equivalent, providing exactly what Nautilus needs:
//!
//! * [`layer`] — typed layer kinds (dense, embedding, transformer block,
//!   convolution, residual block, adapters, combinators) with parameter
//!   initialization, shape inference, and per-record FLOP estimates. Blocks
//!   like the transformer encoder are *composite* layers: they expose the
//!   sizes of their internal activations, which the paper's peak-memory
//!   estimator needs (§4.3.3).
//! * [`graph`] — DAG model graphs ([`ModelGraph`]) with frozen-layer flags
//!   (Def 2.3), topological ordering, validation, and *expression
//!   signatures* used to detect identical sub-expressions (Def 4.3) when the
//!   multi-model graph is constructed.
//! * [`exec`] — forward/backward execution over a graph for a mini-batch,
//!   computing gradients only where a trainable layer can be reached
//!   (frozen sub-DAGs cost forward-only, matching the paper's `ccomp`
//!   multipliers).
//! * [`optim`] — SGD/momentum/Adam optimizers with per-parameter state; a
//!   fused model trains each branch with its *own* optimizer (§3, Trainer).
//! * [`loss`] — softmax cross-entropy heads for token tagging and
//!   classification.
//! * [`checkpoint`] — model (de)serialization with byte accounting, the
//!   basis of the paper's checkpoint-IO measurements (Fig 11).
//! * [`delta`] — splits a trained variant into a shared frozen base plus a
//!   per-tenant delta (trainable params only), with content hashes for
//!   dedup and a compact delta checkpoint format; the substrate of the
//!   multi-tenant serving plane.
//! * [`quant`] — int8 row-quantized serving forms of dense layers, one more
//!   per-group parameter source of the shared-trunk forward, compressing the
//!   hot serving path's compute the way [`delta`] compresses its storage.

pub mod checkpoint;
pub mod delta;
pub mod exec;
pub mod graph;
pub mod layer;
pub mod loss;
pub mod optim;
pub mod quant;
pub mod summary;

pub use delta::{apply_delta, base_signature, extract_delta, strip_trainable, GraphDelta};
pub use exec::{
    backward, forward, forward_batch_shared_trunk, BatchInputs, ForwardResult, ParamOverrides,
    TrunkGroup,
};
pub use graph::{GraphError, ModelGraph, Node, NodeId};
pub use layer::{Activation, LayerKind};
pub use loss::TaskKind;
pub use optim::{Optimizer, OptimizerSpec};
pub use quant::{QuantDense, QuantizedModel};
