//! Layer kinds: configuration, parameter initialization, shape inference,
//! and cost metadata.
//!
//! A layer (paper Def 2.1) is a function from input tensors of fixed
//! per-record shape to one output tensor of fixed per-record shape. Layers
//! here are *typed configurations*; parameters live on the graph node so
//! that checkpoints and the multi-model merge can treat them uniformly.
//!
//! Composite blocks (transformer encoder, residual block, embedding-with-
//! layer-norm) are represented as single graph nodes — mirroring how the
//! paper's Keras graphs treat e.g. a transformer layer — and therefore
//! report their *internal* activation sizes via
//! [`LayerKind::internal_output_elements`], which §4.3.3 of the paper uses
//! to bound backward-pass memory.

use nautilus_tensor::init;
use nautilus_tensor::ops::conv::conv_out_dim;
use nautilus_tensor::{Shape, Tensor};
use nautilus_util::json_enum;
use nautilus_util::rng::Rng;

/// Pointwise activation applied by layers that take one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Identity.
    None,
    /// Rectified linear unit.
    Relu,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
}

json_enum!(Activation { None, Relu, Gelu, Tanh });

/// All supported layer types and their configurations.
///
/// Shapes are *per record* (no batch axis). Token inputs are `[seq]` id
/// tensors; image inputs are `[channels, height, width]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Model input placeholder with a per-record shape.
    Input {
        /// Per-record shape of the fed data.
        shape: Vec<usize>,
    },
    /// Token + learned positional embedding followed by layer norm
    /// (BERT-style). Input `[seq]` ids; output `[seq, dim]`.
    Embedding {
        /// Vocabulary size.
        vocab: usize,
        /// Embedding width.
        dim: usize,
        /// Maximum sequence length (positional table size).
        max_len: usize,
    },
    /// Post-LN transformer encoder block (multi-head self-attention +
    /// feed-forward). Input and output `[seq, dim]`.
    TransformerBlock {
        /// Model width.
        dim: usize,
        /// Number of attention heads (`dim % heads == 0`).
        heads: usize,
        /// Feed-forward inner width.
        ff_dim: usize,
    },
    /// Fully connected layer on the innermost axis with optional activation.
    Dense {
        /// Input width.
        in_dim: usize,
        /// Output width.
        out_dim: usize,
        /// Pointwise activation.
        act: Activation,
    },
    /// Houlsby-style bottleneck adapter: `x + W_up · relu(W_down · x)`.
    Adapter {
        /// Model width.
        dim: usize,
        /// Bottleneck width.
        bottleneck: usize,
    },
    /// N-ary elementwise sum of identically shaped inputs.
    Add,
    /// Concatenation of inputs along the innermost axis.
    ConcatLast,
    /// Mean over the sequence axis: `[seq, dim] -> [dim]`.
    MeanPoolSeq,
    /// 2-D convolution with optional activation. Input `[c, h, w]`.
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Square kernel size.
        k: usize,
        /// Stride.
        stride: usize,
        /// Symmetric zero padding.
        pad: usize,
        /// Pointwise activation.
        act: Activation,
    },
    /// Two-convolution residual block with ReLUs; 1×1 projection shortcut
    /// when shape changes. Input `[in_ch, h, w]`.
    ResidualBlock {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Stride of the first convolution (downsampling when 2).
        stride: usize,
    },
    /// Max pooling with a square window.
    MaxPool2d {
        /// Window size.
        k: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling: `[c, h, w] -> [c]`.
    GlobalAvgPool,
    /// Flattens the record to one axis.
    Flatten,
    /// Extracts one sequence position: `[seq, dim] -> [dim]`.
    ///
    /// Used when unrolling recurrent models into DAGs (paper §2.5).
    SliceSeq {
        /// Position to extract.
        index: usize,
    },
    /// Produces zeros of a fixed per-record shape (batch inferred from the
    /// input, whose values are ignored) — the initial hidden state of an
    /// unrolled recurrent model.
    ZerosLike {
        /// Per-record output shape.
        shape: Vec<usize>,
    },
}

json_enum!(LayerKind {
    Input { shape },
    Embedding { vocab, dim, max_len },
    TransformerBlock { dim, heads, ff_dim },
    Dense { in_dim, out_dim, act },
    Adapter { dim, bottleneck },
    Add,
    ConcatLast,
    MeanPoolSeq,
    Conv2d { in_ch, out_ch, k, stride, pad, act },
    ResidualBlock { in_ch, out_ch, stride },
    MaxPool2d { k, stride },
    GlobalAvgPool,
    Flatten,
    SliceSeq { index },
    ZerosLike { shape },
});

/// Errors from layer configuration/shape checking.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerError(pub String);

impl std::fmt::Display for LayerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "layer error: {}", self.0)
    }
}

impl std::error::Error for LayerError {}

fn err(msg: impl Into<String>) -> LayerError {
    LayerError(msg.into())
}

/// Output extents `(oh, ow)` of a `k`×`k` conv/pool window over a
/// `[c, h, w]` shape; a zero stride or a window larger than the padded
/// input is a configuration error.
fn window_out(s: &Shape, k: usize, stride: usize, pad: usize) -> Result<(usize, usize), LayerError> {
    let extent = |axis: usize| {
        conv_out_dim(s.dim(axis), k, stride, pad).map_err(|e| err(e.to_string()))
    };
    Ok((extent(1)?, extent(2)?))
}

impl LayerKind {
    /// Short type name for diagnostics and store keys.
    pub fn type_name(&self) -> &'static str {
        match self {
            LayerKind::Input { .. } => "input",
            LayerKind::Embedding { .. } => "embedding",
            LayerKind::TransformerBlock { .. } => "transformer",
            LayerKind::Dense { .. } => "dense",
            LayerKind::Adapter { .. } => "adapter",
            LayerKind::Add => "add",
            LayerKind::ConcatLast => "concat",
            LayerKind::MeanPoolSeq => "meanpool",
            LayerKind::Conv2d { .. } => "conv2d",
            LayerKind::ResidualBlock { .. } => "resblock",
            LayerKind::MaxPool2d { .. } => "maxpool",
            LayerKind::GlobalAvgPool => "gap",
            LayerKind::Flatten => "flatten",
            LayerKind::SliceSeq { .. } => "slice",
            LayerKind::ZerosLike { .. } => "zeros",
        }
    }

    /// Number of parameter tensors this kind carries.
    pub fn num_params(&self) -> usize {
        match self {
            LayerKind::Input { .. }
            | LayerKind::Add
            | LayerKind::ConcatLast
            | LayerKind::MeanPoolSeq
            | LayerKind::MaxPool2d { .. }
            | LayerKind::GlobalAvgPool
            | LayerKind::Flatten
            | LayerKind::SliceSeq { .. }
            | LayerKind::ZerosLike { .. } => 0,
            LayerKind::Embedding { .. } => 4,
            LayerKind::TransformerBlock { .. } => 16,
            LayerKind::Dense { .. } => 2,
            LayerKind::Adapter { .. } => 4,
            LayerKind::Conv2d { .. } => 2,
            LayerKind::ResidualBlock { in_ch, out_ch, stride } => {
                if in_ch == out_ch && *stride == 1 {
                    4
                } else {
                    6
                }
            }
        }
    }

    /// Expected number of graph inputs.
    pub fn arity(&self) -> Option<usize> {
        match self {
            LayerKind::Input { .. } => Some(0),
            LayerKind::Add | LayerKind::ConcatLast => None, // n-ary (>= 2)
            _ => Some(1),
        }
    }

    /// Shapes of this kind's parameter tensors, in the same order as
    /// [`LayerKind::init_params`].
    ///
    /// Used by shapes-only graphs (the simulated backend builds
    /// BERT-base-scale models without allocating their weights) and by
    /// checkpoint-size estimation.
    pub fn param_shapes(&self) -> Vec<Shape> {
        match *self {
            LayerKind::Input { .. }
            | LayerKind::Add
            | LayerKind::ConcatLast
            | LayerKind::MeanPoolSeq
            | LayerKind::MaxPool2d { .. }
            | LayerKind::GlobalAvgPool
            | LayerKind::Flatten
            | LayerKind::SliceSeq { .. }
            | LayerKind::ZerosLike { .. } => Vec::new(),
            LayerKind::Embedding { vocab, dim, max_len } => vec![
                Shape::new([vocab, dim]),
                Shape::new([max_len, dim]),
                Shape::new([dim]),
                Shape::new([dim]),
            ],
            LayerKind::TransformerBlock { dim, ff_dim, .. } => vec![
                Shape::new([dim, dim]),
                Shape::new([dim]),
                Shape::new([dim, dim]),
                Shape::new([dim]),
                Shape::new([dim, dim]),
                Shape::new([dim]),
                Shape::new([dim, dim]),
                Shape::new([dim]),
                Shape::new([dim]),
                Shape::new([dim]),
                Shape::new([dim, ff_dim]),
                Shape::new([ff_dim]),
                Shape::new([ff_dim, dim]),
                Shape::new([dim]),
                Shape::new([dim]),
                Shape::new([dim]),
            ],
            LayerKind::Dense { in_dim, out_dim, .. } => {
                vec![Shape::new([in_dim, out_dim]), Shape::new([out_dim])]
            }
            LayerKind::Adapter { dim, bottleneck } => vec![
                Shape::new([dim, bottleneck]),
                Shape::new([bottleneck]),
                Shape::new([bottleneck, dim]),
                Shape::new([dim]),
            ],
            LayerKind::Conv2d { in_ch, out_ch, k, .. } => {
                vec![Shape::new([out_ch, in_ch, k, k]), Shape::new([out_ch])]
            }
            LayerKind::ResidualBlock { in_ch, out_ch, stride } => {
                let mut p = vec![
                    Shape::new([out_ch, in_ch, 3, 3]),
                    Shape::new([out_ch]),
                    Shape::new([out_ch, out_ch, 3, 3]),
                    Shape::new([out_ch]),
                ];
                if in_ch != out_ch || stride != 1 {
                    p.push(Shape::new([out_ch, in_ch, 1, 1]));
                    p.push(Shape::new([out_ch]));
                }
                p
            }
        }
    }

    /// Initializes this kind's parameter tensors with the given RNG.
    ///
    /// Deterministic given the RNG stream: the model zoo derives all
    /// "pre-trained" weights from fixed seeds so identical layers compare
    /// equal (paper Def 4.3).
    pub fn init_params(&self, rng: &mut impl Rng) -> Vec<Tensor> {
        match *self {
            LayerKind::Input { .. }
            | LayerKind::Add
            | LayerKind::ConcatLast
            | LayerKind::MeanPoolSeq
            | LayerKind::MaxPool2d { .. }
            | LayerKind::GlobalAvgPool
            | LayerKind::Flatten
            | LayerKind::SliceSeq { .. }
            | LayerKind::ZerosLike { .. } => Vec::new(),
            LayerKind::Embedding { vocab, dim, max_len } => vec![
                init::randn([vocab, dim], 0.05, rng),
                init::randn([max_len, dim], 0.05, rng),
                Tensor::ones([dim]),
                Tensor::zeros([dim]),
            ],
            LayerKind::TransformerBlock { dim, ff_dim, .. } => {
                let proj = |rng: &mut _| init::glorot([dim, dim], dim, dim, rng);
                // Output projections are damped so untrained blocks stay
                // residual-dominant (like pre-trained transformers, which
                // preserve token identity through the stack); without this a
                // random frozen backbone scrambles its inputs.
                let damp = 0.2f32;
                vec![
                    proj(rng),                                        // wq
                    Tensor::zeros([dim]),                             // bq
                    proj(rng),                                        // wk
                    Tensor::zeros([dim]),                             // bk
                    proj(rng),                                        // wv
                    Tensor::zeros([dim]),                             // bv
                    nautilus_tensor::ops::scale(&proj(rng), damp),    // wo
                    Tensor::zeros([dim]),                             // bo
                    Tensor::ones([dim]),                              // ln1 gamma
                    Tensor::zeros([dim]),                             // ln1 beta
                    init::glorot([dim, ff_dim], dim, ff_dim, rng),    // w1
                    Tensor::zeros([ff_dim]),                          // b1
                    nautilus_tensor::ops::scale(
                        &init::glorot([ff_dim, dim], ff_dim, dim, rng),
                        damp,
                    ),                                                // w2
                    Tensor::zeros([dim]),                             // b2
                    Tensor::ones([dim]),                              // ln2 gamma
                    Tensor::zeros([dim]),                             // ln2 beta
                ]
            }
            LayerKind::Dense { in_dim, out_dim, .. } => vec![
                init::glorot([in_dim, out_dim], in_dim, out_dim, rng),
                Tensor::zeros([out_dim]),
            ],
            LayerKind::Adapter { dim, bottleneck } => vec![
                init::glorot([dim, bottleneck], dim, bottleneck, rng),
                Tensor::zeros([bottleneck]),
                // Near-zero up-projection: adapters start close to identity.
                init::randn([bottleneck, dim], 1e-3, rng),
                Tensor::zeros([dim]),
            ],
            LayerKind::Conv2d { in_ch, out_ch, k, .. } => vec![
                init::glorot([out_ch, in_ch, k, k], in_ch * k * k, out_ch * k * k, rng),
                Tensor::zeros([out_ch]),
            ],
            LayerKind::ResidualBlock { in_ch, out_ch, stride } => {
                let mut p = vec![
                    init::glorot([out_ch, in_ch, 3, 3], in_ch * 9, out_ch * 9, rng),
                    Tensor::zeros([out_ch]),
                    init::glorot([out_ch, out_ch, 3, 3], out_ch * 9, out_ch * 9, rng),
                    Tensor::zeros([out_ch]),
                ];
                if in_ch != out_ch || stride != 1 {
                    p.push(init::glorot([out_ch, in_ch, 1, 1], in_ch, out_ch, rng));
                    p.push(Tensor::zeros([out_ch]));
                }
                p
            }
        }
    }

    /// Per-record output shape given per-record input shapes.
    pub fn output_shape(&self, inputs: &[Shape]) -> Result<Shape, LayerError> {
        if let Some(a) = self.arity() {
            if inputs.len() != a {
                return Err(err(format!(
                    "{} expects {a} inputs, got {}",
                    self.type_name(),
                    inputs.len()
                )));
            }
        } else if inputs.len() < 2 {
            return Err(err(format!("{} expects >= 2 inputs", self.type_name())));
        }
        match self {
            LayerKind::Input { shape } => Ok(Shape::new(shape.clone())),
            LayerKind::Embedding { dim, max_len, .. } => {
                let s = &inputs[0];
                if s.rank() != 1 {
                    return Err(err(format!("embedding expects [seq] ids, got {s}")));
                }
                if s.dim(0) > *max_len {
                    return Err(err(format!(
                        "sequence length {} exceeds max_len {max_len}",
                        s.dim(0)
                    )));
                }
                Ok(Shape::new([s.dim(0), *dim]))
            }
            LayerKind::TransformerBlock { dim, heads, .. } => {
                let s = &inputs[0];
                if s.rank() != 2 || s.dim(1) != *dim {
                    return Err(err(format!(
                        "transformer(dim={dim}) expects [seq, {dim}], got {s}"
                    )));
                }
                if dim % heads != 0 {
                    return Err(err(format!("dim {dim} not divisible by heads {heads}")));
                }
                Ok(s.clone())
            }
            LayerKind::Dense { in_dim, out_dim, .. } => {
                let s = &inputs[0];
                if s.last_dim() != *in_dim {
                    return Err(err(format!(
                        "dense(in={in_dim}) got innermost {}",
                        s.last_dim()
                    )));
                }
                Ok(s.with_last_dim(*out_dim))
            }
            LayerKind::Adapter { dim, .. } => {
                let s = &inputs[0];
                if s.last_dim() != *dim {
                    return Err(err(format!(
                        "adapter(dim={dim}) got innermost {}",
                        s.last_dim()
                    )));
                }
                Ok(s.clone())
            }
            LayerKind::Add => {
                let first = &inputs[0];
                for s in &inputs[1..] {
                    first.expect_eq(s).map_err(|e| err(e.to_string()))?;
                }
                Ok(first.clone())
            }
            LayerKind::ConcatLast => {
                let first = &inputs[0];
                let mut total = first.last_dim();
                for s in &inputs[1..] {
                    if s.rank() != first.rank()
                        || s.0[..s.rank() - 1] != first.0[..first.rank() - 1]
                    {
                        return Err(err(format!("concat shape mismatch: {first} vs {s}")));
                    }
                    total += s.last_dim();
                }
                Ok(first.with_last_dim(total))
            }
            LayerKind::MeanPoolSeq => {
                let s = &inputs[0];
                if s.rank() != 2 {
                    return Err(err(format!("meanpool expects [seq, dim], got {s}")));
                }
                Ok(Shape::new([s.dim(1)]))
            }
            LayerKind::Conv2d { in_ch, out_ch, k, stride, pad, .. } => {
                let s = &inputs[0];
                if s.rank() != 3 || s.dim(0) != *in_ch {
                    return Err(err(format!("conv2d(in={in_ch}) got {s}")));
                }
                let (oh, ow) = window_out(s, *k, *stride, *pad)?;
                Ok(Shape::new([*out_ch, oh, ow]))
            }
            LayerKind::ResidualBlock { in_ch, out_ch, stride } => {
                let s = &inputs[0];
                if s.rank() != 3 || s.dim(0) != *in_ch {
                    return Err(err(format!("resblock(in={in_ch}) got {s}")));
                }
                let (oh, ow) = window_out(s, 3, *stride, 1)?;
                Ok(Shape::new([*out_ch, oh, ow]))
            }
            LayerKind::MaxPool2d { k, stride } => {
                let s = &inputs[0];
                if s.rank() != 3 {
                    return Err(err(format!("maxpool expects [c, h, w], got {s}")));
                }
                let (oh, ow) = window_out(s, *k, *stride, 0)?;
                Ok(Shape::new([s.dim(0), oh, ow]))
            }
            LayerKind::GlobalAvgPool => {
                let s = &inputs[0];
                if s.rank() != 3 {
                    return Err(err(format!("gap expects [c, h, w], got {s}")));
                }
                Ok(Shape::new([s.dim(0)]))
            }
            LayerKind::Flatten => Ok(Shape::new([inputs[0].num_elements()])),
            LayerKind::SliceSeq { index } => {
                let s = &inputs[0];
                if s.rank() != 2 {
                    return Err(err(format!("slice expects [seq, dim], got {s}")));
                }
                if *index >= s.dim(0) {
                    return Err(err(format!(
                        "slice index {index} out of range for seq {}",
                        s.dim(0)
                    )));
                }
                Ok(Shape::new([s.dim(1)]))
            }
            LayerKind::ZerosLike { shape } => Ok(Shape::new(shape.clone())),
        }
    }

    /// Forward-pass FLOPs for one record given per-record input shapes.
    ///
    /// This is the paper's profiled forward cost; the `ccomp` multipliers
    /// for frozen / materializable layers are applied by the profiler, not
    /// here.
    pub fn forward_flops(&self, inputs: &[Shape]) -> u64 {
        let act_cost = |n: u64, act: &Activation| match act {
            Activation::None => 0,
            Activation::Relu => n,
            Activation::Gelu => 12 * n,
            Activation::Tanh => 8 * n,
        };
        // A window `output_shape` rejects does no work.
        let out_positions = |s: &Shape, k: usize, stride: usize, pad: usize| {
            window_out(s, k, stride, pad).map_or((0, 0), |(oh, ow)| (oh as u64, ow as u64))
        };
        match self {
            LayerKind::Input { .. } => 0,
            LayerKind::Embedding { dim, .. } => {
                let s = inputs[0].dim(0) as u64;
                let d = *dim as u64;
                // lookup+positional add + layer norm (~8 flops/element)
                s * d + 8 * s * d
            }
            LayerKind::TransformerBlock { dim, heads, ff_dim } => {
                let s = inputs[0].dim(0) as u64;
                let d = *dim as u64;
                let f = *ff_dim as u64;
                let h = *heads as u64;
                let proj = 4 * 2 * s * d * d; // q, k, v, o projections
                let attn = 2 * (2 * s * s * d) + 5 * h * s * s; // scores+ctx+softmax
                let ff = 2 * s * d * f * 2 + 12 * s * f; // two mat-muls + gelu
                let ln = 2 * 8 * s * d;
                let residual = 2 * s * d;
                proj + attn + ff + ln + residual
            }
            LayerKind::Dense { in_dim, out_dim, act } => {
                let rows = inputs[0].outer_elements() as u64;
                let base = 2 * rows * (*in_dim as u64) * (*out_dim as u64);
                base + act_cost(rows * *out_dim as u64, act)
            }
            LayerKind::Adapter { dim, bottleneck } => {
                let rows = inputs[0].outer_elements() as u64;
                let d = *dim as u64;
                let b = *bottleneck as u64;
                2 * rows * d * b * 2 + rows * b + rows * d
            }
            LayerKind::Add => {
                (inputs.len().saturating_sub(1) * inputs[0].num_elements()) as u64
            }
            LayerKind::ConcatLast | LayerKind::Flatten => 0,
            LayerKind::MeanPoolSeq => inputs[0].num_elements() as u64,
            LayerKind::Conv2d { in_ch, out_ch, k, stride, pad, act } => {
                let s = &inputs[0];
                let (oh, ow) = out_positions(s, *k, *stride, *pad);
                let base =
                    2 * (*k * *k * *in_ch) as u64 * (*out_ch as u64) * oh * ow;
                base + act_cost(*out_ch as u64 * oh * ow, act)
            }
            LayerKind::ResidualBlock { in_ch, out_ch, stride } => {
                let s = &inputs[0];
                let (oh, ow) = out_positions(s, 3, *stride, 1);
                let c1 = 2 * (9 * *in_ch) as u64 * *out_ch as u64 * oh * ow;
                let c2 = 2 * (9 * *out_ch) as u64 * *out_ch as u64 * oh * ow;
                let proj = if in_ch != out_ch || *stride != 1 {
                    2 * (*in_ch as u64) * (*out_ch as u64) * oh * ow
                } else {
                    0
                };
                c1 + c2 + proj + 3 * (*out_ch as u64) * oh * ow
            }
            LayerKind::MaxPool2d { k, stride } => {
                let s = &inputs[0];
                let (oh, ow) = out_positions(s, *k, *stride, 0);
                s.dim(0) as u64 * oh * ow * (*k * *k) as u64
            }
            LayerKind::GlobalAvgPool => inputs[0].num_elements() as u64,
            LayerKind::SliceSeq { .. } | LayerKind::ZerosLike { .. } => 0,
        }
    }

    /// Element counts of all activations a backward pass through this layer
    /// may need (internal intermediates plus the output), per record.
    ///
    /// For simple layers this is just the output size; composite blocks
    /// enumerate their sub-layer outputs, implementing the paper's composite
    /// `smem` rule (§4.1, §4.3.3).
    pub fn internal_output_elements(&self, inputs: &[Shape]) -> Vec<usize> {
        let out = match self.output_shape(inputs) {
            Ok(s) => s.num_elements(),
            Err(_) => 0,
        };
        match self {
            LayerKind::TransformerBlock { dim, heads, ff_dim } => {
                let s = inputs[0].dim(0);
                let d = *dim;
                vec![
                    s * d, // q
                    s * d, // k
                    s * d, // v
                    heads * s * s, // attention probabilities
                    s * d, // context
                    s * d, // attention output projection
                    s * d, // residual 1 (pre-LN)
                    s * d, // h1 (post-LN)
                    s * ff_dim, // ff pre-activation
                    s * ff_dim, // ff activation
                    s * d, // ff output
                    s * d, // residual 2 (pre-LN)
                    out,   // block output
                ]
            }
            LayerKind::Embedding { dim, .. } => {
                let s = inputs[0].dim(0);
                vec![s * dim, out]
            }
            LayerKind::ResidualBlock { .. } => {
                // conv1 out, conv1 act, conv2 out, (proj), sum, relu ≈ 4–5
                // activations of the output size.
                vec![out; 4]
            }
            LayerKind::Adapter { bottleneck, .. } => {
                let rows = inputs[0].outer_elements();
                vec![rows * bottleneck, rows * bottleneck, out]
            }
            _ => vec![out],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_tensor::init::seeded_rng;

    #[test]
    fn dense_shape_and_flops() {
        let k = LayerKind::Dense { in_dim: 8, out_dim: 4, act: Activation::Relu };
        let out = k.output_shape(&[Shape::new([10, 8])]).unwrap();
        assert_eq!(out, Shape::new([10, 4]));
        assert_eq!(k.forward_flops(&[Shape::new([10, 8])]), 2 * 10 * 8 * 4 + 40);
        assert!(k.output_shape(&[Shape::new([10, 7])]).is_err());
    }

    #[test]
    fn windows_without_output_geometry_are_layer_errors() {
        use crate::graph::{GraphError, ModelGraph, ParamInit};
        let img = Shape::new([2, 4, 4]);
        let bad = [
            LayerKind::Conv2d { in_ch: 2, out_ch: 3, k: 3, stride: 0, pad: 1, act: Activation::None },
            LayerKind::Conv2d { in_ch: 2, out_ch: 3, k: 7, stride: 1, pad: 1, act: Activation::None },
            LayerKind::ResidualBlock { in_ch: 2, out_ch: 2, stride: 0 },
            LayerKind::MaxPool2d { k: 5, stride: 1 },
            LayerKind::MaxPool2d { k: 2, stride: 0 },
        ];
        for kind in bad {
            assert!(kind.output_shape(std::slice::from_ref(&img)).is_err(), "{kind:?}");
            kind.forward_flops(std::slice::from_ref(&img)); // must not divide by zero either
            let mut g = ModelGraph::new();
            let inp = g.add_input("img", [2, 4, 4]);
            let got = g.add_layer("bad", kind.clone(), &[inp], false, ParamInit::Seeded(&mut seeded_rng(1)));
            assert!(matches!(got, Err(GraphError::Layer(_))), "{kind:?}: {got:?}");
        }
    }

    #[test]
    fn flop_estimates_unchanged_by_kernel_lowering() {
        // Literal pins: FLOP accounting is a function of shapes only, so the
        // blocked-GEMM / im2col kernel lowering must never change these
        // numbers (panel packing and column materialization are memory
        // traffic, not FLOPs). If either assertion moves, the cost model —
        // and every Nautilus planner decision built on it — silently shifts.
        let conv =
            LayerKind::Conv2d { in_ch: 8, out_ch: 16, k: 3, stride: 1, pad: 1, act: Activation::None };
        // 2 * (3*3*8) * 16 * 16 * 16 mult-adds over a 16x16 output plane.
        assert_eq!(conv.forward_flops(&[Shape::new([8, 16, 16])]), 589_824);

        use nautilus_tensor::ops::{matmul_ex_flops, MatmulSpec};
        let a = Tensor::zeros([64, 128]);
        let b = Tensor::zeros([128, 32]);
        // 2 * 64 * 128 * 32, regardless of which kernel strategy runs it.
        assert_eq!(matmul_ex_flops(&a, &b, MatmulSpec::plain()), 524_288);
        let bt = Tensor::zeros([32, 128]);
        assert_eq!(matmul_ex_flops(&a, &bt, MatmulSpec::tb()), 524_288);
    }

    #[test]
    fn embedding_shape() {
        let k = LayerKind::Embedding { vocab: 100, dim: 16, max_len: 32 };
        assert_eq!(k.output_shape(&[Shape::new([20])]).unwrap(), Shape::new([20, 16]));
        assert!(k.output_shape(&[Shape::new([40])]).is_err()); // > max_len
        assert!(k.output_shape(&[Shape::new([4, 4])]).is_err());
    }

    #[test]
    fn transformer_preserves_shape_and_checks_dim() {
        let k = LayerKind::TransformerBlock { dim: 16, heads: 4, ff_dim: 32 };
        let s = Shape::new([10, 16]);
        assert_eq!(k.output_shape(std::slice::from_ref(&s)).unwrap(), s);
        assert!(k.output_shape(&[Shape::new([10, 8])]).is_err());
        let bad = LayerKind::TransformerBlock { dim: 16, heads: 5, ff_dim: 32 };
        assert!(bad.output_shape(&[Shape::new([10, 16])]).is_err());
    }

    #[test]
    fn concat_and_add_shapes() {
        let a = Shape::new([5, 8]);
        let b = Shape::new([5, 4]);
        assert_eq!(
            LayerKind::ConcatLast.output_shape(&[a.clone(), b]).unwrap(),
            Shape::new([5, 12])
        );
        assert_eq!(LayerKind::Add.output_shape(&[a.clone(), a.clone()]).unwrap(), a.clone());
        assert!(LayerKind::Add.output_shape(std::slice::from_ref(&a)).is_err()); // arity
        assert!(LayerKind::Add
            .output_shape(&[a, Shape::new([5, 4])])
            .is_err());
    }

    #[test]
    fn conv_chain_shapes() {
        let conv = LayerKind::Conv2d { in_ch: 3, out_ch: 8, k: 3, stride: 1, pad: 1, act: Activation::Relu };
        let s = conv.output_shape(&[Shape::new([3, 16, 16])]).unwrap();
        assert_eq!(s, Shape::new([8, 16, 16]));
        let pool = LayerKind::MaxPool2d { k: 2, stride: 2 };
        let s = pool.output_shape(&[s]).unwrap();
        assert_eq!(s, Shape::new([8, 8, 8]));
        let res = LayerKind::ResidualBlock { in_ch: 8, out_ch: 16, stride: 2 };
        let s = res.output_shape(&[s]).unwrap();
        assert_eq!(s, Shape::new([16, 4, 4]));
        let gap = LayerKind::GlobalAvgPool;
        assert_eq!(gap.output_shape(&[s]).unwrap(), Shape::new([16]));
    }

    #[test]
    fn param_counts_match_init() {
        let mut rng = seeded_rng(1);
        for kind in [
            LayerKind::Embedding { vocab: 10, dim: 4, max_len: 8 },
            LayerKind::TransformerBlock { dim: 8, heads: 2, ff_dim: 16 },
            LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::None },
            LayerKind::Adapter { dim: 8, bottleneck: 2 },
            LayerKind::Conv2d { in_ch: 3, out_ch: 4, k: 3, stride: 1, pad: 1, act: Activation::Relu },
            LayerKind::ResidualBlock { in_ch: 4, out_ch: 4, stride: 1 },
            LayerKind::ResidualBlock { in_ch: 4, out_ch: 8, stride: 2 },
            LayerKind::Add,
            LayerKind::Flatten,
        ] {
            assert_eq!(kind.init_params(&mut rng).len(), kind.num_params(), "{kind:?}");
        }
    }

    #[test]
    fn param_shapes_match_init_shapes() {
        let mut rng = seeded_rng(5);
        for kind in [
            LayerKind::Embedding { vocab: 10, dim: 4, max_len: 8 },
            LayerKind::TransformerBlock { dim: 8, heads: 2, ff_dim: 16 },
            LayerKind::Dense { in_dim: 4, out_dim: 2, act: Activation::Gelu },
            LayerKind::Adapter { dim: 8, bottleneck: 2 },
            LayerKind::Conv2d { in_ch: 3, out_ch: 4, k: 3, stride: 2, pad: 1, act: Activation::None },
            LayerKind::ResidualBlock { in_ch: 4, out_ch: 4, stride: 1 },
            LayerKind::ResidualBlock { in_ch: 4, out_ch: 8, stride: 2 },
            LayerKind::MaxPool2d { k: 2, stride: 2 },
        ] {
            let shapes = kind.param_shapes();
            let params = kind.init_params(&mut rng);
            assert_eq!(shapes.len(), params.len(), "{kind:?}");
            for (s, p) in shapes.iter().zip(&params) {
                assert_eq!(s, p.shape(), "{kind:?}");
            }
        }
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let k = LayerKind::Dense { in_dim: 8, out_dim: 8, act: Activation::None };
        let a = k.init_params(&mut seeded_rng(42));
        let b = k.init_params(&mut seeded_rng(42));
        assert_eq!(a, b);
    }

    #[test]
    fn composite_internal_outputs_exceed_simple() {
        let t = LayerKind::TransformerBlock { dim: 8, heads: 2, ff_dim: 16 };
        let internals = t.internal_output_elements(&[Shape::new([4, 8])]);
        let total: usize = internals.iter().sum();
        assert!(total > 4 * 8, "composite must report more than its output");
        let d = LayerKind::Dense { in_dim: 8, out_dim: 8, act: Activation::None };
        assert_eq!(d.internal_output_elements(&[Shape::new([4, 8])]), vec![32]);
    }

    #[test]
    fn transformer_flops_dominated_by_projections() {
        let k = LayerKind::TransformerBlock { dim: 64, heads: 4, ff_dim: 128 };
        let fl = k.forward_flops(&[Shape::new([16, 64])]);
        // 4 projections alone: 4*2*16*64*64 = 524288
        assert!(fl > 524_288, "flops {fl}");
    }
}
