#![warn(missing_docs)]

//! Dense f32 tensor substrate for the Nautilus reproduction.
//!
//! The paper's system runs on top of TensorFlow kernels; this crate provides the
//! equivalent numerical substrate from scratch: a row-major contiguous [`Tensor`]
//! type plus the operations required by the model zoo (mat-mul, 2-D convolution,
//! softmax/layer-norm, pooling, broadcast elementwise arithmetic), FLOP
//! accounting helpers, deterministic random initialization, and a compact binary
//! serialization format used by the checkpoint and feature stores.
//!
//! Design notes
//! * Shapes are `Vec<usize>` wrapped in [`Shape`]; all data is contiguous
//!   row-major, which keeps kernels simple and cache-friendly.
//! * Matmuls, attention and convolutions run on the cache-blocked packed
//!   GEMM engine in [`ops::gemm`] (convolutions lower via im2col); only
//!   safe-kernel row vectors keep a naive loop. Kernels are *not* used at all by
//!   the simulated backend (which only does cost math).
//! * Tensor storage is recycled through the thread-local
//!   `nautilus_util::scratch` arena: kernel outputs take recycled buffers
//!   and dropped tensors return theirs, keeping the allocator off the
//!   training loop's critical path.
//! * Every fallible construction returns [`TensorError`] instead of panicking,
//!   per the database-systems guideline of keeping errors recoverable; indexing
//!   helpers used on hot paths debug-assert instead.

pub mod init;
pub mod ops;
pub mod ser;
pub mod shape;
pub mod tensor;

pub use shape::{Shape, ShapeError};
pub use tensor::{Tensor, TensorError};

/// Number of bytes in one f32 element, used everywhere sizes are estimated.
pub const ELEM_BYTES: usize = 4;
