//! Scaled dot-product attention core of one record, computed in place.
//!
//! The projections `q`/`k`/`v` of a `[B, S, D]` activation hold head `h` of
//! record `b` as the `[S, dh]` column band `h·dh .. (h+1)·dh` of that
//! record's `[S, D]` rows. These kernels read each band where it lies (row
//! stride `D`) and write `ctx`/`dq`/`dk`/`dv` bands directly, instead of
//! copying every head out into `[S, dh]` tensors, running
//! `matmul_tb → scale → softmax_last → matmul` (and the mirrored backward)
//! on the copies, and adding the results back.
//!
//! **Bit-identity with that composition is the contract**: per output
//! element the same float operations run in the same order. Every product
//! of a head runs the blocked engine of the resolved kernel over strided
//! [`MatRef`] views, so packing reads the same values it read from the
//! copies. Under the summation contract (see [`crate::ops::matmul`]) that
//! is the composition's expression whichever arm `matmul_ex` chose for
//! each product. Softmax and its gradient are the row bodies of
//! [`crate::ops::nn`]. The composition survives as the `#[cfg(test)]`
//! reference below.
//!
//! One call covers one record; callers fan records out over the pool.

use crate::ops::gemm::{self, KernelKind, MatRef};
use crate::ops::matmul::count_dispatch;
use crate::ops::nn::{softmax_backward_row, softmax_row};
use nautilus_util::scratch;

/// Per-record geometry of an attention layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttnDims {
    /// Sequence length `S`.
    pub seq: usize,
    /// Model width `D` (the row stride of every operand).
    pub dim: usize,
    /// Number of heads; `dim` must be a multiple of it.
    pub heads: usize,
}

impl AttnDims {
    fn head_dim(&self) -> usize {
        assert!(
            self.heads > 0 && self.dim > 0 && self.dim.is_multiple_of(self.heads),
            "dim {} not divisible into {} heads",
            self.dim,
            self.heads
        );
        self.dim / self.heads
    }

    fn score_scale(&self) -> f32 {
        1.0 / (self.head_dim() as f32).sqrt()
    }

    /// Elements of one record's `[S, D]` operand.
    pub fn record_len(&self) -> usize {
        self.seq * self.dim
    }

    /// Elements of one record's `[heads, S, S]` attention probabilities.
    pub fn probs_len(&self) -> usize {
        self.heads * self.seq * self.seq
    }

    /// The kernel every product of a head runs on, with `products` routing
    /// decisions per head counted as `matmul_ex` counts its own.
    fn kernel(&self, products: usize) -> KernelKind {
        let kernel = gemm::resolved_kernel();
        for _ in 0..products * self.heads {
            count_dispatch(kernel.as_str());
        }
        kernel
    }
}

/// Head band `[S, dh]` starting at column `off` of a record's `[S, D]` rows.
fn band(x: &[f32], off: usize, dim: usize) -> MatRef<'_> {
    MatRef { data: &x[off..], rs: dim, cs: 1 }
}

/// The same band read transposed, as `[dh, S]`.
fn band_t(x: &[f32], off: usize, dim: usize) -> MatRef<'_> {
    MatRef { data: &x[off..], rs: 1, cs: dim }
}

/// Stores a contiguous `[S, dh]` product into the band at `off` as
/// `0.0 + x·scale`: what `scale` followed by accumulation into a zeroed
/// tensor leaves (a product that underflows to `-0.0` lands as `+0.0`;
/// `scale` 1.0 leaves `0.0 + x`).
fn store_band(src: &[f32], dst: &mut [f32], off: usize, dim: usize, dh: usize, scale: f32) {
    for (srow, drow) in src.chunks_exact(dh).zip(dst.chunks_exact_mut(dim)) {
        for (o, &v) in drow[off..off + dh].iter_mut().zip(srow) {
            *o = 0.0 + v * scale;
        }
    }
}

/// Attention forward for one record: `ctx = softmax(q·kᵀ / √dh) · v` per
/// head. `q`/`k`/`v` are the record's `[S, D]` rows, `ctx` its zeroed
/// `[S, D]` output. `probs`, when given, is the record's zeroed
/// `[heads, S, S]` slot that keeps the softmax matrices for
/// [`attention_backward`]; inference passes `None`.
pub fn attention_forward(
    dims: AttnDims,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    ctx: &mut [f32],
    probs: Option<&mut [f32]>,
) {
    let kernel = dims.kernel(2);
    let (s, dim) = (dims.seq, dims.dim);
    let (dh, scale) = (dims.head_dim(), dims.score_scale());
    for x in [q, k, v, &*ctx] {
        assert_eq!(x.len(), dims.record_len(), "attention operand is not one [S, D] record");
    }
    let mut local;
    let probs = match probs {
        Some(p) => p,
        None => {
            local = scratch::take(dims.probs_len());
            &mut local[..]
        }
    };
    assert_eq!(probs.len(), dims.probs_len(), "probs is not one [heads, S, S] record");
    if s == 0 {
        return;
    }
    let mut tmp = scratch::take(s * dh);
    for (h, attn) in probs.chunks_exact_mut(s * s).enumerate() {
        let off = h * dh;
        gemm::gemm_with(kernel, s, dh, s, band(q, off, dim), band_t(k, off, dim), attn);
        for row in attn.chunks_exact_mut(s) {
            row.iter_mut().for_each(|x| *x *= scale);
            softmax_row(row);
        }
        tmp.fill(0.0);
        gemm::gemm_with(kernel, s, s, dh, MatRef::row_major(attn, s), band(v, off, dim), &mut tmp);
        store_band(&tmp, ctx, off, dim, dh, 1.0);
    }
}

/// Attention backward for one record: from `dctx` and the forward's `probs`
/// to the zeroed `dq`/`dk`/`dv`, all `[S, D]` rows of the record.
#[allow(clippy::too_many_arguments)]
pub fn attention_backward(
    dims: AttnDims,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    probs: &[f32],
    dctx: &[f32],
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
) {
    let kernel = dims.kernel(4);
    let (s, dim) = (dims.seq, dims.dim);
    let (dh, scale) = (dims.head_dim(), dims.score_scale());
    for x in [q, k, v, dctx, &*dq, &*dk, &*dv] {
        assert_eq!(x.len(), dims.record_len(), "attention operand is not one [S, D] record");
    }
    assert_eq!(probs.len(), dims.probs_len(), "probs is not one [heads, S, S] record");
    if s == 0 {
        return;
    }
    let mut dscores = scratch::take(s * s);
    let mut tmp = scratch::take(s * dh);
    for (h, attn) in probs.chunks_exact(s * s).enumerate() {
        let off = h * dh;
        dscores.fill(0.0);
        let mut product = |a: MatRef, b: MatRef, dst: &mut [f32], scale: f32| {
            tmp.fill(0.0);
            gemm::gemm_with(kernel, s, s, dh, a, b, &mut tmp);
            store_band(&tmp, dst, off, dim, dh, scale);
        };
        gemm::gemm_with(kernel, s, dh, s, band(dctx, off, dim), band_t(v, off, dim), &mut dscores);
        product(MatRef::transposed(attn, s), band(dctx, off, dim), dv, 1.0);
        for (yr, gr) in attn.chunks_exact(s).zip(dscores.chunks_exact_mut(s)) {
            softmax_backward_row(yr, gr);
        }
        product(MatRef::row_major(&dscores[..], s), band(k, off, dim), dq, scale);
        product(MatRef::transposed(&dscores[..], s), band(q, off, dim), dk, scale);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
    use crate::ops::{matmul, matmul_ta, matmul_tb, scale, softmax_last, softmax_last_backward};
    use crate::Tensor;
    use nautilus_util::prop::{bools, prop_check, u64s, usizes};
    use nautilus_util::prop_assert_eq;

    /// Head `h` of a record's `[S, D]` rows copied out as `[S, dh]`.
    fn slice_head(x: &[f32], d: AttnDims, h: usize) -> Tensor {
        let dh = d.head_dim();
        let data = x.chunks_exact(d.dim).flat_map(|r| r[h * dh..(h + 1) * dh].to_vec()).collect();
        Tensor::from_vec([d.seq, dh], data).unwrap()
    }

    /// Adds `[S, dh]` into head `h` of a record's `[S, D]` rows.
    fn add_head(dst: &mut [f32], src: &Tensor, d: AttnDims, h: usize) {
        let dh = d.head_dim();
        for (drow, srow) in dst.chunks_exact_mut(d.dim).zip(src.data().chunks_exact(dh)) {
            for (o, &v) in drow[h * dh..(h + 1) * dh].iter_mut().zip(srow) {
                *o += v;
            }
        }
    }

    /// The forward composition the kernel replaced: per head, copy out,
    /// `matmul_tb → scale → softmax_last → matmul`, add back.
    fn reference_forward(d: AttnDims, q: &[f32], k: &[f32], v: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let mut ctx = vec![0.0f32; d.record_len()];
        let mut probs = Vec::new();
        for h in 0..d.heads {
            let (qh, kh, vh) = (slice_head(q, d, h), slice_head(k, d, h), slice_head(v, d, h));
            let attn = softmax_last(&scale(&matmul_tb(&qh, &kh).unwrap(), d.score_scale()));
            add_head(&mut ctx, &matmul(&attn, &vh).unwrap(), d, h);
            probs.extend_from_slice(attn.data());
        }
        (ctx, probs)
    }

    /// The backward composition the kernel replaced.
    fn reference_backward(
        d: AttnDims,
        q: &[f32],
        k: &[f32],
        v: &[f32],
        probs: &[f32],
        dctx: &[f32],
    ) -> [Vec<f32>; 3] {
        let s = d.seq;
        let mut out = [(); 3].map(|_| vec![0.0f32; d.record_len()]);
        for h in 0..d.heads {
            let attn = Tensor::from_vec([s, s], probs[h * s * s..(h + 1) * s * s].to_vec()).unwrap();
            let dctx_h = slice_head(dctx, d, h);
            let (qh, kh, vh) = (slice_head(q, d, h), slice_head(k, d, h), slice_head(v, d, h));
            let dattn = matmul_tb(&dctx_h, &vh).unwrap();
            let dvh = matmul_ta(&attn, &dctx_h).unwrap();
            let dscores = softmax_last_backward(&attn, &dattn).unwrap();
            let dqh = scale(&matmul(&dscores, &kh).unwrap(), d.score_scale());
            let dkh = scale(&matmul_ta(&dscores, &qh).unwrap(), d.score_scale());
            add_head(&mut out[0], &dqh, d, h);
            add_head(&mut out[1], &dkh, d, h);
            add_head(&mut out[2], &dvh, d, h);
        }
        out
    }

    /// Runs both kernels and both compositions on one salted record and
    /// compares every output bit for bit. `spread` > 1 saturates the
    /// softmax, so the probabilities hold exact zeros and denormals and the
    /// zero-skip arms run.
    fn check(d: AttnDims, seed: u64, spread: f32) -> Result<(), String> {
        let n = d.record_len();
        let q: Vec<f32> = salted(seed, n).iter().map(|x| x * spread).collect();
        let (k, v, dctx) = (salted(seed ^ 1, n), salted(seed ^ 2, n), salted(seed ^ 3, n));

        let (want_ctx, want_probs) = reference_forward(d, &q, &k, &v);
        let mut ctx = vec![0.0f32; n];
        let mut probs = vec![0.0f32; d.probs_len()];
        attention_forward(d, &q, &k, &v, &mut ctx, Some(&mut probs));
        prop_assert_eq!(bits(&probs), bits(&want_probs));
        prop_assert_eq!(bits(&ctx), bits(&want_ctx));
        let mut ctx_inference = vec![0.0f32; n];
        attention_forward(d, &q, &k, &v, &mut ctx_inference, None);
        prop_assert_eq!(bits(&ctx_inference), bits(&want_ctx));

        let want = reference_backward(d, &q, &k, &v, &probs, &dctx);
        let mut got = [(); 3].map(|_| vec![0.0f32; n]);
        let [dq, dk, dv] = &mut got;
        attention_backward(d, &q, &k, &v, &probs, &dctx, dq, dk, dv);
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(bits(g), bits(w));
        }
        Ok(())
    }

    #[test]
    fn small_shapes_bitwise_vs_reference() {
        let gen = (bools(), usizes(1..9), usizes(1..14), bools(), u64s(0..u64::MAX));
        prop_check(0xA77E, 64, &gen, |&(four_heads, dh, seq, saturate, seed)| {
            let heads = if four_heads { 4 } else { 1 };
            let d = AttnDims { seq, dim: heads * dh, heads };
            check(d, seed, if saturate { 64.0 } else { 1.0 })
        });
        // Past the generator's range: several MC row blocks with rows not a
        // multiple of MR, band offsets across four heads, and a shared
        // dimension one past a kc block.
        for (heads, dh, seq) in [(1, 8, 127), (4, 8, 128), (1, 1, gemm::KC + 1)] {
            let d = AttnDims { seq, dim: heads * dh, heads };
            check(d, seq as u64, 1.0).unwrap_or_else(|e| panic!("{d:?}: {e}"));
        }
    }

    #[test]
    fn empty_sequence_is_a_no_op() {
        let d = AttnDims { seq: 0, dim: 8, heads: 2 };
        attention_forward(d, &[], &[], &[], &mut [], None);
        attention_backward(d, &[], &[], &[], &[], &[], &mut [], &mut [], &mut []);
    }
}
