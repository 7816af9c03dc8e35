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
//! element the same float operations run in the same order. The five
//! products of a head all have `s·dh·s` multiply-adds and shared dimension
//! `s` or `dh`, so one [`runs_blocked`] decision picks, for all of them, what
//! `matmul_ex` would have picked for each: the naive loops — saxpy *with*
//! the `a == 0` skip where the composition ran `matmul`/`matmul_ta`,
//! *without* it where it ran `matmul_tb` — or the blocked engine over
//! strided [`MatRef`] views (packing reads the same values it read from the
//! copies). Under the summation contract (see [`crate::ops::matmul`]) the
//! naive arm runs only where it is the engine's float expression, so which
//! one serves a head never changes a bit. Softmax and its gradient are the
//! row bodies of [`crate::ops::nn`]. The composition survives as the
//! `#[cfg(test)]` reference below.
//!
//! One call covers one record; callers fan records out over the pool.

use crate::ops::gemm::{self, KernelKind, MatRef};
use crate::ops::matmul::{count_dispatch, runs_blocked};
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

    /// The kernel every product of a head runs on: `Some(kind)` for the
    /// blocked engine, `None` for the naive loops — the rule of `matmul_ex`.
    /// Counts `products` routing decisions per head, as `matmul_ex` would.
    fn route(&self, products: usize) -> Option<KernelKind> {
        let kernel = gemm::resolved_kernel();
        let (s, dh) = (self.seq, self.head_dim());
        let blocked = runs_blocked(kernel, s * dh * s, s.max(dh)).then_some(kernel);
        for _ in 0..products * self.heads {
            count_dispatch(blocked.map_or("naive", KernelKind::as_str));
        }
        blocked
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

/// Writes the `[S, dh]` band at `off` transposed into `t` as `[dh, S]`.
fn transpose_band(x: &[f32], off: usize, dim: usize, dh: usize, t: &mut [f32]) {
    let s = t.len() / dh;
    for (j, row) in x.chunks_exact(dim).enumerate() {
        for (p, &v) in row[off..off + dh].iter().enumerate() {
            t[p * s + j] = v;
        }
    }
}

/// `out[S, S] = A · Bᵀ` for two `[S, dh]` bands, `out` zeroed on entry, with
/// `bt` the second band already transposed: the `matmul_tb` naive form.
fn band_tb(a: &[f32], off: usize, dim: usize, bt: &[f32], out: &mut [f32]) {
    let s = out.len() / (a.len() / dim);
    for (arow, orow) in a.chunks_exact(dim).zip(out.chunks_exact_mut(s)) {
        for (&av, btrow) in arow[off..].iter().zip(bt.chunks_exact(s)) {
            for (o, &bv) in orow.iter_mut().zip(btrow) {
                *o += av * bv;
            }
        }
    }
}

/// `dst band += A[S, S] · src band`: the `matmul` naive form (zero-skip).
fn band_mm(a: &[f32], src: &[f32], dst: &mut [f32], off: usize, dim: usize, dh: usize) {
    let s = src.len() / dim;
    for (arow, drow) in a.chunks_exact(s).zip(dst.chunks_exact_mut(dim)) {
        let drow = &mut drow[off..off + dh];
        for (&av, srow) in arow.iter().zip(src.chunks_exact(dim)) {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in drow.iter_mut().zip(&srow[off..off + dh]) {
                *o += av * bv;
            }
        }
    }
}

/// `dst band += Aᵀ · src band` for `a` stored `[S, S]`: the `matmul_ta`
/// naive form (input rows scanned once, zero-skip, scatter into `dst` rows).
fn band_mm_ta(a: &[f32], src: &[f32], dst: &mut [f32], off: usize, dim: usize, dh: usize) {
    let s = src.len() / dim;
    for (arow, srow) in a.chunks_exact(s).zip(src.chunks_exact(dim)) {
        let srow = &srow[off..off + dh];
        for (&av, drow) in arow.iter().zip(dst.chunks_exact_mut(dim)) {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in drow[off..off + dh].iter_mut().zip(srow) {
                *o += av * bv;
            }
        }
    }
}

/// Rewrites the band at `off` as `0.0 + x·scale`: what `scale` followed by
/// accumulation into a zeroed tensor leaves (a product that underflows to
/// `-0.0` lands as `+0.0`).
fn scale_band(dst: &mut [f32], off: usize, dim: usize, dh: usize, scale: f32) {
    for row in dst.chunks_exact_mut(dim) {
        for o in &mut row[off..off + dh] {
            *o = 0.0 + *o * scale;
        }
    }
}

/// Stores a contiguous `[S, dh]` product into the band at `off` as
/// `0.0 + x·scale` (see [`scale_band`]; `scale` 1.0 leaves `0.0 + x`).
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
    forward_on(dims.route(2), dims, q, k, v, ctx, probs);
}

/// [`attention_forward`] on a given arm: `Some(kernel)` the blocked engine,
/// `None` the naive loops.
fn forward_on(
    blocked: Option<KernelKind>,
    dims: AttnDims,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    ctx: &mut [f32],
    probs: Option<&mut [f32]>,
) {
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
        match blocked {
            Some(kernel) => {
                gemm::gemm_with(kernel, s, dh, s, band(q, off, dim), band_t(k, off, dim), attn);
            }
            None => {
                transpose_band(k, off, dim, dh, &mut tmp);
                band_tb(q, off, dim, &tmp, attn);
            }
        }
        for row in attn.chunks_exact_mut(s) {
            row.iter_mut().for_each(|x| *x *= scale);
            softmax_row(row);
        }
        match blocked {
            Some(kernel) => {
                tmp.fill(0.0);
                gemm::gemm_with(kernel, s, s, dh, MatRef::row_major(attn, s), band(v, off, dim), &mut tmp);
                store_band(&tmp, ctx, off, dim, dh, 1.0);
            }
            None => {
                // The chain starts at +0.0 and so never ends at -0.0: the
                // composition's `0.0 + x` on top of it changes nothing.
                band_mm(attn, v, ctx, off, dim, dh);
            }
        }
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
    backward_on(dims.route(4), dims, q, k, v, probs, dctx, dq, dk, dv);
}

/// [`attention_backward`] on a given arm (see [`forward_on`]).
#[allow(clippy::too_many_arguments)]
fn backward_on(
    blocked: Option<KernelKind>,
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
        match blocked {
            Some(kernel) => {
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
            None => {
                transpose_band(v, off, dim, dh, &mut tmp);
                band_tb(dctx, off, dim, &tmp, &mut dscores);
                band_mm_ta(attn, dctx, dv, off, dim, dh);
                for (yr, gr) in attn.chunks_exact(s).zip(dscores.chunks_exact_mut(s)) {
                    softmax_backward_row(yr, gr);
                }
                band_mm(&dscores, k, dq, off, dim, dh);
                scale_band(dq, off, dim, dh, scale);
                band_mm_ta(&dscores, q, dk, off, dim, dh);
                scale_band(dk, off, dim, dh, scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul::GEMM_THRESHOLD;
    use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
    use crate::ops::{matmul, matmul_ta, matmul_tb, scale, softmax_last, softmax_last_backward};
    use crate::Tensor;
    use nautilus_util::pool::with_parallelism_limit;
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
    }

    /// `s·dh·s` one step below and at the safe kernel's work threshold, so
    /// both arms are compared with the composition at every pool width.
    /// Under FMA there is no naive arm and both sizes run the engine.
    #[test]
    fn threshold_straddle_bitwise_vs_reference() {
        let dh = 8usize;
        let at = (1..).find(|s| s * dh * s >= GEMM_THRESHOLD).unwrap();
        let safe = gemm::resolved_kernel() == KernelKind::Safe;
        for (heads, seq) in [(1, at - 1), (1, at), (4, at - 1), (4, at)] {
            let d = AttnDims { seq, dim: heads * dh, heads };
            assert_eq!(d.route(0).is_none(), safe && seq < at, "straddle sizing");
            for limit in [1usize, 2, 8] {
                with_parallelism_limit(limit, || check(d, 0x5EED + seq as u64, 1.0))
                    .unwrap_or_else(|e| panic!("heads {heads} seq {seq} limit {limit}: {e}"));
            }
        }
    }

    /// The summation contract for attention: with `seq` and `dh` inside one
    /// `KC` block the naive arm and the safe engine arm leave the same bits
    /// in every output, forward and backward — so which of them `route`
    /// picks is a performance choice. `route` itself admits the naive arm
    /// only there, and never under FMA.
    #[test]
    fn naive_arm_equals_engine_arm_bitwise_vs_reference() {
        let arms_agree = |heads: usize, dh: usize, seq: usize, saturate: bool, seed: u64| {
            let d = AttnDims { seq, dim: heads * dh, heads };
            let n = d.record_len();
            let spread = if saturate { 64.0 } else { 1.0 };
            let q: Vec<f32> = salted(seed, n).iter().map(|x| x * spread).collect();
            let (k, v, dctx) = (salted(seed ^ 1, n), salted(seed ^ 2, n), salted(seed ^ 3, n));
            let run = |arm: Option<KernelKind>| {
                let mut ctx = vec![0.0f32; n];
                let mut probs = vec![0.0f32; d.probs_len()];
                forward_on(arm, d, &q, &k, &v, &mut ctx, Some(&mut probs));
                let mut grads = [(); 3].map(|_| vec![0.0f32; n]);
                let [dq, dk, dv] = &mut grads;
                backward_on(arm, d, &q, &k, &v, &probs, &dctx, dq, dk, dv);
                let [dq, dk, dv] = grads;
                [ctx, probs, dq, dk, dv].map(|x| bits(&x))
            };
            prop_assert_eq!(run(None), run(Some(KernelKind::Safe)));
            Ok(())
        };
        let gen = (bools(), usizes(1..41), usizes(1..41), bools(), u64s(0..u64::MAX));
        prop_check(0xA77F, 32, &gen, |&(four_heads, dh, seq, saturate, seed)| {
            arms_agree(if four_heads { 4 } else { 1 }, dh, seq, saturate, seed)
        });
        // The last shared dimensions the naive arm is admitted at.
        for (heads, dh, seq) in [(1, 8, gemm::KC - 1), (4, 3, gemm::KC), (1, gemm::KC, 9)] {
            arms_agree(heads, dh, seq, seq % 2 == 0, 0xA77F).unwrap_or_else(|e: String| panic!("{e}"));
        }

        let (kernel, blk) = gemm::kernel_info();
        for (seq, dh) in [(1, 1), (12, 8), (blk.kc, 8), (blk.kc + 1, 1), (8, blk.kc + 1), (400, 64)] {
            let d = AttnDims { seq, dim: dh, heads: 1 };
            let naive = kernel == KernelKind::Safe
                && seq * dh * seq < GEMM_THRESHOLD
                && seq.max(dh) <= blk.kc;
            assert_eq!(d.route(0).is_none(), naive, "{kernel:?} seq {seq} dh {dh}");
        }
    }

    #[test]
    fn empty_sequence_is_a_no_op() {
        let d = AttnDims { seq: 0, dim: 8, heads: 2 };
        attention_forward(d, &[], &[], &[], &mut [], None);
        attention_backward(d, &[], &[], &[], &[], &[], &mut [], &mut [], &mut []);
    }
}
