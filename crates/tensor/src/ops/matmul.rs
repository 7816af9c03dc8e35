//! Matrix multiplication kernels.
//!
//! The tensor operands are interpreted as matrices via
//! [`Tensor::as_matrix`]: every axis but the innermost is flattened into the
//! row dimension. This matches how dense layers apply to `[batch, seq, dim]`
//! activations.
//!
//! [`matmul_ex`] is the single entry point owning transpose dispatch,
//! kernel selection, and FLOP accounting; [`matmul`]/[`matmul_ta`]/
//! [`matmul_tb`] are thin wrappers over it.
//!
//! **The summation contract.** On a given microkernel every product element
//! is the `k`-ascending chain from `+0.0`, in `kc`-sized partials added in
//! block order. Two physical kernels back [`matmul_ex`] and both satisfy it:
//!
//! * **Blocked packed GEMM** ([`crate::ops::gemm`]): a cache-blocked loop
//!   nest over packed panels with a register microkernel. Transposes are
//!   folded into the packing step, so all four [`MatmulSpec`] combinations
//!   take the same path. Large products fan out over the shared
//!   [`nautilus_util::pool`] with bit-identical results at any thread width.
//! * **Naive sequential loops** (`i-k-j` saxpy and its transposed forms),
//!   which skip the packing traffic. They run only where they are the *same
//!   float expression* as the engine ([`runs_blocked`]): below the kernel's
//!   work threshold **and** with the shared dimension inside one `kc` block
//!   — a single partial, and `0.0 + chain` is the chain because a chain
//!   started at `+0.0` never ends at `-0.0`. The `a == 0` skips drop `±0`
//!   addends from such a chain, which is bit-neutral for finite operands.
//!   The FMA kernel's threshold is 0: a separate multiply and add can never
//!   equal a fused one, so under it every product runs the engine.
//!
//! Which kernel serves a product therefore never changes a bit of it: a
//! record's rows are the same alone or stacked into a batch, and the
//! threshold is a pure performance choice.
//!
//! Output buffers come from the thread-local [`nautilus_util::scratch`]
//! arena, so the training loop's matmuls stop hitting the allocator once
//! the arena is warm.

use crate::ops::gemm::{self, KernelKind, MatRef};
use crate::{Tensor, TensorError};
use nautilus_util::{scratch, telemetry};

/// Multiply-add count at and above which [`matmul_ex`] always runs the
/// blocked packed GEMM engine *on the safe kernel*; below it the naive
/// loops win (where [`runs_blocked`] admits them) because the packing traffic
/// is not amortized. The live crossover is [`gemm_threshold`], which
/// consults the resolved kernel — 0 under FMA. This constant is kept as the
/// documented safe-kernel value (and for callers sizing test workloads
/// against the safe default).
pub const GEMM_THRESHOLD: usize = 1 << 17;

/// The multiply-add crossover the next [`matmul_ex`] call dispatches with:
/// [`gemm::dispatch_threshold`] of the runtime-resolved kernel. Equals
/// [`GEMM_THRESHOLD`] whenever the safe kernel is selected (validated by a
/// unit test so the constant and the table cannot drift apart).
pub fn gemm_threshold() -> usize {
    gemm::dispatch_threshold(gemm::resolved_kernel())
}

/// Whether a product of `work` multiply-adds over shared dimension `k` runs
/// the blocked engine under `kernel`. The naive loops serve the rest: small
/// enough that packing would dominate **and** `k` within one `kc` block,
/// where naive and blocked are the same float expression (see the module
/// docs).
pub(crate) fn runs_blocked(kernel: KernelKind, work: usize, k: usize) -> bool {
    work >= gemm::dispatch_threshold(kernel) || k > gemm::blocking_for(kernel).kc
}

/// Counts one kernel-dispatch decision in the labeled `gemm.kernel{path=}`
/// family (`path` ∈ `naive` | `safe` | `fma` | `int8`), so `/metrics`
/// shows which kernel actually served traffic.
pub fn count_dispatch(path: &str) {
    if telemetry::metrics_enabled() {
        telemetry::counter_with("gemm.kernel", &[("path", path)]).add(1);
    }
}

/// Which operands of [`matmul_ex`] are consumed transposed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatmulSpec {
    /// Treat `a` (stored `(m, k)`) as `aᵀ` `(k, m)`.
    pub transpose_a: bool,
    /// Treat `b` (stored `(k, n)`) as `bᵀ` `(n, k)`.
    pub transpose_b: bool,
}

impl MatmulSpec {
    /// Plain `A · B`.
    pub fn plain() -> Self {
        MatmulSpec::default()
    }

    /// `Aᵀ · B` (parameter gradients: `dW = Xᵀ · dY`).
    pub fn ta() -> Self {
        MatmulSpec { transpose_a: true, transpose_b: false }
    }

    /// `A · Bᵀ` (input gradients: `dX = dY · Wᵀ`).
    pub fn tb() -> Self {
        MatmulSpec { transpose_a: false, transpose_b: true }
    }
}

fn matmul_rows(ad: &[f32], bd: &[f32], out: &mut [f32], k: usize, n: usize) {
    for (arow, orow) in ad.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &bd[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `C[k,n] = Aᵀ · B` where `a` is stored `(m, k)`: scans input rows `i`
/// once, scattering into every output row.
fn matmul_ta_rows(ad: &[f32], bd: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        let arow = &ad[i * k..(i + 1) * k];
        let brow = &bd[i * n..(i + 1) * n];
        for (p, orow) in out.chunks_exact_mut(n).enumerate() {
            let av = arow[p];
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `C[m,k] = A · Bᵀ` where `b` is stored `(k, n)` and `out` arrives zeroed:
/// transposes `b` once into scratch, then runs the saxpy form. Every output
/// element is the ascending-`p` chain `0 + a[i,0]·b[j,0] + a[i,1]·b[j,1] + …`
/// of a plain dot product — hence no zero-skip, which would drop terms from
/// that chain — but the inner loop runs across outputs and vectorizes.
fn matmul_tb_rows(ad: &[f32], bd: &[f32], out: &mut [f32], n: usize, k: usize) {
    let mut bt = scratch::take(n * k);
    for (j, brow) in bd.chunks_exact(n).enumerate() {
        for (p, &bv) in brow.iter().enumerate() {
            bt[p * k + j] = bv;
        }
    }
    for (arow, orow) in ad.chunks_exact(n).zip(out.chunks_exact_mut(k)) {
        for (&av, btrow) in arow.iter().zip(bt.chunks_exact(k)) {
            for (o, &bv) in orow.iter_mut().zip(btrow) {
                *o += av * bv;
            }
        }
    }
}

/// `C[m,n] = Aᵀ · Bᵀ` for `a` stored `(k, m)` and `b` stored `(n, k)`:
/// `Cᵀ = B · A` with the plain kernel, then transposed into `out`.
fn matmul_tt_rows(ad: &[f32], bd: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    let mut c = vec![0.0f32; n * m];
    matmul_rows(bd, ad, &mut c, k, m);
    for (r, crow) in c.chunks_exact(m).enumerate() {
        for (cix, &v) in crow.iter().enumerate() {
            out[cix * n + r] = v;
        }
    }
}

/// General matrix multiplication: `C = op(A) · op(B)` where `op` optionally
/// transposes per [`MatmulSpec`].
///
/// `a` is flattened as `(outer, last)` via [`Tensor::as_matrix`]. The
/// result keeps `a`'s outer axes (plain / `transpose_b`) or is the 2-D
/// `(k, n)` gradient shape (`transpose_a`). Small products with a short
/// shared dimension run the naive loops, everything else the blocked packed
/// GEMM engine (parallel when large) — with the same bits either way and
/// at any thread width.
pub fn matmul_ex(a: &Tensor, b: &Tensor, spec: MatmulSpec) -> Result<Tensor, TensorError> {
    let kernel = gemm::resolved_kernel();
    match (spec.transpose_a, spec.transpose_b) {
        (false, false) => {
            let (m, k, ad) = a.as_matrix();
            let (bk, n, bd) = b.as_matrix();
            if k != bk {
                return Err(TensorError::Incompatible(format!(
                    "matmul inner dims: {} vs {}",
                    k, bk
                )));
            }
            let mut out = scratch::take_vec(m * n);
            if runs_blocked(kernel, m * k * n, k) {
                count_dispatch(kernel.as_str());
                gemm::gemm_with(kernel, m, k, n, MatRef::row_major(ad, k), MatRef::row_major(bd, n), &mut out);
            } else {
                count_dispatch("naive");
                matmul_rows(ad, bd, &mut out, k, n);
            }
            Tensor::from_vec(a.shape().with_last_dim(n), out)
        }
        (true, false) => {
            let (m, k, ad) = a.as_matrix();
            let (bm, n, bd) = b.as_matrix();
            if m != bm {
                return Err(TensorError::Incompatible(format!(
                    "matmul_ta outer dims: {} vs {}",
                    m, bm
                )));
            }
            let mut out = scratch::take_vec(k * n);
            // The shared dimension of `aᵀ · b` is `m`, the stored row count.
            if runs_blocked(kernel, m * k * n, m) {
                count_dispatch(kernel.as_str());
                // Effective A' = aᵀ: (k, m) view over the (m, k) buffer.
                gemm::gemm_with(kernel, k, m, n, MatRef::transposed(ad, k), MatRef::row_major(bd, n), &mut out);
            } else {
                count_dispatch("naive");
                matmul_ta_rows(ad, bd, &mut out, m, k, n);
            }
            Tensor::from_vec([k, n], out)
        }
        (false, true) => {
            let (m, n, ad) = a.as_matrix();
            let (k, bn, bd) = b.as_matrix();
            if n != bn {
                return Err(TensorError::Incompatible(format!(
                    "matmul_tb inner dims: {} vs {}",
                    n, bn
                )));
            }
            let mut out = scratch::take_vec(m * k);
            // Here the shared dimension is `n`, the operands' common width.
            if runs_blocked(kernel, m * k * n, n) {
                count_dispatch(kernel.as_str());
                // Effective B' = bᵀ: (n, k) buffer read as (n → k, cols).
                gemm::gemm_with(kernel, m, n, k, MatRef::row_major(ad, n), MatRef::transposed(bd, n), &mut out);
            } else {
                count_dispatch("naive");
                matmul_tb_rows(ad, bd, &mut out, n, k);
            }
            Tensor::from_vec(a.shape().with_last_dim(k), out)
        }
        (true, true) => {
            let (am, ak, ad) = a.as_matrix();
            let (bm, bn, bd) = b.as_matrix();
            if am != bn {
                return Err(TensorError::Incompatible(format!(
                    "matmul aᵀ·bᵀ dims: {} vs {}",
                    am, bn
                )));
            }
            let (m, k, n) = (ak, am, bm);
            let mut out = scratch::take_vec(m * n);
            if runs_blocked(kernel, m * k * n, k) {
                count_dispatch(kernel.as_str());
                gemm::gemm_with(
                    kernel,
                    m,
                    k,
                    n,
                    MatRef::transposed(ad, ak),
                    MatRef::transposed(bd, bn),
                    &mut out,
                );
            } else {
                count_dispatch("naive");
                matmul_tt_rows(ad, bd, &mut out, m, k, n);
            }
            Tensor::from_vec([m, n], out)
        }
    }
}

/// FLOPs performed by a [`matmul_ex`] call with these operands.
///
/// Counts the mathematical multiply-adds only — identical for the naive
/// and blocked kernels; panel packing is memory traffic, not FLOPs.
pub fn matmul_ex_flops(a: &Tensor, b: &Tensor, spec: MatmulSpec) -> u64 {
    let (am, ak, _) = a.as_matrix();
    let (bk, bn, _) = b.as_matrix();
    let (m, k) = if spec.transpose_a { (ak, am) } else { (am, ak) };
    let n = if spec.transpose_b { bk } else { bn };
    matmul_flops(m, k, n)
}

/// `C[m,n] = A[m,k] · B[k,n]`, with `A` flattened as `(outer, last)`.
///
/// The result keeps `A`'s outer axes and replaces the innermost axis with
/// `B`'s column count. Large products run on the blocked GEMM engine.
#[inline]
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_ex(a, b, MatmulSpec::plain())
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` where `A` is `(m, k)` — i.e. `A` transposed.
///
/// Used for parameter gradients: `dW = Xᵀ · dY`.
#[inline]
pub fn matmul_ta(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_ex(a, b, MatmulSpec::ta())
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` where `B` is `(k, n)` — i.e. `B` transposed.
///
/// Used for input gradients: `dX = dY · Wᵀ`.
#[inline]
pub fn matmul_tb(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    matmul_ex(a, b, MatmulSpec::tb())
}

/// FLOPs for a mat-mul of `(m, k) · (k, n)`: one multiply and one add per
/// inner-product term.
pub fn matmul_flops(m: usize, k: usize, n: usize) -> u64 {
    2 * m as u64 * k as u64 * n as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], v: &[f32]) -> Tensor {
        Tensor::from_vec(shape.to_vec(), v.to_vec()).unwrap()
    }

    /// The dot-product form `matmul_tb_rows` replaced: one serial chain per
    /// output element.
    fn matmul_tb_rows_dot(ad: &[f32], bd: &[f32], out: &mut [f32], n: usize, k: usize) {
        for (arow, orow) in ad.chunks_exact(n).zip(out.chunks_exact_mut(k)) {
            for (p, o) in orow.iter_mut().enumerate() {
                let brow = &bd[p * n..(p + 1) * n];
                let mut acc = 0.0f32;
                for (&av, &bv) in arow.iter().zip(brow.iter()) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }
    }

    /// Transpose-once saxpy vs the dot form over random shapes and salted
    /// operands.
    #[test]
    fn matmul_tb_rows_bitwise_vs_reference() {
        use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
        use nautilus_util::prop::{prop_check, u64s, usizes};
        use nautilus_util::prop_assert_eq;
        let gen = (usizes(1..40), usizes(1..40), usizes(1..40), u64s(0..u64::MAX));
        prop_check(0x7B07, 96, &gen, |&(m, n, k, seed)| {
            let (ad, bd) = (salted(seed, m * n), salted(seed ^ 0xB, k * n));
            let mut want = vec![0.0f32; m * k];
            matmul_tb_rows_dot(&ad, &bd, &mut want, n, k);
            let mut got = vec![0.0f32; m * k];
            matmul_tb_rows(&ad, &bd, &mut got, n, k);
            prop_assert_eq!(bits(&got), bits(&want));
            Ok(())
        });
    }

    /// The summation contract, both halves. (1) Within one `KC` block the
    /// naive row loops are the safe engine's float expression, for all
    /// four transpose forms. (2) Past one `kc` block — and, under FMA, at
    /// every `k` — `matmul_ex` is served by the resolved kernel's engine
    /// however small the product.
    #[test]
    fn naive_equals_blocked_bitwise_vs_reference() {
        use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
        use nautilus_util::prop::{prop_check, u64s, usizes};
        use nautilus_util::{prop_assert, prop_assert_eq};
        const FORMS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];
        // The engine's views of `op(A)` = (m, k) and `op(B)` = (k, n) as stored.
        fn views<'a>(ta: bool, tb: bool, x: &'a [f32], y: &'a [f32], (m, k, n): (usize, usize, usize)) -> (MatRef<'a>, MatRef<'a>) {
            (
                if ta { MatRef::transposed(x, m) } else { MatRef::row_major(x, k) },
                if tb { MatRef::transposed(y, k) } else { MatRef::row_major(y, n) },
            )
        }
        let gen = (usizes(1..41), usizes(1..41), usizes(0..4), u64s(0..u64::MAX));
        prop_check(0x5C_0417, 48, &gen, |&(m, n, ki, seed)| {
            let k = [1, 7, gemm::KC - 1, gemm::KC][ki];
            let (x, y) = (salted(seed, m * k), salted(seed ^ 0xB, k * n));
            for (ta, tb) in FORMS {
                let mut naive = vec![0.0f32; m * n];
                match (ta, tb) {
                    (false, false) => matmul_rows(&x, &y, &mut naive, k, n),
                    (true, false) => matmul_ta_rows(&x, &y, &mut naive, k, m, n),
                    (false, true) => matmul_tb_rows(&x, &y, &mut naive, k, n),
                    (true, true) => matmul_tt_rows(&x, &y, &mut naive, m, k, n),
                }
                let (ar, br) = views(ta, tb, &x, &y, (m, k, n));
                let mut blocked = vec![0.0f32; m * n];
                gemm::gemm_with(KernelKind::Safe, m, k, n, ar, br, &mut blocked);
                prop_assert_eq!(bits(&naive), bits(&blocked));
            }
            Ok(())
        });

        let (kernel, blk) = gemm::kernel_info();
        let gen = (usizes(1..16), usizes(1..16), usizes(0..4), u64s(0..u64::MAX));
        prop_check(0x5C_0418, 32, &gen, |&(m, n, ki, seed)| {
            let k = [1, 7, blk.kc + 2, 2 * blk.kc + 1][ki];
            let work = m * k * n;
            prop_assert!(kernel != KernelKind::Safe || work < GEMM_THRESHOLD, "sizing: below the work threshold");
            prop_assert_eq!(runs_blocked(kernel, work, k), kernel == KernelKind::Fma || k > blk.kc);
            let (x, y) = (salted(seed, m * k), salted(seed ^ 0xB, k * n));
            for (ta, tb) in FORMS {
                let a = Tensor::from_vec(if ta { [k, m] } else { [m, k] }, x.clone()).unwrap();
                let b = Tensor::from_vec(if tb { [n, k] } else { [k, n] }, y.clone()).unwrap();
                let got = matmul_ex(&a, &b, MatmulSpec { transpose_a: ta, transpose_b: tb }).unwrap();
                let (ar, br) = views(ta, tb, &x, &y, (m, k, n));
                let mut want = vec![0.0f32; m * n];
                gemm::gemm_with(kernel, m, k, n, ar, br, &mut want);
                prop_assert_eq!(bits(got.data()), bits(&want));
            }
            Ok(())
        });
    }

    #[test]
    fn matmul_2x2_hand_checked() {
        let a = t(&[2, 2], &[1.0, 2.0, 3.0, 4.0]);
        let b = t(&[2, 2], &[5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_keeps_outer_axes() {
        let a = Tensor::ones([2, 3, 4]);
        let b = Tensor::ones([4, 5]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape().0, vec![2, 3, 5]);
        assert!(c.data().iter().all(|&x| x == 4.0));
    }

    #[test]
    fn matmul_rejects_bad_inner_dim() {
        let a = Tensor::ones([2, 3]);
        let b = Tensor::ones([4, 5]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = t(&[2, 4], &[1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 1.0, 3.0]);
        // matmul_ta(a, b) == aT . b, shapes (3,2)·(2,4) = (3,4)
        let at = t(&[3, 2], &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        assert_eq!(matmul_ta(&a, &b).unwrap(), matmul(&at, &b).unwrap());

        // matmul_tb(x, w) == x . wT with w (k,n): shapes (2,3)·(3,4)... build w (4,3)
        let x = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let w = t(&[4, 3], &[1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0, 3.0, 1.0, 1.0, 1.0, 1.0]);
        let wt = t(&[3, 4], &[1.0, 2.0, 0.0, 1.0, 0.0, 1.0, 3.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        assert_eq!(matmul_tb(&x, &w).unwrap(), matmul(&x, &wt).unwrap());
    }

    #[test]
    fn matmul_ex_both_transposed() {
        // (aT · bT) == (b · a)T, checked against explicit transposes.
        let a = t(&[2, 3], &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = t(&[3, 2], &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        let b = t(&[4, 2], &[1.0, 0.0, 2.0, 1.0, 0.0, 1.0, 1.0, 3.0]);
        let bt = t(&[2, 4], &[1.0, 2.0, 0.0, 1.0, 0.0, 1.0, 1.0, 3.0]);
        let got = matmul_ex(&a, &b, MatmulSpec { transpose_a: true, transpose_b: true }).unwrap();
        assert_eq!(got, matmul(&at, &bt).unwrap());
    }

    /// The documented safe-kernel constant and the live dispatch table
    /// must agree — so `gemm_threshold()` never silently drifts from what
    /// callers sized their workloads against — and the FMA kernel must have
    /// no naive arm at all.
    #[test]
    fn threshold_table_matches_legacy_constant_for_safe() {
        assert_eq!(gemm::dispatch_threshold(gemm::KernelKind::Safe), GEMM_THRESHOLD);
        assert_eq!(gemm::dispatch_threshold(gemm::KernelKind::Fma), 0);
        let live = gemm_threshold();
        let (kind, _) = gemm::kernel_info();
        assert_eq!(live, gemm::dispatch_threshold(kind));
    }

    #[test]
    fn flops_formula() {
        assert_eq!(matmul_flops(2, 3, 4), 48);
    }

    #[test]
    fn spec_flops_account_effective_dims() {
        let a = Tensor::ones([8, 3]);
        let b = Tensor::ones([8, 5]);
        // aT(3,8) · b(8,5): m=3, k=8, n=5.
        assert_eq!(matmul_ex_flops(&a, &b, MatmulSpec::ta()), matmul_flops(3, 8, 5));
        let x = Tensor::ones([2, 3]);
        let w = Tensor::ones([4, 3]);
        // x(2,3) · wT(3,4): m=2, k=3, n=4.
        assert_eq!(matmul_ex_flops(&x, &w, MatmulSpec::tb()), matmul_flops(2, 3, 4));
        assert_eq!(
            matmul_ex_flops(&Tensor::ones([2, 3]), &Tensor::ones([3, 4]), MatmulSpec::plain()),
            matmul_flops(2, 3, 4)
        );
    }

    /// The blocked dispatch (all four transpose combos, sizes past
    /// `GEMM_THRESHOLD`) must match the naive reference within relative
    /// tolerance — under the FMA kernel the two differ in rounding.
    #[test]
    fn blocked_dispatch_matches_naive_reference() {
        use crate::init::{randn, seeded_rng};
        let mut rng = seeded_rng(77);
        let (m, k, n) = (96usize, 128usize, 96usize); // 1.2M mult-adds > threshold
        assert!(m * k * n >= GEMM_THRESHOLD);
        for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
            let a_dims = if ta { [k, m] } else { [m, k] };
            let b_dims = if tb { [n, k] } else { [k, n] };
            let a = randn(a_dims, 1.0, &mut rng);
            let b = randn(b_dims, 1.0, &mut rng);
            let got = matmul_ex(&a, &b, MatmulSpec { transpose_a: ta, transpose_b: tb }).unwrap();
            // Naive reference in the same effective orientation.
            let mut want = vec![0.0f32; m * n];
            let ar = if ta {
                crate::ops::gemm::MatRef::transposed(a.data(), m)
            } else {
                crate::ops::gemm::MatRef::row_major(a.data(), k)
            };
            let br = if tb {
                crate::ops::gemm::MatRef::transposed(b.data(), k)
            } else {
                crate::ops::gemm::MatRef::row_major(b.data(), n)
            };
            crate::ops::gemm::gemm_naive(m, k, n, ar, br, &mut want);
            for (i, (&x, &y)) in got.data().iter().zip(want.iter()).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())),
                    "combo ({ta},{tb})[{i}]: blocked {x} vs naive {y}"
                );
            }
        }
    }

    #[test]
    fn pooled_results_identical_across_thread_limits() {
        use crate::init::{randn, seeded_rng};
        use nautilus_util::pool::with_parallelism_limit;
        let mut rng = seeded_rng(99);
        let a = randn([256, 128], 1.0, &mut rng);
        let b = randn([128, 256], 1.0, &mut rng);
        let reference = with_parallelism_limit(1, || matmul(&a, &b).unwrap());
        for limit in [2usize, 8] {
            let got = with_parallelism_limit(limit, || matmul(&a, &b).unwrap());
            assert_eq!(got, reference, "limit {limit} diverged");
        }
    }

    /// Once the scratch arena is warm, matmul output buffers stop hitting
    /// the allocator: dropping the previous result recycles its storage
    /// into the arena and the next call takes it back out.
    #[test]
    fn matmul_outputs_recycle_through_scratch() {
        use crate::init::{randn, seeded_rng};
        let mut rng = seeded_rng(5);
        let a = randn([64, 64], 1.0, &mut rng);
        let b = randn([64, 64], 1.0, &mut rng);
        let _ = matmul(&a, &b).unwrap(); // warm: result dropped, buffer recycled
        let (h0, _) = nautilus_util::scratch::thread_stats();
        for _ in 0..4 {
            let _ = matmul(&a, &b).unwrap();
        }
        let (h1, _) = nautilus_util::scratch::thread_stats();
        assert!(h1 - h0 >= 4, "warm-loop matmuls must reuse recycled buffers");
    }
}
