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
//! **Routing by shape.** Every product runs the blocked packed GEMM engine
//! ([`crate::ops::gemm`]): transposes are folded into packing as strided
//! [`MatRef`] views, so all four [`MatmulSpec`] combinations take the same
//! path, and large products fan out over the shared
//! [`nautilus_util::pool`] with bit-identical results at any thread width.
//! One shape is the exception: on the safe kernel a **row vector** — fewer
//! than [`gemm::MR`] output rows — times a `B` read along its stored rows
//! (`B` not transposed), with the shared dimension inside one `kc` block,
//! runs [`gemm::gemm_naive`]. That is the single-record dense layer of the
//! serving tier, where the engine would compute a whole `MR`-row register
//! tile to fill one row; against a transposed `B` the naive loop strides
//! and the engine wins again (the `gemm_census` bench group times both at
//! the products the workloads run).
//!
//! **The summation contract.** On a given microkernel every product
//! element is the `k`-ascending chain from `+0.0`, in `kc`-sized partials
//! added in block order. The row-vector arm is that expression: a single
//! partial, `0.0 + chain` is the chain because a chain started at `+0.0`
//! never ends at `-0.0`, and its `a == 0` skip drops `±0` addends, which is
//! bit-neutral for finite operands. The FMA kernel has no such arm — a
//! separate multiply and add can never equal a fused one. Which arm serves
//! a product therefore never changes a bit of it: a record's rows are the
//! same alone or stacked into a batch.
//!
//! Output buffers come from the thread-local [`nautilus_util::scratch`]
//! arena, so the training loop's matmuls stop hitting the allocator once
//! the arena is warm.

use crate::ops::gemm::{self, KernelKind, MatRef};
use crate::{Shape, Tensor, TensorError};
use nautilus_util::{scratch, telemetry};

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

/// General matrix multiplication: `C = op(A) · op(B)` where `op` optionally
/// transposes per [`MatmulSpec`].
///
/// `a` is flattened as `(outer, last)` via [`Tensor::as_matrix`]. The
/// result keeps `a`'s outer axes (plain / `transpose_b`) or is the 2-D
/// `(k, n)` gradient shape (`transpose_a`). Safe-kernel row vectors times
/// an untransposed `b` with a short shared dimension run the naive loop,
/// everything else the blocked packed GEMM engine (parallel when large) —
/// with the same bits either way and at any thread width.
pub fn matmul_ex(a: &Tensor, b: &Tensor, spec: MatmulSpec) -> Result<Tensor, TensorError> {
    let (am, ak, ad) = a.as_matrix();
    let (bm, bn, bd) = b.as_matrix();
    // `op(A)` is `(m, k)` and `op(B)` is `(k, n)`; a transposed operand is
    // a strided view of its stored buffer.
    let (m, k, av) =
        if spec.transpose_a { (ak, am, MatRef::transposed(ad, ak)) } else { (am, ak, MatRef::row_major(ad, ak)) };
    let (bk, n, bv) =
        if spec.transpose_b { (bn, bm, MatRef::transposed(bd, bn)) } else { (bm, bn, MatRef::row_major(bd, bn)) };
    if k != bk {
        return Err(TensorError::Incompatible(format!("matmul {spec:?} shared dims: {k} vs {bk}")));
    }
    let mut out = scratch::take_vec(m * n);
    let kernel = gemm::resolved_kernel();
    if kernel == KernelKind::Safe && m < gemm::MR && k <= gemm::KC && !spec.transpose_b {
        count_dispatch("naive");
        gemm::gemm_naive(m, k, n, av, bv, &mut out);
    } else {
        count_dispatch(kernel.as_str());
        gemm::gemm_with(kernel, m, k, n, av, bv, &mut out);
    }
    let shape: Shape = if spec.transpose_a { [m, n].into() } else { a.shape().with_last_dim(n) };
    Tensor::from_vec(shape, out)
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
/// `B`'s column count. Runs on the blocked GEMM engine.
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

    /// The summation contract, both halves. (1) Within one `KC` block a
    /// row vector's naive loop is the safe engine's float expression, in
    /// both forms the arm serves (`b` untransposed). (2) On either side of
    /// `MR` rows and of one `kc` block, in all four forms — and, under FMA,
    /// at every shape — `matmul_ex` leaves the resolved kernel's engine
    /// bits, whichever arm served it.
    #[test]
    fn naive_equals_blocked_bitwise_vs_reference() {
        use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
        use nautilus_util::prop::{prop_check, u64s, usizes};
        use nautilus_util::prop_assert_eq;
        const FORMS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];
        // The engine's views of `op(A)` = (m, k) and `op(B)` = (k, n) as stored.
        fn views<'a>(ta: bool, tb: bool, x: &'a [f32], y: &'a [f32], (m, k, n): (usize, usize, usize)) -> (MatRef<'a>, MatRef<'a>) {
            (
                if ta { MatRef::transposed(x, m) } else { MatRef::row_major(x, k) },
                if tb { MatRef::transposed(y, k) } else { MatRef::row_major(y, n) },
            )
        }
        let gen = (usizes(1..gemm::MR), usizes(1..41), usizes(0..4), u64s(0..u64::MAX));
        prop_check(0x5C_0417, 48, &gen, |&(m, n, ki, seed)| {
            let k = [1, 7, gemm::KC - 1, gemm::KC][ki];
            let (x, y) = (salted(seed, m * k), salted(seed ^ 0xB, k * n));
            for ta in [false, true] {
                let (ar, br) = views(ta, false, &x, &y, (m, k, n));
                let mut naive = vec![0.0f32; m * n];
                gemm::gemm_naive(m, k, n, ar, br, &mut naive);
                let mut blocked = vec![0.0f32; m * n];
                gemm::gemm_with(KernelKind::Safe, m, k, n, ar, br, &mut blocked);
                prop_assert_eq!(bits(&naive), bits(&blocked));
            }
            Ok(())
        });

        let (kernel, blk) = gemm::kernel_info();
        let gen = (usizes(1..2 * gemm::MR), usizes(1..16), usizes(0..4), u64s(0..u64::MAX));
        prop_check(0x5C_0418, 32, &gen, |&(m, n, ki, seed)| {
            let k = [1, blk.kc, blk.kc + 1, 2 * blk.kc + 1][ki];
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

    /// The engine dispatch (all four transpose combos, past one `MR` tile
    /// of rows) must match the naive reference within relative tolerance —
    /// under the FMA kernel the two differ in rounding.
    #[test]
    fn blocked_dispatch_matches_naive_reference() {
        use crate::init::{randn, seeded_rng};
        let mut rng = seeded_rng(77);
        let (m, k, n) = (96usize, 128usize, 96usize);
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
