//! Differential and determinism properties of the blocked GEMM engine.
//!
//! Two families of properties, per ISSUE 4's acceptance criteria:
//!
//! * **Accuracy** — the cache-blocked packed kernel re-associates the
//!   k-summation (KC-sized register-resident partials), so it is allowed to
//!   differ from the naive triple loop only by rounding: every element must
//!   match within `1e-4` relative tolerance, across random shapes and all
//!   four transpose combinations. The same contract holds between im2col
//!   and direct convolution (forward and backward).
//! * **Determinism** — within one strategy, results are *bit-identical* at
//!   every parallelism level (`with_parallelism_limit` 1/2/8), because the
//!   pool only ever partitions output rows on MC-aligned boundaries and each
//!   element is accumulated k-ascending by exactly one task.
//! * **Kernel differential** (ISSUE 9) — on hosts with AVX2+FMA, the
//!   explicit-FMA microkernel must agree with the safe kernel within the
//!   same `1e-4` relative tolerance on every shape/transpose case, and be
//!   bit-identical across pool widths 1/2/8 (same blocking ⇒ same partial
//!   sums per element regardless of how rows are partitioned).
//!
//! `gemm::gemm` itself resolves its kernel from `NAUTILUS_GEMM_KERNEL`, so
//! `verify.sh` runs this whole binary once per kernel path; the explicit
//! `gemm_with` differential below runs whenever the CPU supports FMA, no
//! matter the env.
//!
//! Everything lives in one `#[test]` so `NAUTILUS_THREADS` is set exactly
//! once, before the pool's first use, in a binary no other test shares.

use nautilus_tensor::ops::conv::{conv2d, conv2d_backward, conv2d_backward_direct, conv2d_direct};
use nautilus_tensor::ops::gemm::{self, MatRef};
use nautilus_tensor::Tensor;
use nautilus_util::pool;
use nautilus_util::prop::{prop_check, Gen};
use nautilus_util::prop_assert;
use nautilus_util::rng::{Rng, SeedableRng, StdRng};

const REL_TOL: f32 = 1e-4;

fn filled_vec(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

fn filled(rng: &mut StdRng, dims: &[usize]) -> Tensor {
    let data = filled_vec(rng, dims.iter().product());
    Tensor::from_vec(dims.to_vec(), data).unwrap()
}

/// Element-wise relative comparison with an absolute floor of 1.0, so tiny
/// sums near cancellation do not demand impossible precision.
fn assert_close(a: &[f32], b: &[f32], what: &str, ctx: &str) -> Result<(), String> {
    prop_assert!(a.len() == b.len(), "{what} length mismatch for {ctx}");
    for (i, (&x, &y)) in a.iter().zip(b.iter()).enumerate() {
        let scale = 1.0f32.max(x.abs()).max(y.abs());
        prop_assert!(
            (x - y).abs() <= REL_TOL * scale,
            "{what}[{i}] diverged past tolerance: {x} vs {y} for {ctx}"
        );
    }
    Ok(())
}

/// Random GEMM shapes with transpose flags. Roughly a quarter of cases are
/// sized past the parallel-dispatch threshold (`m*k*n >= 2^22`) so the
/// pooled blocked path genuinely runs; the rest stay small and awkward
/// (non-multiples of MR/NR/KC) for edge coverage.
#[derive(Clone, Debug)]
struct GemmCase {
    m: usize,
    k: usize,
    n: usize,
    ta: bool,
    tb: bool,
    seed: u64,
}

struct GemmGen;

impl Gen for GemmGen {
    type Value = GemmCase;
    fn generate(&self, rng: &mut StdRng) -> GemmCase {
        let large = rng.gen_range(0u32..4) == 0;
        let (m, k, n) = if large {
            (rng.gen_range(64usize..80), rng.gen_range(256usize..300), rng.gen_range(256usize..300))
        } else {
            (rng.gen_range(1usize..48), rng.gen_range(1usize..300), rng.gen_range(1usize..48))
        };
        GemmCase { m, k, n, ta: rng.gen_bool(0.5), tb: rng.gen_bool(0.5), seed: rng.gen_range(0u64..1 << 32) }
    }
    fn shrink(&self, c: &GemmCase) -> Vec<GemmCase> {
        let mut out = Vec::new();
        for f in [
            |c: &mut GemmCase| c.m /= 2,
            |c: &mut GemmCase| c.k /= 2,
            |c: &mut GemmCase| c.n /= 2,
        ] {
            let mut s = c.clone();
            f(&mut s);
            if s.m > 0 && s.k > 0 && s.n > 0 {
                out.push(s);
            }
        }
        out
    }
}

/// Blocked vs naive within tolerance, and blocked bit-identical across
/// thread limits, for one random shape/transpose combo.
fn check_gemm(c: &GemmCase) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(c.seed);
    // Storage shapes honour the transpose flags; views fold them back.
    let a = filled_vec(&mut rng, c.m * c.k);
    let b = filled_vec(&mut rng, c.k * c.n);
    let aref = if c.ta { MatRef::transposed(&a, c.m) } else { MatRef::row_major(&a, c.k) };
    let bref = if c.tb { MatRef::transposed(&b, c.k) } else { MatRef::row_major(&b, c.n) };

    let mut naive = vec![0.0f32; c.m * c.n];
    gemm::gemm_naive(c.m, c.k, c.n, aref, bref, &mut naive);

    let reference = pool::with_parallelism_limit(1, || {
        let mut out = vec![0.0f32; c.m * c.n];
        gemm::gemm(c.m, c.k, c.n, aref, bref, &mut out);
        out
    });
    assert_close(&reference, &naive, "gemm", &format!("{c:?}"))?;

    for limit in [2usize, 8] {
        let got = pool::with_parallelism_limit(limit, || {
            let mut out = vec![0.0f32; c.m * c.n];
            gemm::gemm(c.m, c.k, c.n, aref, bref, &mut out);
            out
        });
        prop_assert!(reference == got, "gemm bits diverged at limit {limit} for {c:?}");
    }

    // FMA-vs-safe differential, independent of NAUTILUS_GEMM_KERNEL: the
    // explicit microkernel fuses the multiply-add (one rounding instead of
    // two) and runs under auto-tuned blocking, so it may drift from the
    // safe kernel only within rounding tolerance — while staying
    // bit-identical to itself at every pool width.
    if gemm::fma_supported() {
        let safe = pool::with_parallelism_limit(1, || {
            let mut out = vec![0.0f32; c.m * c.n];
            gemm::gemm_with(gemm::KernelKind::Safe, c.m, c.k, c.n, aref, bref, &mut out);
            out
        });
        // The default-resolved gemm above must be exactly one of the two
        // explicit kernels (whichever NAUTILUS_GEMM_KERNEL picked).
        if gemm::resolved_kernel() == gemm::KernelKind::Safe {
            prop_assert!(safe == reference, "explicit Safe != default-resolved gemm for {c:?}");
        }
        let fma = pool::with_parallelism_limit(1, || {
            let mut out = vec![0.0f32; c.m * c.n];
            gemm::gemm_with(gemm::KernelKind::Fma, c.m, c.k, c.n, aref, bref, &mut out);
            out
        });
        assert_close(&fma, &safe, "gemm[fma-vs-safe]", &format!("{c:?}"))?;
        for limit in [2usize, 8] {
            let got = pool::with_parallelism_limit(limit, || {
                let mut out = vec![0.0f32; c.m * c.n];
                gemm::gemm_with(gemm::KernelKind::Fma, c.m, c.k, c.n, aref, bref, &mut out);
                out
            });
            prop_assert!(fma == got, "fma gemm bits diverged at limit {limit} for {c:?}");
        }
    }
    Ok(())
}

/// Random conv shapes, a quarter of them large: the lowering `conv2d` always
/// runs against the direct reference loops.
#[derive(Clone, Debug)]
struct ConvCase {
    b: usize,
    c_in: usize,
    c_out: usize,
    hw: usize,
    k: usize,
    stride: usize,
    pad: usize,
    seed: u64,
}

struct ConvGen;

impl Gen for ConvGen {
    type Value = ConvCase;
    fn generate(&self, rng: &mut StdRng) -> ConvCase {
        let large = rng.gen_range(0u32..4) == 0;
        let (b, c_in, c_out, hw) = if large {
            (rng.gen_range(2usize..5), 8, 8, rng.gen_range(12usize..16))
        } else {
            (
                rng.gen_range(1usize..3),
                rng.gen_range(1usize..6),
                rng.gen_range(1usize..6),
                rng.gen_range(3usize..10),
            )
        };
        let k = (*[1usize, 3, 5].get(rng.gen_range(0usize..3)).unwrap()).min(hw);
        ConvCase {
            b,
            c_in,
            c_out,
            hw,
            k,
            stride: rng.gen_range(1usize..3),
            pad: rng.gen_range(0usize..2),
            seed: rng.gen_range(0u64..1 << 32),
        }
    }
    fn shrink(&self, c: &ConvCase) -> Vec<ConvCase> {
        let mut out = Vec::new();
        if c.b > 1 {
            out.push(ConvCase { b: c.b / 2, ..c.clone() });
        }
        if c.c_in > 1 {
            out.push(ConvCase { c_in: c.c_in / 2, ..c.clone() });
        }
        if c.c_out > 1 {
            out.push(ConvCase { c_out: c.c_out / 2, ..c.clone() });
        }
        out
    }
}

/// im2col vs direct within tolerance (forward and backward), and the im2col
/// strategy bit-identical across thread limits.
fn check_conv(c: &ConvCase) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(c.seed);
    let x = filled(&mut rng, &[c.b, c.c_in, c.hw, c.hw]);
    let wt = filled(&mut rng, &[c.c_out, c.c_in, c.k, c.k]);
    let bias = filled(&mut rng, &[c.c_out]);
    let ctx = format!("{c:?}");

    let direct = conv2d_direct(&x, &wt, &bias, c.stride, c.pad).map_err(|e| e.to_string())?;
    let lowered = pool::with_parallelism_limit(1, || conv2d(&x, &wt, &bias, c.stride, c.pad))
        .map_err(|e| e.to_string())?;
    assert_close(lowered.data(), direct.data(), "conv2d", &ctx)?;
    for limit in [2usize, 8] {
        let got = pool::with_parallelism_limit(limit, || conv2d(&x, &wt, &bias, c.stride, c.pad))
            .map_err(|e| e.to_string())?;
        prop_assert!(lowered.data() == got.data(), "conv2d bits diverged at limit {limit} for {ctx}");
    }

    let grad = filled(&mut rng, &lowered.shape().0);
    let (dxd, dwd, dbd) =
        conv2d_backward_direct(&x, &wt, &grad, c.stride, c.pad).map_err(|e| e.to_string())?;
    let (dxi, dwi, dbi) =
        pool::with_parallelism_limit(1, || conv2d_backward(&x, &wt, &grad, c.stride, c.pad))
            .map_err(|e| e.to_string())?;
    assert_close(dxi.data(), dxd.data(), "conv dX", &ctx)?;
    assert_close(dwi.data(), dwd.data(), "conv dW", &ctx)?;
    assert_close(dbi.data(), dbd.data(), "conv db", &ctx)?;
    for limit in [2usize, 8] {
        let (gx, gw, gb) = pool::with_parallelism_limit(limit, || {
            conv2d_backward(&x, &wt, &grad, c.stride, c.pad)
        })
        .map_err(|e| e.to_string())?;
        prop_assert!(
            dxi.data() == gx.data() && dwi.data() == gw.data() && dbi.data() == gb.data(),
            "conv2d_backward bits diverged at limit {limit} for {ctx}"
        );
    }
    Ok(())
}

#[test]
fn blocked_kernels_match_naive_and_stay_deterministic() {
    // Before the pool's first use; this binary holds no other test.
    std::env::set_var("NAUTILUS_THREADS", "8");
    assert_eq!(pool::num_threads(), 8, "env override must win");
    prop_check(0x6e40_0001, 24, &GemmGen, check_gemm);
    prop_check(0x6e40_0002, 12, &ConvGen, check_conv);
}
