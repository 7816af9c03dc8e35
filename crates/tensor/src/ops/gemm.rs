//! Cache-blocked packed GEMM engine with runtime kernel dispatch.
//!
//! This is the physical operator under every large matmul and (via im2col)
//! every large convolution in the workspace: a BLIS-style MC/KC/NC loop
//! nest over *packed* operand panels with a fixed-size [`MR`]×[`NR`]
//! register microkernel. The interesting properties:
//!
//! * **Strided inputs.** Operands are [`MatRef`]s — a data slice plus
//!   row/column strides — so all four transpose combinations of
//!   [`crate::ops::MatmulSpec`] are handled by *packing*, never by an
//!   explicit transpose pass or a strided inner loop. The microkernel only
//!   ever sees contiguous panels.
//! * **Deterministic summation.** Each output element is accumulated over
//!   `k` strictly ascending, in KC-sized register-resident partial sums,
//!   by exactly one task. The order is a function of the blocking
//!   parameters and kernel kind only — never of the worker count — so
//!   results are bit-identical at any thread width *within one kernel*.
//! * **Per-call cost proportional to the product.** Packing panels are
//!   sized to the product (at most one blocking's worth) and come unzeroed
//!   from the thread-local [`nautilus_util::scratch`] arena, 32-byte
//!   aligned ([`scratch::take_aligned`]), so a call never allocates
//!   or fills more than its operands need once the arena is warm. The
//!   packers write every element the microkernel reads, edge padding
//!   included, so a recycled panel's stale values never reach an output.
//!   This is why [`crate::ops::matmul`] can hand the engine every product
//!   but safe-kernel row vectors.
//! * **Two microkernels behind one dispatch layer.**
//!   - [`KernelKind::Safe`]: the portable default — fixed-trip-count array
//!     arithmetic over `[[f32; NR]; MR]` accumulators that rustc
//!     auto-vectorizes without FMA contraction. It runs on the *legacy*
//!     blocking constants ([`MC`]/[`KC`]/[`NC`]) so its results stay
//!     bit-identical to every release since the blocked engine landed.
//!   - [`KernelKind::Fma`]: an explicit AVX2+FMA `std::arch` microkernel
//!     (`_mm256_fmadd_ps` over a 6×16 register tile — [`MR_FMA`]×
//!     [`NR_FMA`] — two 8-lane accumulators per output row),
//!     selected at runtime via `is_x86_feature_detected!` and opt-in per
//!     backend (`SystemConfig.gemm_kernel` or `NAUTILUS_GEMM_KERNEL=fma`).
//!     It runs on an auto-tuned `(MC, KC, NC)` blocking chosen from the
//!     detected cache geometry at first use. Fused multiply-adds round
//!     once instead of twice, so FMA results differ from Safe in rounding
//!     (bounded by the `gemm_properties` differential suite), which is
//!     exactly why it is opt-in — see DESIGN.md "Determinism policy".
//!
//! Parallelism partitions output rows into MC-aligned macro-tile runs via
//! [`pool::aligned_chunk_len`]; each task packs its own panels. Telemetry
//! (PR 3 conventions): a `gemm` span with `gemm.pack` / `gemm.compute`
//! children, `gemm.pack_bytes` and `gemm.microkernel_calls` counters, and
//! a one-shot `gemm.kernel_selected` event recording the resolved kernel
//! and blocking.

use nautilus_util::{eventlog, pool, scratch, telemetry};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Microkernel register-tile rows.
pub const MR: usize = 8;
/// Microkernel register-tile columns.
pub const NR: usize = 8;
/// Rows of A per packed panel for the safe kernel (multiple of [`MR`]).
pub const MC: usize = 64;
/// Shared dimension per packed panel pair for the safe kernel.
pub const KC: usize = 256;
/// Columns of B per packed panel for the safe kernel (multiple of [`NR`]).
pub const NC: usize = 256;
/// FMA microkernel register-tile rows (6×16 tile: 12 `__m256`
/// accumulators saturate both FMA ports while hiding FMA latency).
pub const MR_FMA: usize = 6;
/// FMA microkernel register-tile columns (two 8-lane vectors).
pub const NR_FMA: usize = 16;

/// Above this many multiply-adds a GEMM fans out over the shared pool
/// (mirrors the matmul/conv thresholds).
const PAR_THRESHOLD: usize = 1 << 22;

// ---------------------------------------------------------------------------
// Kernel dispatch
// ---------------------------------------------------------------------------

/// Which register microkernel a GEMM runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable auto-vectorized kernel, no FMA contraction. Deterministic
    /// default: bit-identical across releases and thread widths.
    Safe,
    /// Explicit AVX2+FMA microkernel. Opt-in; requires runtime AVX2+FMA.
    Fma,
}

impl KernelKind {
    /// Parses the `NAUTILUS_GEMM_KERNEL` / `SystemConfig.gemm_kernel`
    /// spellings. Unknown strings resolve to `None` (treated as unset).
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "safe" => Some(KernelKind::Safe),
            "fma" => Some(KernelKind::Fma),
            _ => None,
        }
    }

    /// Stable lowercase name, used in telemetry labels and events.
    pub fn as_str(self) -> &'static str {
        match self {
            KernelKind::Safe => "safe",
            KernelKind::Fma => "fma",
        }
    }
}

/// Whether the explicit FMA microkernel can run on this host. Detection is
/// cached by `std` behind an atomic, so this is cheap to call per-GEMM.
pub fn fma_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Programmatic kernel preference (from `SystemConfig.gemm_kernel` via the
/// backend): 0 = unset, 1 = safe, 2 = fma.
static KERNEL_PREF: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide kernel preference. The `NAUTILUS_GEMM_KERNEL`
/// environment override, when present and valid, still wins.
pub fn set_kernel_preference(kind: KernelKind) {
    let v = match kind {
        KernelKind::Safe => 1,
        KernelKind::Fma => 2,
    };
    KERNEL_PREF.store(v, Ordering::Relaxed);
}

fn kernel_preference() -> Option<KernelKind> {
    match KERNEL_PREF.load(Ordering::Relaxed) {
        1 => Some(KernelKind::Safe),
        2 => Some(KernelKind::Fma),
        _ => None,
    }
}

fn env_kernel() -> Option<KernelKind> {
    static ENV: OnceLock<Option<KernelKind>> = OnceLock::new();
    *ENV.get_or_init(|| std::env::var("NAUTILUS_GEMM_KERNEL").ok().as_deref().and_then(KernelKind::parse))
}

/// Pure resolution order: env override > programmatic preference > safe
/// default; an FMA request degrades to Safe when the host lacks AVX2+FMA.
/// Split out (and given `supported` explicitly) so the routing is unit
/// testable on every architecture, including the non-x86 fallback.
fn resolve(env: Option<KernelKind>, pref: Option<KernelKind>, supported: bool) -> KernelKind {
    match env.or(pref).unwrap_or(KernelKind::Safe) {
        KernelKind::Fma if supported => KernelKind::Fma,
        _ => KernelKind::Safe,
    }
}

/// The kernel the next [`gemm`] / [`gemm_serial`] call will run, after env
/// override, configured preference, and feature detection.
pub fn resolved_kernel() -> KernelKind {
    resolve(env_kernel(), kernel_preference(), fma_supported())
}

// ---------------------------------------------------------------------------
// Blocking
// ---------------------------------------------------------------------------

/// Cache-blocking parameters for one kernel: rows of A per L2 panel,
/// shared-dim extent per panel pair, columns of B per L3 panel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blocking {
    /// Rows of A per packed macro-panel (multiple of [`MR`]).
    pub mc: usize,
    /// Shared dimension per packed panel pair.
    pub kc: usize,
    /// Columns of B per packed macro-panel (multiple of [`NR`]).
    pub nc: usize,
}

/// Legacy blocking: what the safe kernel has always used. Kept verbatim so
/// the safe path stays bit-identical to prior releases (changing KC would
/// move the partial-sum boundaries and change rounding).
pub const SAFE_BLOCKING: Blocking = Blocking { mc: MC, kc: KC, nc: NC };

fn round_down_to(v: usize, step: usize) -> usize {
    (v / step) * step
}

/// Chooses `(MC, KC, NC)` for the FMA kernel's 6×16 tile from detected
/// cache sizes (bytes). The targets follow the classic BLIS sizing
/// argument:
///
/// * `KC` — one A micro-strip (`MR_FMA×KC`) plus one B micro-strip
///   (`KC×NR_FMA`) should occupy at most half of L1d, leaving room for the
///   output tile and streaming loads: `KC = l1d / (2·(MR_FMA+NR_FMA)·4)`,
///   in 64-step granularity, clamped to `[128, 512]`.
/// * `MC` — the packed A panel (`MC×KC`) should fit in half of L2:
///   `MC = l2 / (2·KC·4)`, a multiple of `MR_FMA`, clamped to `[66, 510]`
///   (the nearest `MR_FMA` multiples of the safe kernel's 64/512 range).
/// * `NC` — the packed B panel (`KC×NC`) should fit in a quarter of L3
///   (shared with other cores and the output): `NC = l3 / (4·KC·4)`, a
///   multiple of `NR_FMA`, clamped to `[256, 4096]`.
///
/// With the common 32 KiB / 512 KiB / 8 MiB geometry this lands on
/// `(510, 128, 4096)`. Pure so the table is testable without sysfs.
fn tuned_blocking(l1d: usize, l2: usize, l3: usize) -> Blocking {
    let kc = round_down_to(l1d / (2 * (MR_FMA + NR_FMA) * 4), 64).clamp(128, 512);
    let mc = round_down_to(l2 / (2 * kc * 4), MR_FMA).clamp(66, 510);
    let nc = round_down_to(l3 / (4 * kc * 4), NR_FMA).clamp(256, 4096);
    Blocking { mc, kc, nc }
}

/// Parses a sysfs cache size string like `32K`, `1024K`, or `8M` to bytes.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1024usize),
        b'M' | b'm' => (&s[..s.len() - 1], 1 << 20),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|v| v * mult)
}

/// Detected `(l1d, l2, l3)` cache sizes in bytes, from
/// `/sys/devices/system/cpu/cpu0/cache/index*`. Missing levels fall back
/// to a conservative 32 KiB / 512 KiB / 8 MiB geometry.
fn detected_cache_sizes() -> (usize, usize, usize) {
    let (mut l1d, mut l2, mut l3) = (None, None, None);
    for idx in 0..6 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |leaf: &str| std::fs::read_to_string(format!("{base}/{leaf}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        let Some(bytes) = parse_cache_size(&size) else { continue };
        let ty = read("type").unwrap_or_default();
        let ty = ty.trim();
        match level.trim() {
            "1" if ty != "Instruction" => l1d = l1d.or(Some(bytes)),
            "2" => l2 = l2.or(Some(bytes)),
            "3" => l3 = l3.or(Some(bytes)),
            _ => {}
        }
    }
    (l1d.unwrap_or(32 << 10), l2.unwrap_or(512 << 10), l3.unwrap_or(8 << 20))
}

/// Blocking for the FMA kernel: auto-tuned from the cache geometry once at
/// first use, then cached for the process lifetime.
fn fma_blocking() -> Blocking {
    static TUNED: OnceLock<Blocking> = OnceLock::new();
    *TUNED.get_or_init(|| {
        let (l1d, l2, l3) = detected_cache_sizes();
        tuned_blocking(l1d, l2, l3)
    })
}

/// Blocking parameters a given kernel runs with.
pub fn blocking_for(kind: KernelKind) -> Blocking {
    match kind {
        KernelKind::Safe => SAFE_BLOCKING,
        KernelKind::Fma => fma_blocking(),
    }
}

/// `(resolved kernel, its blocking)` — the exact configuration the next
/// dispatched GEMM runs with. Used by telemetry and tests.
pub fn kernel_info() -> (KernelKind, Blocking) {
    let kind = resolved_kernel();
    (kind, blocking_for(kind))
}

/// Bitmask of kernel kinds whose selection was already logged.
static SELECTION_LOGGED: AtomicU8 = AtomicU8::new(0);

/// Records the resolved kernel + blocking once per kind per process: a
/// `gemm.kernel_selected` event and a `gemm.kernel_blocking` labeled gauge
/// family would be overkill — the event carries the numbers. Every GEMM
/// calls this, from every pool worker, so the logged case is a shared
/// relaxed load; the read-modify-write runs once per kind.
fn record_selection(kind: KernelKind, blk: Blocking) {
    let bit = match kind {
        KernelKind::Safe => 1u8,
        KernelKind::Fma => 2u8,
    };
    if SELECTION_LOGGED.load(Ordering::Relaxed) & bit != 0
        || SELECTION_LOGGED.fetch_or(bit, Ordering::Relaxed) & bit != 0
    {
        return;
    }
    eventlog::info(
        "gemm.kernel_selected",
        &[
            ("kernel", eventlog::Value::Str(kind.as_str())),
            ("mc", eventlog::Value::U64(blk.mc as u64)),
            ("kc", eventlog::Value::U64(blk.kc as u64)),
            ("nc", eventlog::Value::U64(blk.nc as u64)),
            ("fma_supported", eventlog::Value::Bool(fma_supported())),
        ],
    );
}

// ---------------------------------------------------------------------------
// Views and packing
// ---------------------------------------------------------------------------

/// A strided matrix view: element `(i, j)` lives at `data[i*rs + j*cs]`.
///
/// A plain row-major `(rows, cols)` matrix is `rs = cols, cs = 1`; its
/// transpose is the same slice with `rs = 1, cs = cols`.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    /// Backing element slice.
    pub data: &'a [f32],
    /// Row stride.
    pub rs: usize,
    /// Column stride.
    pub cs: usize,
}

impl<'a> MatRef<'a> {
    /// Row-major `(rows, cols)` view of `data`.
    pub fn row_major(data: &'a [f32], cols: usize) -> Self {
        MatRef { data, rs: cols, cs: 1 }
    }

    /// Transposed view of a row-major `(rows, cols)` buffer: the result
    /// reads as the `(cols, rows)` transpose without moving data.
    pub fn transposed(data: &'a [f32], cols: usize) -> Self {
        MatRef { data, rs: 1, cs: cols }
    }

    #[inline]
    fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.rs + j * self.cs]
    }
}

/// Packs `A[row0 .. row0+mc, p0 .. p0+kc]` into `SR`-row strips:
/// `apack[s*kc*SR + k*SR + r] == A[row0 + s*SR + r, p0 + k]`, rows past
/// `mc` zero-padded so the microkernel never branches on the edge. The
/// safe kernel packs `SR = MR` strips, the FMA kernel `SR = MR_FMA`.
fn pack_a<const SR: usize>(apack: &mut [f32], a: MatRef, row0: usize, mc: usize, p0: usize, kc: usize) {
    let strips = mc.div_ceil(SR);
    for s in 0..strips {
        let strip = &mut apack[s * kc * SR..(s + 1) * kc * SR];
        let r0 = s * SR;
        let rows = SR.min(mc - r0);
        for k in 0..kc {
            let dst = &mut strip[k * SR..k * SR + SR];
            for r in 0..rows {
                dst[r] = a.at(row0 + r0 + r, p0 + k);
            }
            for d in dst[rows..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

/// Packs `B[p0 .. p0+kc, col0 .. col0+nc]` into `SC`-column strips:
/// `bpack[s*kc*SC + k*SC + c] == B[p0 + k, col0 + s*SC + c]`, columns past
/// `nc` zero-padded. `SC = NR` for the safe kernel, `NR_FMA` for FMA.
fn pack_b<const SC: usize>(bpack: &mut [f32], b: MatRef, p0: usize, kc: usize, col0: usize, nc: usize) {
    let strips = nc.div_ceil(SC);
    for s in 0..strips {
        let strip = &mut bpack[s * kc * SC..(s + 1) * kc * SC];
        let c0 = s * SC;
        let cols = SC.min(nc - c0);
        for k in 0..kc {
            let dst = &mut strip[k * SC..k * SC + SC];
            for c in 0..cols {
                dst[c] = b.at(p0 + k, col0 + c0 + c);
            }
            for d in dst[cols..].iter_mut() {
                *d = 0.0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Microkernels
// ---------------------------------------------------------------------------

/// The safe register microkernel:
/// `acc[r][c] += sum_k ap[k*MR+r] * bp[k*NR+c]`.
///
/// `k` ascends sequentially with one scalar accumulator chain per output
/// element; vectorization happens across the NR columns, so reordering
/// never touches the per-element summation order, and the separate
/// multiply and add round twice per step (no FMA contraction).
#[inline]
fn microkernel(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for k in 0..kc {
        let a = &ap[k * MR..k * MR + MR];
        let b = &bp[k * NR..k * NR + NR];
        for r in 0..MR {
            let ar = a[r];
            for c in 0..NR {
                acc[r][c] += ar * b[c];
            }
        }
    }
}

/// The explicit AVX2+FMA microkernel over a 6-row × 16-column tile: two
/// `__m256` accumulators per output row (12 total), so the 2-per-cycle FMA
/// ports stay saturated while each chain's 4-5 cycle latency hides behind
/// the other eleven — the classic sgemm register shape. An 8×8 tile (one
/// accumulator per row) is latency-bound instead: eight chains is exactly
/// the latency×throughput product, so any stall drains the pipeline.
///
/// Per element the summation is one chain with k strictly ascending, same
/// order as the safe kernel; only the rounding differs — each FMA rounds
/// once where mul+add round twice.
///
/// Loads are `loadu`: the packed panels come from
/// [`scratch::take_aligned`] so they are 32-byte aligned in practice (no
/// split-load penalty), but alignment is a performance property, not a
/// safety requirement.
///
/// # Safety
/// Caller must ensure the host supports AVX2 and FMA
/// ([`fma_supported`]), and that `ap`/`bp` hold at least `kc*MR_FMA` /
/// `kc*NR_FMA` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_fma(kc: usize, ap: &[f32], bp: &[f32], acc: &mut [[f32; NR_FMA]; MR_FMA]) {
    use std::arch::x86_64::*;
    debug_assert!(ap.len() >= kc * MR_FMA && bp.len() >= kc * NR_FMA);
    let mut rows: [[__m256; 2]; MR_FMA] = [[_mm256_setzero_ps(); 2]; MR_FMA];
    for (r, row) in rows.iter_mut().enumerate() {
        row[0] = _mm256_loadu_ps(acc[r].as_ptr());
        row[1] = _mm256_loadu_ps(acc[r].as_ptr().add(8));
    }
    let ap = ap.as_ptr();
    let bp = bp.as_ptr();
    for k in 0..kc {
        let bv0 = _mm256_loadu_ps(bp.add(k * NR_FMA));
        let bv1 = _mm256_loadu_ps(bp.add(k * NR_FMA + 8));
        let av = ap.add(k * MR_FMA);
        for (r, row) in rows.iter_mut().enumerate() {
            let a = _mm256_broadcast_ss(&*av.add(r));
            row[0] = _mm256_fmadd_ps(a, bv0, row[0]);
            row[1] = _mm256_fmadd_ps(a, bv1, row[1]);
        }
    }
    for (r, row) in rows.iter().enumerate() {
        _mm256_storeu_ps(acc[r].as_mut_ptr(), row[0]);
        _mm256_storeu_ps(acc[r].as_mut_ptr().add(8), row[1]);
    }
}

// ---------------------------------------------------------------------------
// Blocked loop nest
// ---------------------------------------------------------------------------

/// One task's full blocked loop nest over `rows` output rows starting at
/// global row `row0`, writing `out` (the task's exclusive `rows × n`
/// slice). `out` must be zeroed; tiles accumulate across KC blocks.
/// `kind` must already be sanitized.
fn gemm_task(
    kind: KernelKind,
    blk: Blocking,
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
) {
    match kind {
        KernelKind::Safe => gemm_task_safe(blk, row0, rows, k, n, a, b, out),
        #[cfg(target_arch = "x86_64")]
        KernelKind::Fma => gemm_task_fma(blk, row0, rows, k, n, a, b, out),
        #[cfg(not(target_arch = "x86_64"))]
        // Unreachable: `sanitize` degrades Fma to Safe off x86_64.
        KernelKind::Fma => gemm_task_safe(blk, row0, rows, k, n, a, b, out),
    }
}

/// The packing panels of one task's loop nest, sized to its product: an A
/// panel of `min(mc, rows)` rows rounded up to whole `SR`-row strips by
/// `min(kc, k)`, and a B panel of `min(kc, k)` by `min(nc, n)` columns
/// rounded up to whole `SC`-column strips. They come unzeroed: in every
/// block [`pack_a`]/[`pack_b`] write each element the microkernel then
/// reads, edge padding included, so a recycled panel's stale values never
/// reach an output.
fn panels<const SR: usize, const SC: usize>(
    blk: Blocking,
    rows: usize,
    k: usize,
    n: usize,
) -> (scratch::AlignedScratch, scratch::AlignedScratch) {
    let kc = blk.kc.min(k);
    (
        scratch::take_aligned(blk.mc.min(rows).div_ceil(SR) * SR * kc),
        scratch::take_aligned(kc * blk.nc.min(n).div_ceil(SC) * SC),
    )
}

/// The safe kernel's loop nest: MR×NR tiles over MR/NR-strip panels. This
/// body (and its packing layout) is byte-for-byte the pre-dispatch blocked
/// engine, pinned by `safe_path_bit_pattern_is_pinned`.
fn gemm_task_safe(
    blk: Blocking,
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
) {
    let (mut apack, mut bpack) = panels::<MR, NR>(blk, rows, k, n);
    let mut pack_bytes = 0u64;
    let mut mk_calls = 0u64;
    let mut jc = 0;
    while jc < n {
        let nc = blk.nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = blk.kc.min(k - pc);
            {
                let _sp = telemetry::span("tensor", "gemm.pack");
                pack_b::<NR>(&mut bpack, b, pc, kc, jc, nc);
                pack_bytes += (kc * nc * 4) as u64;
            }
            let mut ic = 0;
            while ic < rows {
                let mc = blk.mc.min(rows - ic);
                {
                    let _sp = telemetry::span("tensor", "gemm.pack");
                    pack_a::<MR>(&mut apack, a, row0 + ic, mc, pc, kc);
                    pack_bytes += (mc * kc * 4) as u64;
                }
                let _sp = telemetry::span("tensor", "gemm.compute");
                let mut jr = 0;
                while jr < nc {
                    let nr = NR.min(nc - jr);
                    let bstrip = &bpack[(jr / NR) * kc * NR..(jr / NR + 1) * kc * NR];
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let astrip = &apack[(ir / MR) * kc * MR..(ir / MR + 1) * kc * MR];
                        let mut acc = [[0.0f32; NR]; MR];
                        microkernel(kc, astrip, bstrip, &mut acc);
                        mk_calls += 1;
                        let base = (ic + ir) * n + jc + jr;
                        for r in 0..mr {
                            let crow = &mut out[base + r * n..base + r * n + nr];
                            for (c, &v) in crow.iter_mut().zip(acc[r].iter()) {
                                *c += v;
                            }
                        }
                        ir += MR;
                    }
                    jr += NR;
                }
                ic += blk.mc;
            }
            pc += blk.kc;
        }
        jc += blk.nc;
    }
    telemetry::GEMM_PACK_BYTES.add(pack_bytes);
    telemetry::GEMM_MICROKERNEL_CALLS.add(mk_calls);
}

/// The FMA kernel's loop nest: the same MC/KC/NC structure as
/// [`gemm_task_safe`] but over MR_FMA/NR_FMA-strip panels feeding the
/// 6×16 register tile.
#[cfg(target_arch = "x86_64")]
fn gemm_task_fma(
    blk: Blocking,
    row0: usize,
    rows: usize,
    k: usize,
    n: usize,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
) {
    let (mut apack, mut bpack) = panels::<MR_FMA, NR_FMA>(blk, rows, k, n);
    let mut pack_bytes = 0u64;
    let mut mk_calls = 0u64;
    let mut jc = 0;
    while jc < n {
        let nc = blk.nc.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = blk.kc.min(k - pc);
            {
                let _sp = telemetry::span("tensor", "gemm.pack");
                pack_b::<NR_FMA>(&mut bpack, b, pc, kc, jc, nc);
                pack_bytes += (kc * nc * 4) as u64;
            }
            let mut ic = 0;
            while ic < rows {
                let mc = blk.mc.min(rows - ic);
                {
                    let _sp = telemetry::span("tensor", "gemm.pack");
                    pack_a::<MR_FMA>(&mut apack, a, row0 + ic, mc, pc, kc);
                    pack_bytes += (mc * kc * 4) as u64;
                }
                let _sp = telemetry::span("tensor", "gemm.compute");
                let mut jr = 0;
                while jr < nc {
                    let nr = NR_FMA.min(nc - jr);
                    let bstrip =
                        &bpack[(jr / NR_FMA) * kc * NR_FMA..(jr / NR_FMA + 1) * kc * NR_FMA];
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR_FMA.min(mc - ir);
                        let astrip =
                            &apack[(ir / MR_FMA) * kc * MR_FMA..(ir / MR_FMA + 1) * kc * MR_FMA];
                        let mut acc = [[0.0f32; NR_FMA]; MR_FMA];
                        // SAFETY: `gemm_task` routes here only for a
                        // sanitized Fma kind (host has AVX2+FMA); the
                        // strips are sized `kc*MR_FMA` / `kc*NR_FMA` by
                        // the packers.
                        unsafe { microkernel_fma(kc, astrip, bstrip, &mut acc) };
                        mk_calls += 1;
                        let base = (ic + ir) * n + jc + jr;
                        for r in 0..mr {
                            let crow = &mut out[base + r * n..base + r * n + nr];
                            for (c, &v) in crow.iter_mut().zip(acc[r].iter()) {
                                *c += v;
                            }
                        }
                        ir += MR_FMA;
                    }
                    jr += NR_FMA;
                }
                ic += blk.mc;
            }
            pc += blk.kc;
        }
        jc += blk.nc;
    }
    telemetry::GEMM_PACK_BYTES.add(pack_bytes);
    telemetry::GEMM_MICROKERNEL_CALLS.add(mk_calls);
}

/// Degrades an explicit FMA request to Safe when the host can't run it, so
/// `gemm_with(Fma, ..)` is callable unconditionally (tests, benches).
fn sanitize(kind: KernelKind) -> KernelKind {
    match kind {
        KernelKind::Fma if !fma_supported() => KernelKind::Safe,
        k => k,
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Blocked packed GEMM: `out[m × n] += A[m × k] · B[k × n]` with arbitrary
/// operand strides, run with an explicitly chosen kernel (degraded to
/// [`KernelKind::Safe`] when FMA is unsupported). `out` is row-major and
/// must be zero-initialized.
///
/// Large products partition output rows into MC-aligned runs on the shared
/// pool; results are bit-identical at any thread width for a fixed kernel.
pub fn gemm_with(kind: KernelKind, m: usize, k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    let _sp = telemetry::span("tensor", "gemm");
    if m == 0 || n == 0 {
        return;
    }
    let kind = sanitize(kind);
    let blk = blocking_for(kind);
    record_selection(kind, blk);
    let work = m * k * n;
    if work < PAR_THRESHOLD || pool::num_threads() <= 1 {
        gemm_task(kind, blk, 0, m, k, n, a, b, out);
        return;
    }
    let chunk_rows = pool::aligned_chunk_len(m, blk.mc);
    pool::scope_chunks(out, chunk_rows * n, |ci, ochunk| {
        gemm_task(kind, blk, ci * chunk_rows, ochunk.len() / n, k, n, a, b, ochunk);
    });
}

/// Blocked packed GEMM with the runtime-resolved kernel (env override >
/// configured preference > safe default). See [`gemm_with`].
pub fn gemm(m: usize, k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    gemm_with(resolved_kernel(), m, k, n, a, b, out);
}

/// Single-task blocked GEMM with an explicit kernel, bypassing the pool.
/// Used where the caller already owns the parallel partitioning (e.g.
/// per-image im2col tasks) and by benches isolating single-core kernel
/// quality. Bit-identical to [`gemm_with`] for the same kernel by the
/// fixed-summation-order contract.
pub fn gemm_serial_with(
    kind: KernelKind,
    m: usize,
    k: usize,
    n: usize,
    a: MatRef,
    b: MatRef,
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    let kind = sanitize(kind);
    let blk = blocking_for(kind);
    record_selection(kind, blk);
    gemm_task(kind, blk, 0, m, k, n, a, b, out);
}

/// Single-task blocked GEMM with the runtime-resolved kernel. See
/// [`gemm_serial_with`].
pub fn gemm_serial(m: usize, k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    gemm_serial_with(resolved_kernel(), m, k, n, a, b, out);
}

/// Unblocked i-p-j kernel over the same strided views. This is the rounding
/// reference the blocked kernel is validated against, the "naive" side of
/// the `gemm` bench group / `BENCH_gemm.json` gate, and the row-vector arm
/// of [`crate::ops::matmul::matmul_ex`] on the safe kernel.
pub fn gemm_naive(m: usize, k: usize, n: usize, a: MatRef, b: MatRef, out: &mut [f32]) {
    debug_assert_eq!(out.len(), m * n);
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let av = a.at(i, p);
            if av == 0.0 {
                continue;
            }
            let bbase = p * b.rs;
            if b.cs == 1 {
                let brow = &b.data[bbase..bbase + n];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            } else {
                for (j, o) in orow.iter_mut().enumerate() {
                    *o += av * b.data[bbase + j * b.cs];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use nautilus_util::pool::with_parallelism_limit;

    fn rel_close(x: f32, y: f32) -> bool {
        (x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs()))
    }

    #[test]
    fn blocked_matches_naive_on_awkward_sizes() {
        // Sizes straddling every edge case: below MR/NR, non-multiples of
        // the tile sizes, and spans crossing MC/KC/NC boundaries.
        let mut rng = seeded_rng(41);
        for &(m, k, n) in
            &[(1usize, 1usize, 1usize), (3, 5, 7), (8, 8, 8), (13, 300, 17), (70, 70, 70), (65, 257, 259)]
        {
            let a = randn([m, k], 1.0, &mut rng);
            let b = randn([k, n], 1.0, &mut rng);
            let ar = MatRef::row_major(a.data(), k);
            let br = MatRef::row_major(b.data(), n);
            let mut naive = vec![0.0f32; m * n];
            gemm_naive(m, k, n, ar, br, &mut naive);
            for kind in [KernelKind::Safe, KernelKind::Fma] {
                let mut blocked = vec![0.0f32; m * n];
                gemm_with(kind, m, k, n, ar, br, &mut blocked);
                for (i, (&x, &y)) in blocked.iter().zip(naive.iter()).enumerate() {
                    assert!(rel_close(x, y), "({m},{k},{n})[{i}] {kind:?}: blocked {x} vs naive {y}");
                }
            }
        }
    }

    #[test]
    fn transposed_views_match_materialized_transpose() {
        let mut rng = seeded_rng(42);
        let (m, k, n) = (20usize, 33usize, 41usize);
        let at = randn([k, m], 1.0, &mut rng); // A stored transposed
        let bt = randn([n, k], 1.0, &mut rng); // B stored transposed
        // Materialize the plain operands.
        let mut a = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                a[i * k + p] = at.data()[p * m + i];
            }
        }
        let mut b = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                b[p * n + j] = bt.data()[j * k + p];
            }
        }
        for kind in [KernelKind::Safe, KernelKind::Fma] {
            let mut want = vec![0.0f32; m * n];
            gemm_with(kind, m, k, n, MatRef::row_major(&a, k), MatRef::row_major(&b, n), &mut want);
            let mut got = vec![0.0f32; m * n];
            gemm_with(
                kind,
                m,
                k,
                n,
                MatRef::transposed(at.data(), m),
                MatRef::transposed(bt.data(), k),
                &mut got,
            );
            assert_eq!(got, want, "{kind:?}: strided packing must fold the transposes exactly");
        }
    }

    #[test]
    fn parallel_gemm_bit_identical_across_limits() {
        let mut rng = seeded_rng(43);
        // 192*256*192 ≈ 9.4M multiply-adds: crosses PAR_THRESHOLD.
        let (m, k, n) = (192usize, 256usize, 192usize);
        let a = randn([m, k], 1.0, &mut rng);
        let b = randn([k, n], 1.0, &mut rng);
        for kind in [KernelKind::Safe, KernelKind::Fma] {
            let run = |limit: usize| {
                with_parallelism_limit(limit, || {
                    let mut out = vec![0.0f32; m * n];
                    gemm_with(
                        kind,
                        m,
                        k,
                        n,
                        MatRef::row_major(a.data(), k),
                        MatRef::row_major(b.data(), n),
                        &mut out,
                    );
                    out
                })
            };
            let reference = run(1);
            let mut serial = vec![0.0f32; m * n];
            gemm_serial_with(
                kind,
                m,
                k,
                n,
                MatRef::row_major(a.data(), k),
                MatRef::row_major(b.data(), n),
                &mut serial,
            );
            assert_eq!(reference, serial, "{kind:?}: serial entry point diverged");
            for limit in [2usize, 8] {
                assert_eq!(run(limit), reference, "{kind:?}: limit {limit} diverged");
            }
        }
    }

    #[test]
    fn packing_reuses_scratch_buffers() {
        let (h0, _) = nautilus_util::scratch::thread_stats();
        let mut rng = seeded_rng(44);
        let a = randn([64, 64], 1.0, &mut rng);
        let b = randn([64, 64], 1.0, &mut rng);
        let mut out = vec![0.0f32; 64 * 64];
        for _ in 0..3 {
            out.iter_mut().for_each(|x| *x = 0.0);
            gemm_serial(64, 64, 64, MatRef::row_major(a.data(), 64), MatRef::row_major(b.data(), 64), &mut out);
        }
        let (h1, _) = nautilus_util::scratch::thread_stats();
        assert!(h1 > h0, "repeated gemms must hit the scratch arena");
    }

    /// The panels come unzeroed, so this is the proof that no stale value
    /// reaches an output: before every run, panels of the sizes the run
    /// takes are filled with NaN or `f32::MAX` and recycled — into the
    /// calling thread's arena and into those of whichever workers run a
    /// poisoning scope — and the output must carry the bits of a run on a
    /// fresh thread, whose arena holds nothing. Edge shapes for both tiles
    /// (m, n not multiples of `MR`/`NR`/`MR_FMA`/`NR_FMA`, n past the safe
    /// `NC`), k on both sides of one and two `kc` blocks, all four
    /// transpose views, pool widths 1/2/8 (the last shape fans out).
    #[test]
    fn poisoned_arena_never_reaches_an_output() {
        use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
        fn poison(kind: KernelKind, rows: usize, k: usize, n: usize, value: f32) {
            let blk = blocking_for(kind);
            let (mut a, mut b) = match kind {
                KernelKind::Safe => panels::<MR, NR>(blk, rows, k, n),
                KernelKind::Fma => panels::<MR_FMA, NR_FMA>(blk, rows, k, n),
            };
            a.fill(value);
            b.fill(value);
        }
        let run = |kind: KernelKind, (m, k, n): (usize, usize, usize), x: &[f32], y: &[f32], (ta, tb): (bool, bool)| {
            let a = if ta { MatRef::transposed(x, m) } else { MatRef::row_major(x, k) };
            let b = if tb { MatRef::transposed(y, k) } else { MatRef::row_major(y, n) };
            let mut out = vec![0.0f32; m * n];
            gemm_with(kind, m, k, n, a, b, &mut out);
            bits(&out)
        };
        for kind in [KernelKind::Safe, KernelKind::Fma].map(sanitize) {
            let kc = blocking_for(kind).kc;
            for k in [1, kc - 1, kc, kc + 1, 2 * kc + 1] {
                let mut shapes = vec![(13, k, 19), (67, k, 5), (13, k, 259)];
                if k > 2 * kc {
                    shapes.push((70, k, PAR_THRESHOLD.div_ceil(70 * k) | 1));
                }
                for (m, k, n) in shapes {
                    let (x, y) = (salted(k as u64, m * k), salted(n as u64, k * n));
                    for views in [(false, false), (true, false), (false, true), (true, true)] {
                        let fresh = std::thread::scope(|s| {
                            s.spawn(|| with_parallelism_limit(1, || run(kind, (m, k, n), &x, &y, views)))
                                .join()
                                .unwrap()
                        });
                        for (width, value) in [(1, f32::NAN), (1, f32::MAX), (2, f32::NAN), (8, f32::MAX)] {
                            let got = with_parallelism_limit(width, || {
                                poison(kind, m, k, n, value);
                                let chunk = pool::aligned_chunk_len(m, blocking_for(kind).mc);
                                pool::run_scope(
                                    (0..8)
                                        .map(|_| {
                                            Box::new(move || poison(kind, chunk, k, n, value))
                                                as Box<dyn FnOnce() + Send>
                                        })
                                        .collect(),
                                );
                                run(kind, (m, k, n), &x, &y, views)
                            });
                            assert!(got == fresh, "{kind:?} {m}x{k}x{n} views {views:?} width {width} poison {value}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn resolution_order_env_then_pref_then_safe() {
        use KernelKind::*;
        // Env wins over preference; Fma degrades without support.
        assert_eq!(resolve(Some(Safe), Some(Fma), true), Safe);
        assert_eq!(resolve(Some(Fma), Some(Safe), true), Fma);
        assert_eq!(resolve(None, Some(Fma), true), Fma);
        assert_eq!(resolve(None, Some(Fma), false), Safe);
        assert_eq!(resolve(Some(Fma), None, false), Safe);
        assert_eq!(resolve(None, None, true), Safe, "FMA must stay opt-in");
        assert_eq!(KernelKind::parse("FMA"), Some(Fma));
        assert_eq!(KernelKind::parse(" safe "), Some(Safe));
        assert_eq!(KernelKind::parse("avx512"), None);
    }

    /// The non-x86 fallback contract: feature detection is compile-time
    /// false, so every request — env, preference, or explicit `gemm_with`
    /// — routes to the safe kernel.
    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn non_x86_always_routes_to_safe() {
        assert!(!fma_supported());
        assert_eq!(resolve(Some(KernelKind::Fma), Some(KernelKind::Fma), fma_supported()), KernelKind::Safe);
        assert_eq!(sanitize(KernelKind::Fma), KernelKind::Safe);
    }

    #[test]
    fn tuned_blocking_respects_cache_budgets_and_granularity() {
        // The canonical desktop geometry lands on the documented table.
        assert_eq!(tuned_blocking(32 << 10, 512 << 10, 8 << 20), Blocking { mc: 510, kc: 128, nc: 4096 });
        for &(l1, l2, l3) in &[
            (16usize << 10, 256usize << 10, 2usize << 20),
            (48 << 10, 1 << 20, 32 << 20),
            (64 << 10, 2 << 20, 64 << 20),
            (1 << 10, 1 << 10, 1 << 10), // degenerate: clamps hold
        ] {
            let b = tuned_blocking(l1, l2, l3);
            assert_eq!(b.mc % MR_FMA, 0);
            assert_eq!(b.nc % NR_FMA, 0);
            assert_eq!(b.kc % 64, 0);
            assert!((128..=512).contains(&b.kc));
            assert!((66..=510).contains(&b.mc));
            assert!((256..=4096).contains(&b.nc));
        }
        assert_eq!(parse_cache_size("32K"), Some(32 << 10));
        assert_eq!(parse_cache_size("8M\n"), Some(8 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("zap"), None);
    }

    /// Safe-path regression pin: the safe kernel's exact bit pattern on a
    /// fixed seed must never drift, because serving determinism is
    /// promised across releases. The reference below re-implements the
    /// pre-dispatch engine's summation order from scratch (legacy KC,
    /// k-ascending, separate mul and add); any change to safe-path
    /// blocking or summation order breaks bit equality.
    #[test]
    fn safe_path_bit_pattern_is_pinned() {
        let mut rng = seeded_rng(4242);
        let (m, k, n) = (65usize, 300usize, 67usize);
        let a = randn([m, k], 1.0, &mut rng);
        let b = randn([k, n], 1.0, &mut rng);
        let mut out = vec![0.0f32; m * n];
        gemm_with(
            KernelKind::Safe,
            m,
            k,
            n,
            MatRef::row_major(a.data(), k),
            MatRef::row_major(b.data(), n),
            &mut out,
        );
        let mut reference = vec![0.0f32; m * n];
        legacy_reference(m, k, n, a.data(), b.data(), &mut reference);
        let same = out.iter().zip(&reference).all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "safe path diverged bitwise from the legacy engine");
    }

    /// Faithful scalar re-implementation of the pre-dispatch engine's
    /// summation order: KC=256 partials accumulated k-ascending with
    /// separate mul and add, per element. Blocking in m/n does not affect
    /// values (each element's chain is independent), so plain loops with a
    /// KC-partial split reproduce the exact floats.
    fn legacy_reference(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut total = 0.0f32;
                let mut pc = 0;
                while pc < k {
                    let kc = KC.min(k - pc);
                    let mut part = 0.0f32;
                    for p in pc..pc + kc {
                        part += a[i * k + p] * b[p * n + j];
                    }
                    total += part;
                    pc += KC;
                }
                out[i * n + j] = total;
            }
        }
    }
}
