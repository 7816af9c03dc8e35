//! 2-D convolution and pooling kernels (NCHW layout).
//!
//! Inputs are `[batch, channels, height, width]`; convolution weights are
//! `[out_c, in_c, kh, kw]`. [`conv2d`] / [`conv2d_backward`] have one
//! execution strategy, at every size: **batch-folded im2col + packed
//! GEMM**. The receptive fields of a *group* of `g` images are unrolled
//! side by side into one column panel `(c_in·kh·kw) × (g·oh·ow)`, so the
//! batch rides in the GEMM's N dimension: forward is one product
//! `W · panel` per group (weights packed once per group, register tiles
//! full even when `oh·ow` is 4), restored to NCHW with the bias add in the
//! same pass; backward recovers `dX` as col2im of one `Wᵀ · dY` product per
//! group (skipped with its col2im when the caller needs no `dX`) and
//! accumulates each image's `dY_n · col_nᵀ` onto `dW` in image order. `g`
//! is whatever keeps a panel within [`PANEL_BUDGET`] floats, so scratch
//! stays a few hundred KiB per thread however large the batch; all of it
//! comes from the scratch arena. im2col copy traffic is *not* counted as
//! FLOPs.
//!
//! Every output element is therefore the engine's chain — `k`-ascending
//! from `+0.0` in `kc`-sized partials, **bias added last** — and a GEMM
//! column never sees its neighbours, so an image's bits do not depend on
//! its batch-mates, the group size, or the thread width: the first `k`
//! images of a batch of `n` are the batch of `k`. The `bitwise_vs_reference`
//! tests hold the fold against the per-image lowering it replaced.
//!
//! Groups fan out over the shared pool only at or above [`PAR_THRESHOLD`]
//! FLOPs, on caller-chosen boundaries, and `dW`/`db` always merge in image
//! order.
//!
//! The direct nested loops ([`conv2d_direct`], [`conv2d_backward_direct`])
//! are the sequential, trivially auditable *reference* the lowering is
//! validated against within tolerance (`gemm_properties`, the `conv/direct`
//! bench); no runtime path calls them.

use crate::ops::gemm::{self, MatRef};
use crate::{Tensor, TensorError};
use nautilus_util::{pool, scratch};

/// At and above this many FLOPs, conv kernels fan out over the shared
/// thread pool (same rationale as the matmul threshold).
const PAR_THRESHOLD: usize = 1 << 22;

/// Floats one column panel may hold (256 KiB). Bounds the lowering's
/// scratch — the panel, its gradient twin and the `c_out`-row GEMM output —
/// independently of the batch size; folding a whole 24-image batch at once
/// measurably grows the process's peak RSS for no further speed.
const PANEL_BUDGET: usize = 1 << 16;

fn incompatible<T>(msg: String) -> Result<T, TensorError> {
    Err(TensorError::Incompatible(msg))
}

fn dims4(t: &Tensor, what: &str) -> Result<(usize, usize, usize, usize), TensorError> {
    let s = &t.shape().0;
    if s.len() != 4 {
        return incompatible(format!("{what} must be rank-4 NCHW, got {s:?}"));
    }
    Ok((s[0], s[1], s[2], s[3]))
}

/// Output spatial extent for a convolution/pool axis. A zero stride, an
/// empty window, or a window larger than the padded input has no output
/// geometry and is an error.
pub fn conv_out_dim(
    input: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Result<usize, TensorError> {
    let padded = input + 2 * pad;
    if stride == 0 || kernel == 0 || kernel > padded {
        return incompatible(format!(
            "no output geometry for window {kernel}, stride {stride} over extent {input} (pad {pad})"
        ));
    }
    Ok((padded - kernel) / stride + 1)
}

/// Validated geometry of one convolution call.
#[derive(Clone, Copy)]
struct ConvGeom {
    b: usize,
    c_in: usize,
    c_out: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    oh: usize,
    ow: usize,
    stride: usize,
    pad: usize,
}

impl ConvGeom {
    fn new(
        input: &Tensor,
        weight: &Tensor,
        stride: usize,
        pad: usize,
    ) -> Result<ConvGeom, TensorError> {
        let (b, c_in, h, w) = dims4(input, "conv input")?;
        let (c_out, wc_in, kh, kw) = dims4(weight, "conv weight")?;
        if wc_in != c_in {
            return incompatible(format!("conv channels: input {c_in} vs weight {wc_in}"));
        }
        if c_in * h * w == 0 {
            return incompatible(format!("conv input {:?} has no elements per image", input.shape().0));
        }
        let oh = conv_out_dim(h, kh, stride, pad)?;
        let ow = conv_out_dim(w, kw, stride, pad)?;
        Ok(ConvGeom { b, c_in, c_out, h, w, kh, kw, oh, ow, stride, pad })
    }

    /// Rows of the column matrix: one per weight tap.
    fn ckk(&self) -> usize {
        self.c_in * self.kh * self.kw
    }

    /// Columns of one image's column matrix: one per output position.
    fn len(&self) -> usize {
        self.oh * self.ow
    }

    fn image_in(&self) -> usize {
        self.c_in * self.h * self.w
    }

    fn image_out(&self) -> usize {
        self.c_out * self.len()
    }

    /// Multiply-add count: one per (output element × weight tap); the
    /// dnn-layer FLOP estimate is `2 * macs`.
    fn macs(&self) -> usize {
        self.b * self.image_out() * self.ckk()
    }

    /// Whether per-image / per-group tasks go to the pool: only when the
    /// call is worth a fan-out and there is more than one of each.
    fn fans_out(&self) -> bool {
        2 * self.macs() >= PAR_THRESHOLD && self.b > 1 && pool::num_threads() > 1
    }

    /// Images per column panel: the batch split evenly into the fewest
    /// groups [`PANEL_BUDGET`] allows (a group is at least one image) and,
    /// when groups fan out, into at least one per thread. The choice moves
    /// no bits — a GEMM column's chain does not depend on which columns
    /// sit beside it.
    fn group(&self, fan_out: bool) -> usize {
        let fit = (PANEL_BUDGET / (self.ckk() * self.len()).max(1)).max(1);
        let mut groups = self.b.div_ceil(fit);
        if fan_out {
            groups = groups.max(pool::num_threads());
        }
        self.b.div_ceil(groups.max(1)).max(1)
    }

    /// For each weight tap `(ky, kx)` and output position `(oy, ox)`, in
    /// that order, the offset inside a channel plane of the input element
    /// the tap reads — or `h·w`, one past the plane, where it reads padding.
    /// All the geometry of the lowering is in this table; [`im2col`] and
    /// [`col2im_add`] are a gather and a scatter-add through it.
    fn tap_offsets(&self) -> Vec<usize> {
        let ConvGeom { h, w, kh, kw, oh, ow, stride, pad, .. } = *self;
        let mut offsets = Vec::with_capacity(kh * kw * oh * ow);
        for ky in 0..kh {
            for kx in 0..kw {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let (iy, ix) = (oy * stride + ky, ox * stride + kx);
                        let inside = (pad..h + pad).contains(&iy) && (pad..w + pad).contains(&ix);
                        offsets.push(if inside { (iy - pad) * w + ix - pad } else { h * w });
                    }
                }
            }
        }
        offsets
    }

    fn check_bias(&self, bias: &Tensor) -> Result<(), TensorError> {
        if bias.len() != self.c_out {
            return incompatible(format!(
                "conv bias length {} vs out channels {}",
                bias.len(),
                self.c_out
            ));
        }
        Ok(())
    }
}

/// Direct (non-im2col) convolution: the sequential nested-loop reference
/// for [`conv2d`] (bias first, one plain chain per output element).
#[allow(clippy::needless_range_loop)]
pub fn conv2d_direct(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    let cg = ConvGeom::new(input, weight, stride, pad)?;
    cg.check_bias(bias)?;
    let ConvGeom { b, c_in, c_out, h, w, kh, kw, oh, ow, .. } = cg;
    let x = input.data();
    let wt = weight.data();
    let bs = bias.data();
    let mut out = vec![0.0f32; b * c_out * oh * ow];
    for (gi, oplane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let n = gi / c_out;
        let co = gi % c_out;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bs[co];
                for ci in 0..c_in {
                    let ibase = ((n * c_in) + ci) * h * w;
                    let wbase = ((co * c_in) + ci) * kh * kw;
                    for ky in 0..kh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..kw {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += x[ibase + iy as usize * w + ix as usize]
                                * wt[wbase + ky * kw + kx];
                        }
                    }
                }
                oplane[oy * ow + ox] = acc;
            }
        }
    }
    Tensor::from_vec([b, c_out, oh, ow], out)
}

/// Unrolls one NCHW image into its `(c_in·kh·kw) × (oh·ow)` column matrix,
/// stored as rows of stride `ld` starting at `col[0]` — a column band of a
/// group's panel: `col[((ci·kh+ky)·kw+kx)·ld + oy·ow+ox] =
/// x[ci, oy·s+ky-pad, ox·s+kx-pad]` (zero where the tap falls in padding).
/// Every element of the band is written, so the scratch buffer needs no
/// re-zeroing between uses.
fn im2col(x_img: &[f32], col: &mut [f32], ld: usize, offsets: &[usize], cg: ConvGeom) {
    let (l, kk) = (cg.len(), cg.kh * cg.kw);
    for (ci, plane) in x_img.chunks_exact(cg.h * cg.w).enumerate() {
        for (t, offs) in offsets.chunks_exact(l).enumerate() {
            let row = &mut col[(ci * kk + t) * ld..][..l];
            for (d, &o) in row.iter_mut().zip(offs) {
                *d = plane.get(o).copied().unwrap_or(0.0);
            }
        }
    }
}

/// Scatter-adds one image's band of a gradient column panel (rows of
/// stride `ld`, as [`im2col`] lays them out) back into that image's input
/// gradient. Accumulation order is a function of the geometry only (tap
/// row, then output position, each ascending), so results are
/// thread-width independent.
fn col2im_add(dcol: &[f32], ld: usize, dx_img: &mut [f32], offsets: &[usize], cg: ConvGeom) {
    let (l, kk) = (cg.len(), cg.kh * cg.kw);
    for (ci, plane) in dx_img.chunks_exact_mut(cg.h * cg.w).enumerate() {
        for (t, offs) in offsets.chunks_exact(l).enumerate() {
            let row = &dcol[(ci * kk + t) * ld..][..l];
            for (&g, &o) in row.iter().zip(offs) {
                if let Some(d) = plane.get_mut(o) {
                    *d += g;
                }
            }
        }
    }
}

/// Column panel of images `n0 .. n0+gn`: image `i`'s column matrix is the
/// band of columns `i·l .. (i+1)·l` of a `ckk × (gn·l)` row-major matrix.
fn column_panel(x: &[f32], n0: usize, gn: usize, offsets: &[usize], cg: ConvGeom) -> scratch::Scratch {
    let (l, image_in) = (cg.len(), cg.image_in());
    let mut col = scratch::take(cg.ckk() * gn * l);
    for i in 0..gn {
        im2col(&x[(n0 + i) * image_in..][..image_in], &mut col[i * l..], gn * l, offsets, cg);
    }
    col
}

/// 2-D convolution with stride and symmetric zero padding, lowered to
/// batch-folded im2col + packed GEMM: per group of images (see the module
/// docs) one product `W(c_out × c_in·kh·kw) · panel(c_in·kh·kw × g·oh·ow)`,
/// copied back to NCHW with the bias added on the way.
///
/// `weight` is `[out_c, in_c, kh, kw]`; `bias` is `[out_c]`. Groups
/// partition across the shared pool at or above [`PAR_THRESHOLD`] FLOPs (a
/// single-image batch lets the GEMM itself parallelize instead). Results
/// are bit-identical at any thread width, group size and batch size.
pub fn conv2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<Tensor, TensorError> {
    let cg = ConvGeom::new(input, weight, stride, pad)?;
    cg.check_bias(bias)?;
    let (ckk, l, image_out) = (cg.ckk(), cg.len(), cg.image_out());
    let x = input.data();
    let wref = MatRef::row_major(weight.data(), ckk);
    let bs = bias.data();
    let fan_out = cg.fans_out();
    let g = cg.group(fan_out);
    let mut out = scratch::take_vec(cg.b * image_out);
    let offsets = cg.tap_offsets();
    let run_group = |gi: usize, ochunk: &mut [f32]| {
        let gn = ochunk.len() / image_out;
        let ld = gn * l;
        let col = column_panel(x, gi * g, gn, &offsets, cg);
        let cref = MatRef::row_major(&col, ld);
        let mut y = scratch::take(cg.c_out * ld);
        if fan_out {
            gemm::gemm_serial(cg.c_out, ckk, ld, wref, cref, &mut y);
        } else {
            gemm::gemm(cg.c_out, ckk, ld, wref, cref, &mut y);
        }
        for (i, oimg) in ochunk.chunks_exact_mut(image_out).enumerate() {
            for (co, oplane) in oimg.chunks_exact_mut(l).enumerate() {
                let yrow = &y[co * ld + i * l..][..l];
                let bv = bs[co];
                if bv != 0.0 {
                    for (o, &v) in oplane.iter_mut().zip(yrow) {
                        *o = v + bv;
                    }
                } else {
                    oplane.copy_from_slice(yrow);
                }
            }
        }
    };
    if !out.is_empty() {
        if fan_out {
            pool::scope_chunks(&mut out, g * image_out, run_group);
        } else {
            out.chunks_mut(g * image_out).enumerate().for_each(|(gi, ochunk)| run_group(gi, ochunk));
        }
    }
    Tensor::from_vec([cg.b, cg.c_out, cg.oh, cg.ow], out)
}

/// Backward pass of [`conv2d`].
///
/// Returns `(d_input, d_weight, d_bias)` for the upstream gradient `grad`
/// shaped like the convolution output, from the batch-folded lowering
/// (`dX = col2im(Wᵀ · dY)` per group, `dW += dY_n · col_nᵀ` per image).
/// `dW`/`db` accumulate in image order, so results are bit-identical at
/// any thread width.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    with_dx(conv2d_backward_ex(input, weight, grad, stride, pad, true))
}

/// The direct scatter loops: the sequential reference for
/// [`conv2d_backward`], for differential tests and benches.
pub fn conv2d_backward_direct(
    input: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    with_dx(backward_with(backward_direct, input, weight, grad, stride, pad, true))
}

/// [`conv2d_backward`] for a caller that may not need the input gradient
/// (the lowest trainable layer of a fine-tuned network): with
/// `need_dx == false` the `d_input` slot is `None` and the work behind it
/// — the `Wᵀ · dY` product and col2im — is not done. `d_weight` / `d_bias`
/// are bitwise what [`conv2d_backward`] returns.
pub fn conv2d_backward_ex(
    input: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
    stride: usize,
    pad: usize,
    need_dx: bool,
) -> Result<(Option<Tensor>, Tensor, Tensor), TensorError> {
    backward_with(backward_lowered, input, weight, grad, stride, pad, need_dx)
}

fn with_dx(
    grads: Result<(Option<Tensor>, Tensor, Tensor), TensorError>,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    let (dx, dw, db) = grads?;
    Ok((dx.expect("need_dx was set"), dw, db))
}

fn add_into(acc: &mut [f32], part: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(part) {
        *a += v;
    }
}

/// Runs `f(unit, that unit's chunk of dx)` for `units` consecutive units on
/// the pool and returns the results in unit order.
fn map_units<R: Send>(
    units: usize,
    dx: Option<&mut [f32]>,
    chunk: usize,
    f: impl Fn(usize, Option<&mut [f32]>) -> R + Sync,
) -> Vec<R> {
    let mut chunks = dx.map(|d| d.chunks_mut(chunk.max(1)));
    let f = &f;
    let tasks: Vec<Box<dyn FnOnce() -> R + Send + '_>> = (0..units)
        .map(|u| {
            let dx_u = chunks.as_mut().and_then(Iterator::next);
            Box::new(move || f(u, dx_u)) as Box<dyn FnOnce() -> R + Send + '_>
        })
        .collect();
    pool::join_all(tasks)
}

/// The gradient kernels' shared signature: geometry, `x`, `w`, `dY`, then
/// the zeroed `dX` (when wanted), `dW` and `db` to accumulate into.
type BackwardKernel =
    fn(ConvGeom, &[f32], &[f32], &[f32], Option<&mut [f32]>, &mut [f32], &mut [f32]);

/// Validates one backward call and runs `kernel` over zeroed gradients.
fn backward_with(
    kernel: BackwardKernel,
    input: &Tensor,
    weight: &Tensor,
    grad: &Tensor,
    stride: usize,
    pad: usize,
    need_dx: bool,
) -> Result<(Option<Tensor>, Tensor, Tensor), TensorError> {
    let cg = ConvGeom::new(input, weight, stride, pad)?;
    let want = [cg.b, cg.c_out, cg.oh, cg.ow];
    if grad.shape().0 != want {
        return incompatible(format!(
            "conv grad shape {:?} does not match output {want:?}",
            grad.shape().0
        ));
    }
    let (x, wt, g) = (input.data(), weight.data(), grad.data());
    let mut dx = need_dx.then(|| vec![0.0f32; x.len()]);
    let mut dw = vec![0.0f32; wt.len()];
    let mut db = vec![0.0f32; cg.c_out];
    if cg.macs() > 0 {
        kernel(cg, x, wt, g, dx.as_deref_mut(), &mut dw, &mut db);
    }
    Ok((
        dx.map(|dx| Tensor::from_vec(input.shape().clone(), dx)).transpose()?,
        Tensor::from_vec(weight.shape().clone(), dw)?,
        Tensor::from_vec([cg.c_out], db)?,
    ))
}

/// Direct reference: image by image, each scattering into its own dx
/// slice and into local dw/db copies merged in image order.
#[allow(clippy::needless_range_loop)]
fn backward_direct(
    cg: ConvGeom,
    x: &[f32],
    wt: &[f32],
    g: &[f32],
    dx: Option<&mut [f32]>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let ConvGeom { c_in, c_out, h, w, kh, kw, oh, ow, stride, pad, .. } = cg;
    let image_grads = |n: usize, mut dx_img: Option<&mut [f32]>| -> (Vec<f32>, Vec<f32>) {
        let mut dw_n = vec![0.0f32; wt.len()];
        let mut db_n = vec![0.0f32; c_out];
        for co in 0..c_out {
            let obase = ((n * c_out) + co) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let gv = g[obase + oy * ow + ox];
                    if gv == 0.0 {
                        continue;
                    }
                    db_n[co] += gv;
                    for ci in 0..c_in {
                        let ibase = ((n * c_in) + ci) * h * w;
                        let xbase = ci * h * w;
                        let wbase = ((co * c_in) + ci) * kh * kw;
                        for ky in 0..kh {
                            let iy = (oy * stride + ky) as isize - pad as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..kw {
                                let ix = (ox * stride + kx) as isize - pad as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let off = iy as usize * w + ix as usize;
                                let wi = wbase + ky * kw + kx;
                                if let Some(dx_img) = dx_img.as_deref_mut() {
                                    dx_img[xbase + off] += gv * wt[wi];
                                }
                                dw_n[wi] += gv * x[ibase + off];
                            }
                        }
                    }
                }
            }
        }
        (dw_n, db_n)
    };
    let mut dx_images = dx.map(|d| d.chunks_mut(cg.image_in()));
    for n in 0..cg.b {
        let (dw_n, db_n) = image_grads(n, dx_images.as_mut().and_then(Iterator::next));
        add_into(dw, &dw_n);
        add_into(db, &db_n);
    }
}

/// Batch-folded im2col strategy. Per group: when `dx` is wanted,
/// `dcol = Wᵀ · dY` as one GEMM over the group's columns and col2im per
/// image; then rebuild the column panel and, per image in image order,
/// `dW += dY_n · col_nᵀ` and `db += Σ dY_n`.
///
/// The GEMM engine computes `out += A·B`, one addend per `KC` block of the
/// shared dimension (here `l`). With a single block, accumulating an
/// image straight onto the running `dW` is the same float expression as
/// the partial-then-merge form `dW + (0.0 + A·B)`: a block sum is a chain
/// started at `+0.0` and so is never `-0.0`, the only value `0.0 +` could
/// change. With several blocks the image's partial must be summed first
/// (`dW + (p₀ + p₁)`, not `(dW + p₀) + p₁`), in a scratch buffer. Pooled
/// groups cannot see the running `dW`, so each image gets a zeroed slot
/// and the slots merge in image order afterwards — again the same
/// expression, so sequential and pooled runs agree bit for bit.
fn backward_lowered(
    cg: ConvGeom,
    x: &[f32],
    wt: &[f32],
    g: &[f32],
    dx: Option<&mut [f32]>,
    dw: &mut [f32],
    db: &mut [f32],
) {
    let (ckk, l, c_out) = (cg.ckk(), cg.len(), cg.c_out);
    let (wlen, image_out) = (wt.len(), cg.image_out());
    let fan_out = cg.fans_out();
    let gsz = cg.group(fan_out);
    let groups = cg.b.div_ceil(gsz);
    let single_block = l <= gemm::kernel_info().1.kc;
    let offsets = cg.tap_offsets();
    let mm: fn(usize, usize, usize, MatRef, MatRef, &mut [f32]) =
        if fan_out { gemm::gemm_serial } else { gemm::gemm };

    // `slots`: image `i` of the group accumulates into its own
    // `dw[i·wlen ..]` / `db[i·c_out ..]` rather than all into `dw[..wlen]`.
    let run_group =
        |gi: usize, dx_group: Option<&mut [f32]>, dw: &mut [f32], db: &mut [f32], slots: bool| {
            let n0 = gi * gsz;
            let gn = gsz.min(cg.b - n0);
            let ld = gn * l;
            // dX first, so its panel-sized scratch is back in the arena
            // before the column panel is taken.
            if let Some(dx_group) = dx_group {
                // dY of the group, out-channel major: `c_out × (gn·l)`.
                let mut dy = scratch::take(c_out * ld);
                for (i, g_n) in g[n0 * image_out..][..gn * image_out].chunks_exact(image_out).enumerate() {
                    for (co, g_plane) in g_n.chunks_exact(l).enumerate() {
                        dy[co * ld + i * l..][..l].copy_from_slice(g_plane);
                    }
                }
                let mut dcol = scratch::take(ckk * ld);
                mm(ckk, c_out, ld, MatRef::transposed(wt, ckk), MatRef::row_major(&dy, ld), &mut dcol);
                for (i, dx_img) in dx_group.chunks_exact_mut(cg.image_in()).enumerate() {
                    col2im_add(&dcol[i * l..], ld, dx_img, &offsets, cg);
                }
            }
            let col = column_panel(x, n0, gn, &offsets, cg);
            for i in 0..gn {
                let slot = if slots { i } else { 0 };
                let dw_i = &mut dw[slot * wlen..][..wlen];
                let db_i = &mut db[slot * c_out..][..c_out];
                let g_n = &g[(n0 + i) * image_out..][..image_out];
                let gref = MatRef::row_major(g_n, l);
                // col_nᵀ (l × ckk): the image's band of the panel, read transposed.
                let col_t = MatRef { data: &col[i * l..], rs: 1, cs: ld };
                if slots || single_block {
                    mm(c_out, l, ckk, gref, col_t, dw_i);
                } else {
                    let mut dw_n = scratch::take(wlen);
                    mm(c_out, l, ckk, gref, col_t, &mut dw_n);
                    add_into(dw_i, &dw_n);
                }
                for (dbv, g_plane) in db_i.iter_mut().zip(g_n.chunks_exact(l)) {
                    *dbv += g_plane.iter().sum::<f32>();
                }
            }
        };

    let run_group = &run_group;
    if !fan_out {
        let mut dx_groups = dx.map(|d| d.chunks_mut(gsz * cg.image_in()));
        for gi in 0..groups {
            run_group(gi, dx_groups.as_mut().and_then(Iterator::next), dw, db, false);
        }
        return;
    }
    let slotted = map_units(groups, dx, gsz * cg.image_in(), |gi, dx_group| {
        let gn = gsz.min(cg.b - gi * gsz);
        let (mut dws, mut dbs) = (vec![0.0f32; gn * wlen], vec![0.0f32; gn * c_out]);
        run_group(gi, dx_group, &mut dws, &mut dbs, true);
        (dws, dbs)
    });
    for (dws, dbs) in &slotted {
        dws.chunks_exact(wlen).for_each(|dw_n| add_into(dw, dw_n));
        dbs.chunks_exact(c_out).for_each(|db_n| add_into(db, db_n));
    }
}

/// Max pooling with a square window; returns `(output, argmax_indices)` where
/// the indices point into the flattened input and feed the backward pass.
pub fn max_pool2d(
    input: &Tensor,
    k: usize,
    stride: usize,
) -> Result<(Tensor, Vec<u32>), TensorError> {
    let (b, c, h, w) = dims4(input, "pool input")?;
    let oh = conv_out_dim(h, k, stride, 0)?;
    let ow = conv_out_dim(w, k, stride, 0)?;
    let x = input.data();
    let mut out = vec![0.0f32; b * c * oh * ow];
    let mut idx = vec![0u32; b * c * oh * ow];
    for n in 0..b {
        for ci in 0..c {
            let ibase = ((n * c) + ci) * h * w;
            let obase = ((n * c) + ci) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_i = 0usize;
                    for ky in 0..k {
                        for kx in 0..k {
                            let ii = ibase + (oy * stride + ky) * w + (ox * stride + kx);
                            if x[ii] > best {
                                best = x[ii];
                                best_i = ii;
                            }
                        }
                    }
                    out[obase + oy * ow + ox] = best;
                    idx[obase + oy * ow + ox] = best_i as u32;
                }
            }
        }
    }
    Ok((Tensor::from_vec([b, c, oh, ow], out)?, idx))
}

/// Backward pass of [`max_pool2d`]: routes each output gradient to the input
/// element that was the window maximum.
pub fn max_pool2d_backward(
    input_shape: &crate::Shape,
    argmax: &[u32],
    grad: &Tensor,
) -> Result<Tensor, TensorError> {
    if argmax.len() != grad.len() {
        return Err(TensorError::Incompatible(format!(
            "argmax length {} vs grad {}",
            argmax.len(),
            grad.len()
        )));
    }
    let mut dx = vec![0.0f32; input_shape.num_elements()];
    for (&i, &g) in argmax.iter().zip(grad.data()) {
        dx[i as usize] += g;
    }
    Tensor::from_vec(input_shape.clone(), dx)
}

/// Global average pooling: `[b, c, h, w] -> [b, c]`.
///
/// The backward pass is a uniform spread of `grad / (h*w)`, done inline by the
/// pooling layer in `nautilus-dnn`.
pub fn avg_pool2d_global(input: &Tensor) -> Result<Tensor, TensorError> {
    let (b, c, h, w) = dims4(input, "gap input")?;
    let x = input.data();
    let inv = 1.0 / (h * w) as f32;
    let mut out = vec![0.0f32; b * c];
    for n in 0..b {
        for ci in 0..c {
            let ibase = ((n * c) + ci) * h * w;
            out[n * c + ci] = x[ibase..ibase + h * w].iter().sum::<f32>() * inv;
        }
    }
    Tensor::from_vec([b, c], out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};
    use nautilus_util::pool::with_parallelism_limit;
    use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(8, 3, 1, 1).unwrap(), 8); // "same" padding
        assert_eq!(conv_out_dim(8, 3, 2, 1).unwrap(), 4);
        assert_eq!(conv_out_dim(8, 2, 2, 0).unwrap(), 4);
        assert_eq!(conv_out_dim(3, 5, 1, 1).unwrap(), 1); // window == padded input
    }

    #[test]
    fn out_dim_rejects_zero_stride() {
        assert!(matches!(conv_out_dim(8, 3, 0, 1), Err(TensorError::Incompatible(_))));
        let x = Tensor::zeros([1, 1, 4, 4]);
        let w = Tensor::zeros([1, 1, 3, 3]);
        assert!(conv2d(&x, &w, &Tensor::zeros([1]), 0, 1).is_err());
    }

    #[test]
    fn out_dim_rejects_window_larger_than_padded_input() {
        assert!(matches!(conv_out_dim(2, 5, 1, 1), Err(TensorError::Incompatible(_))));
        assert!(matches!(conv_out_dim(4, 0, 1, 0), Err(TensorError::Incompatible(_))));
        let x = Tensor::zeros([1, 1, 2, 2]);
        let w = Tensor::zeros([1, 1, 3, 3]);
        assert!(conv2d(&x, &w, &Tensor::zeros([1]), 1, 0).is_err());
    }

    #[test]
    fn max_pool_rejects_window_larger_than_input() {
        // Two channels: the old loops read channel 1's plane for channel 0
        // and ran off the end of the buffer for channel 1.
        let x = Tensor::ones([1, 2, 2, 2]);
        assert!(matches!(max_pool2d(&x, 3, 1), Err(TensorError::Incompatible(_))));
        assert!(matches!(max_pool2d(&x, 2, 0), Err(TensorError::Incompatible(_))));
    }

    #[test]
    fn rejects_images_without_elements() {
        // Padding alone would give these an output geometry.
        let w = Tensor::ones([2, 3, 1, 1]);
        for shape in [[2usize, 3, 0, 4], [2, 3, 4, 0]] {
            let x = Tensor::zeros(shape);
            assert!(matches!(conv2d(&x, &w, &Tensor::zeros([2]), 1, 1), Err(TensorError::Incompatible(_))));
        }
        let none = Tensor::zeros([2, 0, 4, 4]);
        assert!(conv2d(&none, &Tensor::ones([2, 0, 1, 1]), &Tensor::zeros([2]), 1, 0).is_err());
    }

    #[test]
    fn backward_rejects_weight_channel_mismatch() {
        let x = Tensor::ones([2, 3, 4, 4]);
        let g = Tensor::ones([2, 5, 4, 4]);
        for wc_in in [2usize, 4] {
            let w = Tensor::ones([5, wc_in, 3, 3]);
            for backward in [conv2d_backward, conv2d_backward_direct] {
                let got = backward(&x, &w, &g, 1, 1);
                assert!(matches!(got, Err(TensorError::Incompatible(_))), "in-channels {wc_in}");
            }
        }
    }

    #[test]
    fn backward_rejects_grad_of_another_geometry() {
        let x = Tensor::ones([2, 3, 8, 8]);
        let w = Tensor::ones([5, 3, 3, 3]);
        // Output of stride 2 / pad 1 is 4×4; these are other convolutions'.
        for shape in [[2usize, 5, 8, 8], [2, 5, 4, 3], [1, 5, 4, 4], [2, 4, 4, 4]] {
            let g = Tensor::ones(shape);
            for backward in [conv2d_backward, conv2d_backward_direct] {
                let got = backward(&x, &w, &g, 2, 1);
                assert!(matches!(got, Err(TensorError::Incompatible(_))), "{shape:?}");
            }
        }
        assert!(conv2d_backward(&x, &w, &Tensor::ones([2, 5, 4, 4]), 2, 1).is_ok());
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1x1 kernel with weight 1, bias 0 == identity.
        let x = randn([1, 1, 3, 3], 1.0, &mut seeded_rng(1));
        let w = Tensor::ones([1, 1, 1, 1]);
        let b = Tensor::zeros([1]);
        let y = conv2d(&x, &w, &b, 1, 0).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_hand_checked_3x3() {
        // 2x2 input, 2x2 kernel, no pad, stride 1 -> single output.
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let w = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let b = Tensor::from_vec([1], vec![0.5]).unwrap();
        let y = conv2d(&x, &w, &b, 1, 0).unwrap();
        assert_eq!(y.shape().0, vec![1, 1, 1, 1]);
        assert_eq!(y.data(), &[1.0 + 4.0 + 0.5]);
    }

    #[test]
    fn conv_same_padding_keeps_spatial_dims() {
        let x = randn([2, 3, 5, 5], 1.0, &mut seeded_rng(2));
        let w = randn([4, 3, 3, 3], 0.1, &mut seeded_rng(3));
        let b = Tensor::zeros([4]);
        let y = conv2d(&x, &w, &b, 1, 1).unwrap();
        assert_eq!(y.shape().0, vec![2, 4, 5, 5]);
    }

    #[test]
    fn conv_backward_matches_finite_difference() {
        let x = randn([1, 2, 4, 4], 1.0, &mut seeded_rng(4));
        let w = randn([3, 2, 3, 3], 0.2, &mut seeded_rng(5));
        let b = Tensor::zeros([3]);
        let loss = |xi: &Tensor, wi: &Tensor| conv2d(xi, wi, &b, 1, 1).unwrap().sum();
        let g = Tensor::ones(conv2d(&x, &w, &b, 1, 1).unwrap().shape().clone());
        let (dx, dw, db) = conv2d_backward(&x, &w, &g, 1, 1).unwrap();
        let eps = 1e-2f32;
        // Spot-check a few input coordinates.
        for &i in &[0usize, 7, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp, &w) - loss(&xm, &w)) / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 2e-2, "dx[{i}]: {num} vs {}", dx.data()[i]);
        }
        // Spot-check a few weight coordinates.
        for &i in &[0usize, 5, 17, 53] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let num = (loss(&x, &wp) - loss(&x, &wm)) / (2.0 * eps);
            assert!((num - dw.data()[i]).abs() < 5e-2, "dw[{i}]: {num} vs {}", dw.data()[i]);
        }
        // Bias gradient: each output position contributes 1.
        assert!(db.data().iter().all(|&v| (v - 16.0).abs() < 1e-4));
    }

    #[test]
    fn pooled_conv_identical_across_thread_limits() {
        // Big enough to cross PAR_THRESHOLD: 8*16*16*16*8*3*3*2 ≈ 4.7M.
        let x = randn([8, 8, 16, 16], 1.0, &mut seeded_rng(11));
        let w = randn([16, 8, 3, 3], 0.2, &mut seeded_rng(12));
        let b = Tensor::zeros([16]);
        let fwd_ref = with_parallelism_limit(1, || conv2d(&x, &w, &b, 1, 1).unwrap());
        let g = randn(fwd_ref.shape().clone(), 1.0, &mut seeded_rng(13));
        let bwd_ref = with_parallelism_limit(1, || conv2d_backward(&x, &w, &g, 1, 1).unwrap());
        for limit in [2usize, 8] {
            let fwd = with_parallelism_limit(limit, || conv2d(&x, &w, &b, 1, 1).unwrap());
            assert_eq!(fwd, fwd_ref, "forward diverged at limit {limit}");
            let (dx, dw, db) =
                with_parallelism_limit(limit, || conv2d_backward(&x, &w, &g, 1, 1).unwrap());
            assert_eq!(dx, bwd_ref.0, "dx diverged at limit {limit}");
            assert_eq!(dw, bwd_ref.1, "dw diverged at limit {limit}");
            assert_eq!(db, bwd_ref.2, "db diverged at limit {limit}");
        }
    }

    // -----------------------------------------------------------------
    // Bitwise differential tests against the per-image lowering
    // -----------------------------------------------------------------

    /// One convolution problem of the differential grid (square images
    /// and kernels).
    #[derive(Clone, Copy, Debug)]
    struct Case {
        b: usize,
        c_in: usize,
        c_out: usize,
        hw: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bias: bool,
    }

    impl Case {
        /// Salted operands `(x, w, bias, dY)`; the seed is the geometry.
        fn operands(&self) -> (Tensor, Tensor, Tensor, Tensor) {
            let Case { b, c_in, c_out, hw, k, stride, pad, bias } = *self;
            let seed = [b, c_in, c_out, hw, k, stride, pad]
                .iter()
                .fold(0xC0_4Fu64, |s, &v| s.wrapping_mul(0x100_0000_01B3) ^ v as u64);
            let o = conv_out_dim(hw, k, stride, pad).unwrap();
            let t = |salt: u64, shape: [usize; 4]| {
                Tensor::from_vec(shape, salted(seed ^ salt, shape.iter().product())).unwrap()
            };
            let bias = if bias {
                Tensor::from_vec([c_out], salted(seed ^ 3, c_out)).unwrap()
            } else {
                Tensor::zeros([c_out])
            };
            (t(1, [b, c_in, hw, hw]), t(2, [c_out, c_in, k, k]), bias, t(4, [b, c_out, o, o]))
        }
    }

    /// [`im2col`] as the per-image lowering had it: the padding tests in
    /// the loops, no offset table.
    fn reference_im2col(x_img: &[f32], col: &mut [f32], ld: usize, cg: ConvGeom) {
        let ConvGeom { c_in, h, w, kh, kw, oh, ow, stride, pad, .. } = cg;
        let l = cg.len();
        for ci in 0..c_in {
            let xc = &x_img[ci * h * w..(ci + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (ci * kh + ky) * kw + kx;
                    let row = &mut col[r * ld..r * ld + l];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        let dst = &mut row[oy * ow..(oy + 1) * ow];
                        if iy < 0 || iy >= h as isize {
                            dst.fill(0.0);
                            continue;
                        }
                        let xrow = &xc[iy as usize * w..(iy as usize + 1) * w];
                        for (ox, d) in dst.iter_mut().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            *d = if ix < 0 || ix >= w as isize { 0.0 } else { xrow[ix as usize] };
                        }
                    }
                }
            }
        }
    }

    /// [`col2im_add`] likewise.
    fn reference_col2im_add(dcol: &[f32], ld: usize, dx_img: &mut [f32], cg: ConvGeom) {
        let ConvGeom { c_in, h, w, kh, kw, oh, ow, stride, pad, .. } = cg;
        let l = cg.len();
        for ci in 0..c_in {
            let dxc = &mut dx_img[ci * h * w..(ci + 1) * h * w];
            for ky in 0..kh {
                for kx in 0..kw {
                    let r = (ci * kh + ky) * kw + kx;
                    let row = &dcol[r * ld..r * ld + l];
                    for oy in 0..oh {
                        let iy = (oy * stride + ky) as isize - pad as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        let src = &row[oy * ow..(oy + 1) * ow];
                        for (ox, &g) in src.iter().enumerate() {
                            let ix = (ox * stride + kx) as isize - pad as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            dxc[iy as usize * w + ix as usize] += g;
                        }
                    }
                }
            }
        }
    }

    /// The lowering this module ran before the batch was folded into the
    /// GEMM, kept as the bitwise reference: one column matrix and one GEMM
    /// per image, bias added in place afterwards.
    fn reference_forward(x: &Tensor, w: &Tensor, bias: &Tensor, stride: usize, pad: usize) -> Tensor {
        let cg = ConvGeom::new(x, w, stride, pad).unwrap();
        let (ckk, l) = (cg.ckk(), cg.len());
        let mut out = vec![0.0f32; cg.b * cg.image_out()];
        for (n, ochunk) in out.chunks_exact_mut(cg.image_out()).enumerate() {
            let mut col = vec![0.0f32; ckk * l];
            reference_im2col(&x.data()[n * cg.image_in()..][..cg.image_in()], &mut col, l, cg);
            let (wref, cref) = (MatRef::row_major(w.data(), ckk), MatRef::row_major(&col, l));
            gemm::gemm_serial(cg.c_out, ckk, l, wref, cref, ochunk);
            for (co, oplane) in ochunk.chunks_exact_mut(l).enumerate() {
                let bv = bias.data()[co];
                if bv != 0.0 {
                    for o in oplane.iter_mut() {
                        *o += bv;
                    }
                }
            }
        }
        Tensor::from_vec([cg.b, cg.c_out, cg.oh, cg.ow], out).unwrap()
    }

    /// Backward of the per-image lowering: per image `dW_n = dY_n · col_nᵀ`
    /// and `dX_n = col2im(Wᵀ · dY_n)` as two GEMMs into zeroed buffers,
    /// `dW_n` / `db_n` partials merged in image order.
    fn reference_backward(x: &Tensor, w: &Tensor, grad: &Tensor, stride: usize, pad: usize) -> [Vec<f32>; 3] {
        let cg = ConvGeom::new(x, w, stride, pad).unwrap();
        let (ckk, l, c_out) = (cg.ckk(), cg.len(), cg.c_out);
        let (wt, g) = (w.data(), grad.data());
        let mut dx = vec![0.0f32; x.len()];
        let mut dw = vec![0.0f32; wt.len()];
        let mut db = vec![0.0f32; c_out];
        for (n, dx_img) in dx.chunks_exact_mut(cg.image_in()).enumerate() {
            let mut col = vec![0.0f32; ckk * l];
            reference_im2col(&x.data()[n * cg.image_in()..][..cg.image_in()], &mut col, l, cg);
            let g_n = &g[n * c_out * l..(n + 1) * c_out * l];
            let gref = MatRef::row_major(g_n, l);
            let mut dw_n = vec![0.0f32; wt.len()];
            let mut dcol = vec![0.0f32; ckk * l];
            gemm::gemm_serial(c_out, l, ckk, gref, MatRef::transposed(&col, l), &mut dw_n);
            gemm::gemm_serial(ckk, c_out, l, MatRef::transposed(wt, ckk), gref, &mut dcol);
            reference_col2im_add(&dcol, l, dx_img, cg);
            let mut db_n = vec![0.0f32; c_out];
            for (co, dbv) in db_n.iter_mut().enumerate() {
                *dbv = g_n[co * l..(co + 1) * l].iter().sum();
            }
            add_into(&mut dw, &dw_n);
            add_into(&mut db, &db_n);
        }
        [dx, dw, db]
    }

    /// Folded forward / dX / dW / db against the per-image reference, bit
    /// for bit, and the `need_dx = false` run against the same dW / db.
    fn check(c: Case) {
        let (x, w, bias, dy) = c.operands();
        let want = reference_forward(&x, &w, &bias, c.stride, c.pad);
        let got = conv2d(&x, &w, &bias, c.stride, c.pad).unwrap();
        assert_eq!(bits(got.data()), bits(want.data()), "forward {c:?}");

        let [want_dx, want_dw, want_db] = reference_backward(&x, &w, &dy, c.stride, c.pad);
        let (dx, dw, db) = conv2d_backward(&x, &w, &dy, c.stride, c.pad).unwrap();
        assert_eq!(bits(dx.data()), bits(&want_dx), "dX {c:?}");
        assert_eq!(bits(dw.data()), bits(&want_dw), "dW {c:?}");
        assert_eq!(bits(db.data()), bits(&want_db), "db {c:?}");
        let (none, dw, db) = conv2d_backward_ex(&x, &w, &dy, c.stride, c.pad, false).unwrap();
        assert!(none.is_none());
        assert_eq!(bits(dw.data()), bits(&want_dw), "dW without dX {c:?}");
        assert_eq!(bits(db.data()), bits(&want_db), "db without dX {c:?}");
    }

    /// The input extent that gives `o` output positions per axis, if any.
    fn extent_for(o: usize, k: usize, stride: usize, pad: usize) -> Option<usize> {
        ((o - 1) * stride + k).checked_sub(2 * pad).filter(|&hw| hw >= 1)
    }

    /// `l = o²` ∈ {1, 4, 16, 64, 169 (> the fma kernel's KC), 256, 324
    /// (> the safe kernel's KC)} × every kernel / stride / pad, over
    /// batches 1–9 (the three largest `l` at 1 and 9 only, to keep a debug
    /// build quick) with the bias zero on alternate cases. With 3
    /// in-channels the panel budget holds 7 images of `l` = 324, so there
    /// b = 9 splits into groups of 5 and 4.
    #[test]
    fn folded_grid_bitwise_vs_reference() {
        let mut cases = 0usize;
        for o in [1usize, 2, 4, 8, 13, 16, 18] {
            for (k, stride, pad) in
                [(1, 1, 0), (1, 2, 0), (1, 1, 1), (1, 2, 1), (3, 1, 0), (3, 2, 0), (3, 1, 1), (3, 2, 1)]
            {
                let Some(hw) = extent_for(o, k, stride, pad) else { continue };
                let batches: &[usize] = if o > 8 { &[1, 9] } else { &[1, 2, 4, 8, 9] };
                for &b in batches {
                    cases += 1;
                    check(Case { b, c_in: 3, c_out: 5, hw, k, stride, pad, bias: cases.is_multiple_of(2) });
                }
            }
        }
        assert!(cases > 150, "grid shrank to {cases} cases");
    }

    /// Group sizes at the panel budget's edges: one image per group (a
    /// panel of one image already exceeds half the budget), groups of 4
    /// with two images left over, and out-channel counts on both sides of
    /// the 8- and 6-row register tiles.
    #[test]
    fn folded_group_edges_bitwise_vs_reference() {
        let one = Case { b: 2, c_in: 12, c_out: 7, hw: 18, k: 3, stride: 1, pad: 1, bias: true };
        let cg = {
            let (x, w, ..) = one.operands();
            ConvGeom::new(&x, &w, 1, 1).unwrap()
        };
        assert_eq!(cg.group(false), 1, "sizing: 108 × 324 floats per image");
        check(one);
        let four = Case { b: 10, c_in: 7, c_out: 9, hw: 16, k: 3, stride: 1, pad: 1, bias: false };
        let cg = {
            let (x, w, ..) = four.operands();
            ConvGeom::new(&x, &w, 1, 1).unwrap()
        };
        assert_eq!(cg.group(false), 4, "sizing: 63 × 256 floats per image, groups 4 + 4 + 2");
        check(four);
        // The FTU shapes: wide channels over few positions.
        check(Case { b: 8, c_in: 32, c_out: 32, hw: 2, k: 3, stride: 1, pad: 1, bias: true });
        check(Case { b: 9, c_in: 24, c_out: 32, hw: 4, k: 3, stride: 2, pad: 1, bias: true });
        check(Case { b: 4, c_in: 16, c_out: 24, hw: 4, k: 1, stride: 2, pad: 0, bias: false });
    }

    /// At and above `PAR_THRESHOLD` groups fan out: every pool width must
    /// reproduce the per-image reference (slots merged in image order ==
    /// accumulated in place), both with one `KC` block per image and with
    /// several (`l` = 324).
    #[test]
    fn folded_pool_widths_bitwise_vs_reference() {
        let cases = [
            Case { b: 8, c_in: 8, c_out: 16, hw: 16, k: 3, stride: 1, pad: 1, bias: true },
            Case { b: 9, c_in: 6, c_out: 16, hw: 18, k: 3, stride: 1, pad: 1, bias: false },
        ];
        for c in cases {
            let (x, w, ..) = c.operands();
            let cg = ConvGeom::new(&x, &w, c.stride, c.pad).unwrap();
            assert!(2 * cg.macs() >= PAR_THRESHOLD, "sizing {c:?}");
            for limit in [1usize, 2, 8] {
                with_parallelism_limit(limit, || check(c));
            }
        }
    }

    /// An image's bits do not depend on its batch-mates: the first `k`
    /// images of a batch of `n` are the batch of `k`, forward and `dX`,
    /// through the public entry points. The three fixed cases are the
    /// MiniResNet projection shapes whose whole-batch work crossed the old
    /// direct-vs-lowered threshold between a batch of 4 and one of 24.
    #[test]
    fn lowered_batch_prefix_bitwise_vs_reference() {
        use nautilus_util::prop::{prop_check, usizes};
        let prefix_holds = |c_in: usize, c_out: usize, hw: usize, k: usize, stride: usize, pad: usize, bias: bool| {
            for n in [8usize, 24] {
                let (x, w, bias, dy) = Case { b: n, c_in, c_out, hw, k, stride, pad, bias }.operands();
                let full = conv2d(&x, &w, &bias, stride, pad).map_err(|e| e.to_string())?;
                let (full_dx, ..) = conv2d_backward(&x, &w, &dy, stride, pad).map_err(|e| e.to_string())?;
                let (image_in, image_out) = (x.len() / n, full.len() / n);
                for prefix in [1usize, 4] {
                    let head = |t: &Tensor, per: usize| {
                        let mut dims = t.shape().0.clone();
                        dims[0] = prefix;
                        Tensor::from_vec(dims, t.data()[..prefix * per].to_vec()).unwrap()
                    };
                    let (hx, hdy) = (head(&x, image_in), head(&dy, image_out));
                    let alone = conv2d(&hx, &w, &bias, stride, pad).map_err(|e| e.to_string())?;
                    nautilus_util::prop_assert_eq!(
                        bits(alone.data()),
                        bits(&full.data()[..prefix * image_out])
                    );
                    let (dx, ..) = conv2d_backward(&hx, &w, &hdy, stride, pad).map_err(|e| e.to_string())?;
                    nautilus_util::prop_assert_eq!(
                        bits(dx.data()),
                        bits(&full_dx.data()[..prefix * image_in])
                    );
                }
            }
            Ok(())
        };
        for (c_in, c_out, hw, k, pad) in [(8, 16, 16, 1, 0), (24, 32, 4, 3, 1), (16, 24, 8, 1, 0)] {
            prefix_holds(c_in, c_out, hw, k, 2, pad, true).unwrap_or_else(|e: String| panic!("{e}"));
        }
        let gen = (usizes(1..33), usizes(1..33), usizes(1..9), usizes(0..8));
        prop_check(0xBA7C4, 24, &gen, |&(c_in, c_out, hw, variant)| {
            let (k, stride, pad) = [(1, 1, 0), (1, 2, 0), (3, 1, 1), (3, 2, 1)][variant % 4];
            prefix_holds(c_in, c_out, hw, k, stride, pad, variant >= 4)
        });
    }

    #[test]
    fn max_pool_and_backward() {
        let x = Tensor::from_vec(
            [1, 1, 2, 4],
            vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 7.0],
        )
        .unwrap();
        let (y, idx) = max_pool2d(&x, 2, 2).unwrap();
        assert_eq!(y.shape().0, vec![1, 1, 1, 2]);
        assert_eq!(y.data(), &[5.0, 7.0]);
        let g = Tensor::from_vec([1, 1, 1, 2], vec![1.0, 2.0]).unwrap();
        let dx = max_pool2d_backward(x.shape(), &idx, &g).unwrap();
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn global_avg_pool() {
        let x = Tensor::from_vec([1, 2, 2, 2], vec![1.0, 2.0, 3.0, 4.0, 10.0, 10.0, 10.0, 10.0])
            .unwrap();
        let y = avg_pool2d_global(&x).unwrap();
        assert_eq!(y.shape().0, vec![1, 2]);
        assert_eq!(y.data(), &[2.5, 10.0]);
    }

    #[test]
    fn rank_checks() {
        let x3 = Tensor::zeros([1, 2, 3]);
        assert!(avg_pool2d_global(&x3).is_err());
        assert!(max_pool2d(&x3, 2, 2).is_err());
    }
}
