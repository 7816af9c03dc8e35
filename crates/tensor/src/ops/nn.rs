//! Neural-network primitives: activations, softmax, layer norm, and the
//! cross-entropy loss, each paired with its backward function.
//!
//! All "last"-suffixed functions operate independently on every
//! innermost-axis vector, treating the tensor as `(outer, last)` rows.

use super::reduce::sum_rows;
use crate::{Tensor, TensorError};

/// Rectified linear unit.
pub fn relu(a: &Tensor) -> Tensor {
    a.map(|x| x.max(0.0))
}

/// Gradient of [`relu`]: passes `grad` where the *input* was positive.
pub fn relu_backward(input: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
    input.shape().expect_eq(grad.shape())?;
    let mut out = grad.clone();
    for (g, &x) in out.data_mut().iter_mut().zip(input.data()) {
        if x <= 0.0 {
            *g = 0.0;
        }
    }
    Ok(out)
}

/// GELU activation (tanh approximation, as used by BERT).
pub fn gelu(a: &Tensor) -> Tensor {
    a.map(gelu_scalar)
}

const GELU_C: f32 = 0.797_884_6; // sqrt(2/pi)

/// The tanh factor of the approximation: `tanh(C·(x + 0.044715·x³))`.
fn gelu_tanh(x: f32) -> f32 {
    (GELU_C * (x + 0.044_715 * x * x * x)).tanh()
}

fn gelu_scalar(x: f32) -> f32 {
    0.5 * x * (1.0 + gelu_tanh(x))
}

/// [`gelu`] that also returns its tanh factor `t` (same shape), so a
/// training forward pays the `tanh` once: [`gelu_backward_cached`] reads
/// `t` back instead of recomputing it.
pub fn gelu_with_tanh(a: &Tensor) -> (Tensor, Tensor) {
    let t = a.map(gelu_tanh);
    let mut out = a.clone();
    for (o, &tv) in out.data_mut().iter_mut().zip(t.data()) {
        *o = 0.5 * *o * (1.0 + tv);
    }
    (out, t)
}

/// `d gelu / dx` from the input `x` and its tanh factor `t`.
fn gelu_grad_from_tanh(x: f32, t: f32) -> f32 {
    let du = GELU_C * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// Gradient of [`gelu`] with respect to its input.
pub fn gelu_backward(input: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
    gelu_backward_cached(input, &input.map(gelu_tanh), grad)
}

/// [`gelu_backward`] given the tanh factor cached by [`gelu_with_tanh`].
pub fn gelu_backward_cached(
    input: &Tensor,
    tanh: &Tensor,
    grad: &Tensor,
) -> Result<Tensor, TensorError> {
    input.shape().expect_eq(grad.shape())?;
    input.shape().expect_eq(tanh.shape())?;
    let mut out = grad.clone();
    for ((g, &x), &t) in out.data_mut().iter_mut().zip(input.data()).zip(tanh.data()) {
        *g *= gelu_grad_from_tanh(x, t);
    }
    Ok(out)
}

/// Hyperbolic-tangent activation.
pub fn tanh_act(a: &Tensor) -> Tensor {
    a.map(f32::tanh)
}

/// Gradient of [`tanh_act`] given the *output* `y = tanh(x)`.
pub fn tanh_backward(output: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
    output.shape().expect_eq(grad.shape())?;
    let mut out = grad.clone();
    for (g, &y) in out.data_mut().iter_mut().zip(output.data()) {
        *g *= 1.0 - y * y;
    }
    Ok(out)
}

/// Softmax of one row, in place — the row body shared by [`softmax_last`]
/// and the fused attention kernel ([`super::attention`]).
pub(crate) fn softmax_row(row: &mut [f32]) {
    let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut sum = 0.0f32;
    for o in row.iter_mut() {
        *o = (*o - max).exp();
        sum += *o;
    }
    let inv = 1.0 / sum;
    for o in row.iter_mut() {
        *o *= inv;
    }
}

/// Numerically stable softmax over the innermost axis.
pub fn softmax_last(a: &Tensor) -> Tensor {
    let mut out = a.clone();
    let cols = a.shape().last_dim();
    if cols > 0 {
        out.data_mut().chunks_exact_mut(cols).for_each(softmax_row);
    }
    out
}

/// Softmax gradient of one row, in place: `g` holds the upstream gradient
/// on entry and `y ⊙ (g − ⟨g, y⟩)` on return. Shared by
/// [`softmax_last_backward`] and the fused attention kernel.
pub(crate) fn softmax_backward_row(y: &[f32], g: &mut [f32]) {
    let dot: f32 = y.iter().zip(g.iter()).map(|(&a, &b)| a * b).sum();
    for (gv, &yv) in g.iter_mut().zip(y) {
        *gv = yv * (*gv - dot);
    }
}

/// Gradient of [`softmax_last`] given the softmax *output* `y` and upstream
/// gradient: `dx = y ⊙ (dy − ⟨dy, y⟩)` per row.
pub fn softmax_last_backward(output: &Tensor, grad: &Tensor) -> Result<Tensor, TensorError> {
    output.shape().expect_eq(grad.shape())?;
    let mut out = grad.clone();
    let cols = output.shape().last_dim();
    if cols > 0 {
        for (yr, gr) in output.data().chunks_exact(cols).zip(out.data_mut().chunks_exact_mut(cols)) {
            softmax_backward_row(yr, gr);
        }
    }
    Ok(out)
}

/// Layer normalization over the innermost axis with scale `gamma` and shift
/// `beta` (both `[d]`). Returns `(output, x_hat, inv_std)` — the latter two
/// are the cache the backward pass needs.
pub fn layer_norm(
    a: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
) -> Result<(Tensor, Tensor, Vec<f32>), TensorError> {
    let (rows, cols, data) = a.as_matrix();
    if gamma.len() != cols || beta.len() != cols {
        return Err(TensorError::Incompatible(format!(
            "layer_norm params length {} / {} vs dim {}",
            gamma.len(),
            beta.len(),
            cols
        )));
    }
    let gd = gamma.data();
    let bd = beta.data();
    let mut out = vec![0.0f32; rows * cols];
    let mut xhat = vec![0.0f32; rows * cols];
    let mut inv_std = vec![0.0f32; rows];
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        let mean = row.iter().sum::<f32>() / cols as f32;
        let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / cols as f32;
        let istd = 1.0 / (var + eps).sqrt();
        inv_std[r] = istd;
        let xr = &mut xhat[r * cols..(r + 1) * cols];
        let orow = &mut out[r * cols..(r + 1) * cols];
        for (((x, o), &v), (&g, &b)) in
            xr.iter_mut().zip(orow.iter_mut()).zip(row).zip(gd.iter().zip(bd))
        {
            *x = (v - mean) * istd;
            *o = g * *x + b;
        }
    }
    Ok((
        Tensor::from_vec(a.shape().clone(), out)?,
        Tensor::from_vec(a.shape().clone(), xhat)?,
        inv_std,
    ))
}

/// Backward pass of [`layer_norm`].
///
/// Returns `(d_input, d_gamma, d_beta)`.
pub fn layer_norm_backward(
    xhat: &Tensor,
    inv_std: &[f32],
    gamma: &Tensor,
    grad: &Tensor,
) -> Result<(Tensor, Tensor, Tensor), TensorError> {
    xhat.shape().expect_eq(grad.shape())?;
    let (rows, cols, xh) = xhat.as_matrix();
    let g = grad.data();
    let gd = gamma.data();
    let mut dx = vec![0.0f32; rows * cols];
    for r in 0..rows {
        let xr = &xh[r * cols..(r + 1) * cols];
        let gr = &g[r * cols..(r + 1) * cols];
        // dxhat = dy * gamma
        let mut mean_dxhat = 0.0f32;
        let mut mean_dxhat_xhat = 0.0f32;
        for i in 0..cols {
            let dxh = gr[i] * gd[i];
            mean_dxhat += dxh;
            mean_dxhat_xhat += dxh * xr[i];
        }
        mean_dxhat /= cols as f32;
        mean_dxhat_xhat /= cols as f32;
        let orow = &mut dx[r * cols..(r + 1) * cols];
        for i in 0..cols {
            let dxh = gr[i] * gd[i];
            orow[i] = inv_std[r] * (dxh - mean_dxhat - xr[i] * mean_dxhat_xhat);
        }
    }
    let dgamma = sum_rows(&hadamard_flat(grad, xhat)?)?;
    let dbeta = sum_rows(grad)?;
    Ok((Tensor::from_vec(xhat.shape().clone(), dx)?, dgamma, dbeta))
}

fn hadamard_flat(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    super::elementwise::hadamard(a, b)
}

/// Softmax cross-entropy over logits with integer targets.
///
/// `logits` is `(outer, classes)`; `targets` holds one class index per outer
/// row, with `-1` meaning "ignore this row" (padding tokens). Returns the
/// mean loss over counted rows and the gradient with respect to the logits
/// (already divided by the counted-row count).
pub fn cross_entropy_logits(
    logits: &Tensor,
    targets: &[i64],
) -> Result<(f32, Tensor), TensorError> {
    let (rows, cols, _) = logits.as_matrix();
    if targets.len() != rows {
        return Err(TensorError::Incompatible(format!(
            "targets length {} vs rows {}",
            targets.len(),
            rows
        )));
    }
    let probs = softmax_last(logits);
    let p = probs.data();
    let mut counted = 0usize;
    let mut loss = 0.0f64;
    for (r, &t) in targets.iter().enumerate() {
        if t < 0 {
            continue;
        }
        let t = t as usize;
        if t >= cols {
            return Err(TensorError::Incompatible(format!(
                "target {} out of range for {} classes",
                t, cols
            )));
        }
        counted += 1;
        loss -= (p[r * cols + t].max(1e-12) as f64).ln();
    }
    let denom = counted.max(1) as f32;
    let mut grad = probs;
    {
        let gd = grad.data_mut();
        for (r, &t) in targets.iter().enumerate() {
            let row = &mut gd[r * cols..(r + 1) * cols];
            if t < 0 {
                row.iter_mut().for_each(|x| *x = 0.0);
            } else {
                row[t as usize] -= 1.0;
                row.iter_mut().for_each(|x| *x /= denom);
            }
        }
    }
    Ok((loss as f32 / denom, grad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{randn, seeded_rng};

    fn finite_diff_check(
        f: &dyn Fn(&Tensor) -> f32,
        grad: &dyn Fn(&Tensor) -> Tensor,
        x: &Tensor,
        tol: f32,
    ) {
        let g = grad(x);
        let eps = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            let ana = g.data()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "elem {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// `gelu_backward` as it was before the tanh factor could be cached:
    /// one formula recomputing `tanh` per element.
    fn gelu_grad_recomputing(x: f32) -> f32 {
        const C: f32 = 0.797_884_6;
        let u = C * (x + 0.044_715 * x * x * x);
        let t = u.tanh();
        let du = C * (1.0 + 3.0 * 0.044_715 * x * x);
        0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
    }

    #[test]
    fn gelu_paths_bitwise_vs_reference() {
        use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
        for seed in 0..8u64 {
            let x = Tensor::from_vec([7, 9], salted(seed, 63)).unwrap().map(|v| v * 3.0);
            let g = Tensor::from_vec([7, 9], salted(seed ^ 0x6E, 63)).unwrap();
            let want: Vec<f32> =
                g.data().iter().zip(x.data()).map(|(&gv, &xv)| gv * gelu_grad_recomputing(xv)).collect();
            assert_eq!(bits(gelu_backward(&x, &g).unwrap().data()), bits(&want));
            let (act, t) = gelu_with_tanh(&x);
            assert_eq!(bits(act.data()), bits(gelu(&x).data()));
            assert_eq!(bits(gelu_backward_cached(&x, &t, &g).unwrap().data()), bits(&want));
        }
        let (x, g) = (Tensor::zeros([2, 3]), Tensor::zeros([2, 3]));
        assert!(gelu_backward_cached(&x, &Tensor::zeros([3]), &g).is_err());
    }

    /// The in-place row bodies vs the out-of-place loops they were lifted
    /// from, including rows that saturate (exact zeros in the output).
    #[test]
    fn softmax_rows_bitwise_vs_reference() {
        use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
        for seed in 0..8u64 {
            let (rows, cols) = (5usize, 1 + seed as usize * 3);
            let spread = if seed % 2 == 0 { 1.0 } else { 80.0 };
            let x = Tensor::from_vec([rows, cols], salted(seed, rows * cols)).unwrap().map(|v| v * spread);
            let mut want = vec![0.0f32; rows * cols];
            for (row, orow) in x.data().chunks_exact(cols).zip(want.chunks_exact_mut(cols)) {
                let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let mut sum = 0.0f32;
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o = (v - max).exp();
                    sum += *o;
                }
                let inv = 1.0 / sum;
                orow.iter_mut().for_each(|o| *o *= inv);
            }
            let y = softmax_last(&x);
            assert_eq!(bits(y.data()), bits(&want));

            let g = Tensor::from_vec([rows, cols], salted(seed ^ 0x50F7, rows * cols)).unwrap();
            let mut dwant = vec![0.0f32; rows * cols];
            for ((yr, gr), orow) in
                y.data().chunks_exact(cols).zip(g.data().chunks_exact(cols)).zip(dwant.chunks_exact_mut(cols))
            {
                let dot: f32 = yr.iter().zip(gr).map(|(&a, &b)| a * b).sum();
                for ((o, &yv), &gv) in orow.iter_mut().zip(yr).zip(gr) {
                    *o = yv * (gv - dot);
                }
            }
            assert_eq!(bits(softmax_last_backward(&y, &g).unwrap().data()), bits(&dwant));
        }
    }

    #[test]
    fn relu_and_backward() {
        let x = Tensor::from_vec([4], vec![-1.0, 0.0, 0.5, 2.0]).unwrap();
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = Tensor::ones([4]);
        assert_eq!(relu_backward(&x, &g).unwrap().data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn gelu_matches_finite_difference() {
        let x = randn([6], 1.0, &mut seeded_rng(3));
        finite_diff_check(
            &|t| gelu(t).sum(),
            &|t| gelu_backward(t, &Tensor::ones(t.shape().clone())).unwrap(),
            &x,
            2e-2,
        );
    }

    #[test]
    fn tanh_matches_finite_difference() {
        let x = randn([6], 1.0, &mut seeded_rng(4));
        finite_diff_check(
            &|t| tanh_act(t).sum(),
            &|t| tanh_backward(&tanh_act(t), &Tensor::ones(t.shape().clone())).unwrap(),
            &x,
            1e-2,
        );
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = randn([3, 5], 2.0, &mut seeded_rng(5));
        let y = softmax_last(&x);
        for r in 0..3 {
            let s: f32 = y.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let x = Tensor::from_vec([1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let y1 = softmax_last(&x);
        let shifted = x.map(|v| v + 100.0);
        let y2 = softmax_last(&shifted);
        for (a, b) in y1.data().iter().zip(y2.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        // Loss: weighted sum of softmax outputs with fixed weights.
        let w: Vec<f32> = vec![0.3, -0.7, 1.1, 0.2];
        let wt = Tensor::from_vec([1, 4], w.clone()).unwrap();
        let x = randn([1, 4], 1.0, &mut seeded_rng(6));
        finite_diff_check(
            &|t| {
                softmax_last(t)
                    .data()
                    .iter()
                    .zip(&w)
                    .map(|(&y, &wi)| y * wi)
                    .sum()
            },
            &|t| softmax_last_backward(&softmax_last(t), &wt).unwrap(),
            &x,
            1e-2,
        );
    }

    #[test]
    fn layer_norm_output_is_normalized() {
        let x = randn([4, 8], 3.0, &mut seeded_rng(7));
        let gamma = Tensor::ones([8]);
        let beta = Tensor::zeros([8]);
        let (y, _, _) = layer_norm(&x, &gamma, &beta, 1e-5).unwrap();
        for r in 0..4 {
            let row = &y.data()[r * 8..(r + 1) * 8];
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn layer_norm_backward_matches_finite_difference() {
        let gamma = Tensor::from_vec([6], vec![1.0, 0.5, 2.0, 1.5, 0.8, 1.2]).unwrap();
        let beta = Tensor::zeros([6]);
        let x = randn([2, 6], 1.0, &mut seeded_rng(8));
        let loss = |t: &Tensor| layer_norm(t, &gamma, &beta, 1e-5).unwrap().0.sum();
        let grad = |t: &Tensor| {
            let (y, xhat, istd) = layer_norm(t, &gamma, &beta, 1e-5).unwrap();
            let ones = Tensor::ones(y.shape().clone());
            layer_norm_backward(&xhat, &istd, &gamma, &ones).unwrap().0
        };
        finite_diff_check(&loss, &grad, &x, 2e-2);
    }

    #[test]
    fn cross_entropy_known_value() {
        // Uniform logits over 4 classes: loss = ln(4).
        let logits = Tensor::zeros([2, 4]);
        let (loss, grad) = cross_entropy_logits(&logits, &[0, 3]).unwrap();
        assert!((loss - 4.0f32.ln()).abs() < 1e-5);
        // Gradient rows sum to zero.
        for r in 0..2 {
            let s: f32 = grad.data()[r * 4..(r + 1) * 4].iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn cross_entropy_ignores_padding() {
        let logits = Tensor::from_vec([2, 3], vec![5.0, 0.0, 0.0, 0.0, 5.0, 0.0]).unwrap();
        let (loss_all, _) = cross_entropy_logits(&logits, &[0, 1]).unwrap();
        let (loss_pad, grad) = cross_entropy_logits(&logits, &[0, -1]).unwrap();
        assert!((loss_all - loss_pad).abs() < 1e-6); // both rows have identical loss
        assert!(grad.data()[3..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let x = randn([2, 5], 1.0, &mut seeded_rng(9));
        let targets = vec![2i64, 4];
        finite_diff_check(
            &|t| cross_entropy_logits(t, &targets).unwrap().0,
            &|t| cross_entropy_logits(t, &targets).unwrap().1,
            &x,
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_rejects_bad_targets() {
        let logits = Tensor::zeros([2, 3]);
        assert!(cross_entropy_logits(&logits, &[0]).is_err());
        assert!(cross_entropy_logits(&logits, &[0, 3]).is_err());
    }
}
