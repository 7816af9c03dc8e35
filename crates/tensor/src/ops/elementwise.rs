//! Elementwise arithmetic with limited broadcasting.
//!
//! Broadcasting is restricted to the one pattern the model zoo needs: a
//! right-hand operand whose shape is a *suffix* of the left-hand shape (e.g.
//! adding a `[dim]` bias to a `[batch, seq, dim]` activation). This keeps the
//! kernels branch-free and easy to verify.

use crate::{Tensor, TensorError};

fn suffix_broadcast_len(a: &Tensor, b: &Tensor) -> Result<usize, TensorError> {
    let an = a.len();
    let bn = b.len();
    if bn == 0 || !an.is_multiple_of(bn) {
        return Err(TensorError::Incompatible(format!(
            "cannot broadcast {} elements over {}",
            bn, an
        )));
    }
    let a_dims = &a.shape().0;
    let b_dims = &b.shape().0;
    if b_dims.len() > a_dims.len() || a_dims[a_dims.len() - b_dims.len()..] != b_dims[..] {
        return Err(TensorError::Incompatible(format!(
            "shape {:?} is not a suffix of {:?}",
            b_dims, a_dims
        )));
    }
    Ok(bn)
}

/// One pass of `f(a[i], b[i mod bn])`: `a` is walked in `bn`-long chunks
/// zipped against `b`, so the broadcast costs no per-element division.
fn zip_broadcast(
    a: &Tensor,
    b: &Tensor,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor, TensorError> {
    let bn = suffix_broadcast_len(a, b)?;
    let bd = b.data();
    let mut out = Vec::with_capacity(a.len());
    for chunk in a.data().chunks_exact(bn) {
        out.extend(chunk.iter().zip(bd).map(|(&x, &y)| f(x, y)));
    }
    Tensor::from_vec(a.shape().clone(), out)
}

/// `a + b`, where `b`'s shape must equal `a`'s or be a suffix of it.
pub fn add(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_broadcast(a, b, |x, y| x + y)
}

/// `a += b` with suffix broadcasting.
pub fn add_assign(a: &mut Tensor, b: &Tensor) -> Result<(), TensorError> {
    let bn = suffix_broadcast_len(a, b)?;
    let bd = b.data();
    for chunk in a.data_mut().chunks_exact_mut(bn) {
        for (x, &y) in chunk.iter_mut().zip(bd) {
            *x += y;
        }
    }
    Ok(())
}

/// `a - b` with suffix broadcasting.
pub fn sub(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    zip_broadcast(a, b, |x, y| x - y)
}

/// Elementwise product (no broadcasting; shapes must match).
pub fn hadamard(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    a.shape().expect_eq(b.shape())?;
    let mut out = a.clone();
    for (x, &y) in out.data_mut().iter_mut().zip(b.data()) {
        *x *= y;
    }
    Ok(out)
}

/// `a * s` for a scalar `s`.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    a.map(|x| x * s)
}

/// `y += alpha * x` (shapes must match) — the SGD update kernel.
pub fn axpy(alpha: f32, x: &Tensor, y: &mut Tensor) -> Result<(), TensorError> {
    x.shape().expect_eq(y.shape())?;
    for (yv, &xv) in y.data_mut().iter_mut().zip(x.data()) {
        *yv += alpha * xv;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nautilus_util::prop::{f32_bits as bits, salted_f32s as salted};
    use nautilus_util::prop::{prop_check, u64s, usizes};
    use nautilus_util::prop_assert_eq;

    /// The loop `add`/`add_assign`/`sub` ran before they walked chunks: one
    /// integer modulo per element.
    fn modulo_reference(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
        let (bd, bn) = (b.data(), b.len());
        a.data().iter().enumerate().map(|(i, &x)| f(x, bd[i % bn])).collect()
    }

    /// Every suffix of a random rank-1..=3 shape (the whole shape, the last
    /// axis alone, the rank-0 scalar, and extents of 1 included), salted
    /// operands: bit-identical to the modulo loop.
    #[test]
    fn broadcasts_bitwise_vs_reference() {
        let gen = (usizes(1..4), usizes(1..7), usizes(1..7), usizes(1..7), u64s(0..u64::MAX));
        prop_check(0xB0AD, 96, &gen, |&(rank, d0, d1, d2, seed)| {
            let dims = [d0, d1, d2][..rank].to_vec();
            let n: usize = dims.iter().product();
            let a = Tensor::from_vec(dims.clone(), salted(seed, n)).unwrap();
            for keep in 0..=rank {
                let bdims = dims[rank - keep..].to_vec();
                let bn: usize = bdims.iter().product();
                let b = Tensor::from_vec(bdims, salted(seed ^ 0x5A17, bn)).unwrap();
                let want_add = bits(&modulo_reference(&a, &b, |x, y| x + y));
                prop_assert_eq!(bits(add(&a, &b).unwrap().data()), want_add);
                let mut acc = a.clone();
                add_assign(&mut acc, &b).unwrap();
                prop_assert_eq!(bits(acc.data()), want_add);
                let want_sub = bits(&modulo_reference(&a, &b, |x, y| x - y));
                prop_assert_eq!(bits(sub(&a, &b).unwrap().data()), want_sub);
            }
            Ok(())
        });
    }

    #[test]
    fn non_suffix_and_zero_length_operands_are_typed_errors() {
        let a = Tensor::zeros([2, 3]);
        let mut acc = a.clone();
        for b in [Tensor::zeros([2]), Tensor::zeros([6]), Tensor::zeros([0]), Tensor::zeros([0, 3])] {
            assert!(matches!(add(&a, &b), Err(TensorError::Incompatible(_))));
            assert!(matches!(sub(&a, &b), Err(TensorError::Incompatible(_))));
            assert!(matches!(add_assign(&mut acc, &b), Err(TensorError::Incompatible(_))));
        }
        assert_eq!(acc, a, "a rejected operand must leave the accumulator untouched");
    }

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec([2, 2], vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(add(&a, &b).unwrap().data(), &[11.0, 22.0, 33.0, 44.0]);
    }

    #[test]
    fn add_broadcasts_suffix() {
        let a = Tensor::from_vec([2, 3], vec![0.0; 6]).unwrap();
        let bias = Tensor::from_vec([3], vec![1.0, 2.0, 3.0]).unwrap();
        let c = add(&a, &bias).unwrap();
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn add_rejects_non_suffix() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2]);
        assert!(add(&a, &b).is_err());
        // Same element count but wrong placement: [2] is not a suffix of [2,3].
        let c = Tensor::zeros([6]);
        assert!(add(&a, &c).is_err());
    }

    #[test]
    fn sub_and_scale() {
        let a = Tensor::from_vec([2], vec![5.0, 7.0]).unwrap();
        let b = Tensor::from_vec([2], vec![1.0, 2.0]).unwrap();
        assert_eq!(sub(&a, &b).unwrap().data(), &[4.0, 5.0]);
        assert_eq!(scale(&a, 2.0).data(), &[10.0, 14.0]);
    }

    #[test]
    fn hadamard_requires_exact_shape() {
        let a = Tensor::from_vec([2], vec![3.0, 4.0]).unwrap();
        let b = Tensor::from_vec([2], vec![2.0, 0.5]).unwrap();
        assert_eq!(hadamard(&a, &b).unwrap().data(), &[6.0, 2.0]);
        assert!(hadamard(&a, &Tensor::zeros([1, 2])).is_err());
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = Tensor::from_vec([2], vec![1.0, -1.0]).unwrap();
        let mut y = Tensor::from_vec([2], vec![0.5, 0.5]).unwrap();
        axpy(-0.5, &x, &mut y).unwrap();
        assert_eq!(y.data(), &[0.0, 1.0]);
    }
}
