//! A convolution backward whose caller needs no input gradient does not
//! compute one.
//!
//! `conv2d_backward_ex(.., need_dx = false)` must return the bits of the
//! full backward for `dW` / `db` and skip the work behind `dX` — the
//! group's `Wᵀ · dY` product, visible as strictly fewer
//! `gemm.microkernel_calls` at every size (the counter needs metrics on,
//! not tracing).
//!
//! One `#[test]` in a binary of its own: the counter is process-global, so
//! no other test may run GEMMs while it is being read.

use nautilus_tensor::ops::conv::conv_out_dim;
use nautilus_tensor::ops::conv2d_backward_ex;
use nautilus_tensor::Tensor;
use nautilus_util::prop::{f32_bits, salted_f32s};
use nautilus_util::telemetry;

fn salted(seed: u64, shape: [usize; 4]) -> Tensor {
    Tensor::from_vec(shape, salted_f32s(seed, shape.iter().product())).unwrap()
}

#[test]
fn dead_input_gradient_is_not_computed() {
    telemetry::enable_metrics();
    // (b, c_in, c_out, hw, k, stride, pad): the convolutions of a projecting
    // MiniResNet block at the FTU shapes, a wide early layer, and one tiny
    // shape (lowered like the rest).
    let cases = [
        (8usize, 24usize, 32usize, 4usize, 3usize, 2usize, 1usize),
        (8, 32, 32, 2, 3, 1, 1),
        (8, 24, 32, 4, 1, 2, 0),
        (4, 8, 8, 16, 3, 1, 1),
        (2, 2, 3, 5, 3, 1, 1),
    ];
    for (b, c_in, c_out, hw, k, stride, pad) in cases {
        let o = conv_out_dim(hw, k, stride, pad).unwrap();
        let x = salted(1, [b, c_in, hw, hw]);
        let w = salted(2, [c_out, c_in, k, k]);
        let dy = salted(3, [b, c_out, o, o]);
        let run = |need_dx: bool| {
            let before = telemetry::GEMM_MICROKERNEL_CALLS.get();
            let grads = conv2d_backward_ex(&x, &w, &dy, stride, pad, need_dx).unwrap();
            (grads, telemetry::GEMM_MICROKERNEL_CALLS.get() - before)
        };
        let ((dx, dw, db), calls_full) = run(true);
        let ((none, dw_only, db_only), calls_dead) = run(false);
        let ctx = format!("b{b} {c_in}->{c_out} {hw}x{hw} k{k} s{stride} p{pad}");
        assert!(dx.is_some() && none.is_none(), "{ctx}");
        assert_eq!(f32_bits(dw_only.data()), f32_bits(dw.data()), "dW {ctx}");
        assert_eq!(f32_bits(db_only.data()), f32_bits(db.data()), "db {ctx}");
        assert!(
            calls_dead > 0 && calls_dead < calls_full,
            "{ctx}: {calls_dead} microkernel calls without dX, {calls_full} with"
        );
    }
}
