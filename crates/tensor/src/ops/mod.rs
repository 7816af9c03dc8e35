//! Tensor operations, grouped by kind.
//!
//! All operations are pure functions over [`crate::Tensor`] values; layers in
//! the `nautilus-dnn` crate compose them into forward/backward passes. Ops
//! come in pairs where the model zoo needs gradients (e.g.
//! [`nn::softmax_last`] / [`nn::softmax_last_backward`]).

pub mod attention;
pub mod conv;
pub mod elementwise;
pub mod gemm;
pub mod matmul;
pub mod nn;
pub mod qgemm;
pub mod reduce;

pub use attention::{attention_backward, attention_forward, AttnDims};
pub use conv::{
    avg_pool2d_global, conv2d, conv2d_backward, conv2d_backward_direct, conv2d_backward_ex,
    conv2d_direct, max_pool2d, max_pool2d_backward,
};
pub use elementwise::{add, add_assign, axpy, hadamard, scale, sub};
pub use gemm::MatRef;
pub use matmul::{matmul, matmul_ex, matmul_ex_flops, matmul_ta, matmul_tb, MatmulSpec};
pub use qgemm::{qgemm_dyn, quantize_rows, QuantizedMatrix};
pub use nn::{
    cross_entropy_logits, gelu, gelu_backward, gelu_backward_cached, gelu_with_tanh, layer_norm, layer_norm_backward, relu,
    relu_backward, softmax_last, softmax_last_backward, tanh_act, tanh_backward,
};
pub use reduce::{argmax_last, mean_axis0, sum_axis0, sum_rows};

#[cfg(test)]
mod tests {
    /// `NAUTILUS_GEMM_KERNEL` is resolved once per process, so covering
    /// both settings takes two more processes: this binary re-run on its
    /// `bitwise_vs_reference` tests under each (an `fma` request degrades
    /// to `safe` on hosts without AVX2+FMA, which then repeats the first).
    #[test]
    fn differential_tests_hold_under_both_gemm_kernels() {
        let exe = std::env::current_exe().expect("test binary path");
        for kernel in ["safe", "fma"] {
            let out = std::process::Command::new(&exe)
                .arg("bitwise_vs_reference")
                .env("NAUTILUS_GEMM_KERNEL", kernel)
                .output()
                .expect("re-run test binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success() && stdout.contains("test result: ok") && !stdout.contains(" 0 passed"),
                "NAUTILUS_GEMM_KERNEL={kernel}:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
}
