//! Dense and sparse linear algebra kernels for the GNNVault reproduction.
//!
//! This crate is the computational substrate that replaces PyTorch (normal
//! world) and Eigen (enclave world) from the paper. It provides:
//!
//! - [`DenseMatrix`]: a row-major `f32` matrix with elementwise and
//!   reduction operations,
//! - [`gemm_into_ws`] (and the allocating [`matmul`]): a packed-panel
//!   GEMM engine (BLIS-style register-tiled micro-kernel over packed
//!   operand panels) with transpose-free operand views ([`GemmOp`]:
//!   `AᵀB`, `ABᵀ`), fused output epilogues ([`Epilogue`]: bias,
//!   bias + ReLU), and runtime-dispatched
//!   micro-kernels ([`KernelVariant`]: AVX2+FMA, AVX-512, portable
//!   scalar — selected once per process, bit-identical across variants,
//!   pinnable via `LINALG_FORCE_KERNEL`),
//! - [`QuantizedMatrix`]: symmetric per-channel int8 codes of a weight
//!   matrix — a *storage* form (the snapshot codec's int8 slot), with
//!   `quantize`/`dequantize` and nothing that computes in int8,
//! - [`CsrMatrix`]: compressed sparse row matrices with sparse × dense
//!   multiplication ([`CsrMatrix::spmm`]) — the message-passing kernel of
//!   every GCN layer (`Â · H`),
//! - [`csr_gemm_into_ws`]: a CSR × dense product that returns the packed
//!   engine's bits for the densified operand — the first layer's `X̃W`
//!   and `X̃ᵀG` over sparse bag-of-words features,
//! - [`ops`]: activations, softmax family, argmax, and reductions used by
//!   the neural-network crate,
//! - [`pairwise`]: the tiled pool-parallel pairwise-similarity engine
//!   (Gram panels, streaming row tiles, bounded top-k selection) behind
//!   substitute graphs, silhouette, and attack scoring.
//!
//! How either product runs — on the caller's thread or across the shared
//! [`pool`], through which micro-kernel — is decided inside this crate
//! from the problem size, the pool width and the CPU, and never changes a
//! bit of the result; there is no strategy argument.
//!
//! # Examples
//!
//! ```
//! use linalg::{DenseMatrix, CsrMatrix};
//!
//! # fn main() -> Result<(), linalg::LinalgError> {
//! let h = DenseMatrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]])?;
//! // A 3-node path graph adjacency (edges 0-1, 1-2) in triplet form.
//! let a = CsrMatrix::from_triplets(3, 3,
//!     &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])?;
//! let aggregated = a.spmm(&h)?;
//! assert_eq!(aggregated.rows(), 3);
//! assert_eq!(aggregated.cols(), 2);
//! # Ok(())
//! # }
//! ```

// Unsafe is denied crate-wide; the exceptions are the scoped lifetime
// transmute in `pool` and the `#[target_feature]` SIMD micro-kernels in
// `gemm::kernels` — each carries its soundness argument.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
mod gemm;
pub mod ops;
pub mod pairwise;
pub mod pool;
mod quant;
mod sparse;
mod workspace;

pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use gemm::kernels::{
    available_kernel_variants, detected_cpu_features, kernel_variant, KernelVariant,
};
#[cfg(test)]
pub(crate) use gemm::matmul_naive;
pub use gemm::{csr_gemm_into_ws, gemm_into_ws, matmul, matmul_fused_into_ws, Epilogue, GemmOp};
pub use quant::QuantizedMatrix;
pub use sparse::CsrMatrix;
pub use workspace::Workspace;
