//! Dense `f32` tensor math used by the Lancet reproduction.
//!
//! This crate is the numerical substrate for the [IR executor]: a small,
//! dependency-free n-dimensional array library with exactly the kernels a
//! Transformer-with-MoE model needs (matmul, softmax, layer norm, GELU,
//! elementwise arithmetic, axis slicing/concatenation). Matmuls run on a
//! packed, cache-blocked engine ([`gemm`]) parallelized over a persistent
//! shared thread pool ([`pool`]); every kernel keeps a fixed per-element
//! accumulation order, so results are bit-identical for any worker count —
//! the executor runs tiny model configs to check mathematical equivalence of
//! compiler transformations, and that check demands determinism.
//!
//! [IR executor]: https://docs.rs/lancet-exec
//!
//! # Example
//!
//! ```
//! use lancet_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
//! let b = Tensor::from_vec(vec![3, 2], vec![1., 0., 0., 1., 1., 1.])?;
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.data(), &[4., 5., 10., 11.]);
//! # Ok::<(), lancet_tensor::TensorError>(())
//! ```

pub mod det;
mod error;
pub mod gemm;
mod init;
mod ops;
pub mod pack;
pub mod pool;
mod shape;
pub mod storage;
mod tensor;

pub use error::TensorError;
pub use init::TensorRng;
pub use pack::PackedTensor;
pub use shape::{stride_for, Shape};
pub use storage::{Buf, BufOwner, VecOwner};
pub use tensor::Tensor;

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Absolute tolerance used by [`Tensor::allclose`] by default.
pub const DEFAULT_ATOL: f32 = 1e-5;

/// Relative tolerance used by [`Tensor::allclose`] by default.
pub const DEFAULT_RTOL: f32 = 1e-4;
