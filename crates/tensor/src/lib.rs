//! # coconet-tensor
//!
//! CPU tensor substrate for the CoCoNet reproduction (ASPLOS'22,
//! "Breaking the Computation and Communication Abstraction Barrier in
//! Distributed Machine Learning Workloads").
//!
//! The paper's generated kernels run on NVIDIA GPUs; this crate provides
//! the equivalent *functional* substrate on the CPU so that transformed
//! programs can be executed for real and compared bit-for-bit (up to
//! FP16 rounding) against their untransformed originals:
//!
//! - [`F16`] — software IEEE 754 half precision (mixed-precision
//!   workloads);
//! - [`Shape`] — row-major shapes with PyTorch broadcast semantics;
//! - [`Tensor`] — dense tensors with the pointwise ops, activations,
//!   reductions and GEMM of the paper's Table 1, backed by `Arc`
//!   copy-on-write buffers whose clones and flat slices are zero-copy
//!   views (the substrate of the runtime's handle-transfer sends);
//! - [`SparseChunk`] — the `(index, value)` wire representation of a
//!   top-k sparsified tensor, the payload of the runtime's compressed
//!   collectives;
//! - [`CounterRng`] — the counter-based RNG that makes `Dropout`
//!   produce identical masks under the `reorder` transformation;
//! - [`alloc_stats`] — per-thread buffer-allocation and copy-on-write
//!   counters, the data-movement evidence the runtime's bytes ledger
//!   and the zero-copy benches assert against.
//!
//! # Examples
//!
//! ```
//! use coconet_tensor::{CounterRng, DType, Tensor};
//!
//! // A tiny mixed-precision fused epilogue: dropout(x + b) + r.
//! let x = Tensor::full([2, 4], DType::F16, 1.0);
//! let b = Tensor::full([4], DType::F16, 0.5);
//! let r = Tensor::full([2, 4], DType::F16, 0.25);
//! let rng = CounterRng::new(42);
//! let out = x.add(&b)?.dropout(0.1, rng, 0)?.add(&r)?;
//! assert_eq!(out.shape().dims(), &[2, 4]);
//! # Ok::<(), coconet_tensor::TensorError>(())
//! ```

#![warn(missing_docs)]

mod conv;
mod dtype;
mod error;
mod half;
pub mod kernels;
mod matmul;
mod ops;
mod rng;
mod shape;
mod simd;
mod slice;
mod sparse;
mod stats;
mod tensor;

pub use conv::Conv2dParams;
pub use dtype::DType;
pub use error::TensorError;
pub use half::F16;
pub use ops::{reduce_elementwise, reduce_identity, ReduceOp};
pub use rng::CounterRng;
pub use shape::Shape;
pub use sparse::{top_k_positions, SparseChunk, SPARSE_ENTRY_BYTES};
pub use stats::{alloc_stats, AllocStats};
pub use tensor::Tensor;
