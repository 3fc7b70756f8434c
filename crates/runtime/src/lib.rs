//! # coconet-runtime
//!
//! Functional distributed runtime for the CoCoNet reproduction: rank
//! threads, a message fabric, NCCL-style ring collectives with real
//! data movement, and an SPMD interpreter for DSL programs.
//!
//! The paper's generated kernels run on GPU clusters; this runtime
//! executes the *same programs* (before and after transformation) on
//! CPU threads so the "semantics preserving" claim of §3 is machine
//! checked: a transformed program must produce the same tensors as the
//! original, up to FP16 rounding.
//!
//! Data movement is both minimized and measured: sends transfer
//! copy-on-write buffer handles, the ring folds each received stripe
//! with one fused out-of-place kernel, and every [`RankComm`] carries a [`BytesLedger`] whose wire
//! and allocation counters let tests assert a collective moved exactly
//! its analytic volume and copied nothing beyond it.
//!
//! # Examples
//!
//! ```
//! use coconet_core::{Binding, DType, Layout, Program, ReduceOp};
//! use coconet_runtime::{run_program, Inputs, RunOptions};
//! use coconet_tensor::Tensor;
//!
//! // avg = AllReduce(g) over 4 ranks.
//! let mut p = Program::new("avg");
//! let g = p.input("g", DType::F32, ["N"], Layout::Local);
//! let s = p.all_reduce(ReduceOp::Sum, g)?;
//! p.set_name(s, "sum")?;
//! p.set_io(&[g], &[s])?;
//!
//! let binding = Binding::new(4).bind("N", 8);
//! let inputs = Inputs::new().per_rank(
//!     "g",
//!     (0..4).map(|r| Tensor::full([8], DType::F32, r as f32)).collect(),
//! );
//! let result = run_program(&p, &binding, &inputs, RunOptions::default())?;
//! assert_eq!(result.global("sum")?.get(0), 6.0); // 0+1+2+3
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod collectives;
mod comm;
mod compressed;
mod dist;
mod error;
mod executor;
mod hierarchical;
mod kernel;
mod ledger;
mod overlap_exec;
mod scattered;
mod stream;
mod switch;
mod tree;

pub use collectives::{
    all_reduce_scalar, broadcast, chunk_range, clamp_channels, reduce, ring_all_gather,
    ring_all_reduce, ring_reduce_scatter, Group, MAX_CHANNELS,
};
pub use comm::{run_ranks, RankComm, WireMsg};
pub use compressed::{
    all_gather_wire_striped, all_reduce_wire_striped, reduce_scatter_wire_striped,
    sparse_all_reduce,
};
pub use dist::DistValue;
pub use error::RuntimeError;
pub use executor::{
    run_program, run_program_per_element, run_segment_alone, InitValue, Inputs, KernelStats,
    RunOptions, RunResult,
};
pub use hierarchical::{
    hierarchical_all_gather, hierarchical_all_reduce, hierarchical_reduce_scatter,
};
pub use ledger::{
    ring_all_reduce_wire_bytes, switch_all_reduce_wire_bytes, top_k_all_reduce_wire_bytes,
    BytesLedger, PRIORITY_CLASSES,
};
pub use overlap_exec::{overlapped_matmul_all_reduce, production_order};
pub use scattered::{BucketTable, ScatteredTensors, BUCKET_ELEMS};
pub use stream::{CommScheduler, Completion, StreamExecutor};
pub use switch::switch_all_reduce;
pub use tree::tree_all_reduce;
