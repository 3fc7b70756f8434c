//! # coconet-core
//!
//! The CoCoNet DSL, transformations, autotuner, and code generator.

#![warn(missing_docs)]

pub mod autotune;
pub mod codegen;
mod dim;
mod error;
mod graph;
mod infer;
pub mod kernel;
mod layout;
mod lower;
mod op;
mod plan;
pub mod plancache;
mod types;
pub mod xform;

pub use coconet_compress::WireFormat;
pub use coconet_tensor::{Conv2dParams, DType, ReduceOp};

pub use autotune::{structural_hash, Autotuner, Candidate, PlanEvaluator, TuneReport};
pub use codegen::{generate_cuda, GeneratedCode};
pub use dim::{Binding, Dim, SymShape};
pub use error::CoreError;
pub use graph::{FuseKind, FusionGroup, Node, OverlapGroup, Program};
pub use kernel::KernelIr;
pub use layout::{Layout, SliceDim};
pub use lower::{lower, partition, Partition, Scheduled, Unit, UnitKind};
pub use op::{BinaryOp, OpKind, PeerSelector, UnaryOp, VarId};
pub use plan::{
    lane_count, nodes_spanned, CollAlgo, CollKind, CollSite, CollectiveStep, CommConfig, CommSched,
    ExecPlan, Executed, FixedStep, FusedCollectiveStep, KernelStep, MatMulStep, OverlapStage,
    OverlappedStep, Protocol, ScatterInfo, SendRecvStep, Step, XferSched, MAX_CHANNELS,
};
pub use plancache::{CacheStats, PlanCache, PlanKey};
pub use types::TensorType;
