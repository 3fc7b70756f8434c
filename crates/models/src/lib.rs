//! # coconet-models
//!
//! The paper's workloads, expressed in the CoCoNet DSL with their
//! schedules:
//!
//! - [`optimizers`] — Adam and LAMB data-parallel updates (Figure 6)
//!   with the `AR-Opt` / `RS-Opt-AG` / `fuse(RS-Opt-AG)` schedules;
//! - [`model_parallel`] — Megatron-LM self-attention and MLP epilogues
//!   (Figure 3) with the Figure 11 schedules, and their simulated
//!   epilogue time;
//! - [`pipeline`] — pipeline-parallel transformer boundaries (Figure 8)
//!   with the Figure 12 schedules, and their simulated epilogue time;
//! - [`training`] — the *executable* data-parallel loop
//!   ([`training::train_data_parallel`]) that proves top-k gradient
//!   compression with error feedback converges like the dense wire;
//! - [`configs`] — the paper's GPT-2 8.3B and GPT-3 175B shapes.

#![warn(missing_docs)]

pub mod configs;
pub mod model_parallel;
pub mod optimizers;
pub mod pipeline;
pub mod training;

pub use configs::ModelConfig;
pub use optimizers::{Hyper, Optimizer, OptimizerSchedule};
