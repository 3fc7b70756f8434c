//! Inspect the CUDA source CoCoNet generates for each schedule of the
//! model-parallel self-attention block (§5): library glue and
//! pointwise kernels for the unfused schedules, and for the overlapped
//! one the pipeline file — a chunk-ordered CUTLASS GEMM epilogue and
//! the protocol-specialized FusedAllReduce, with bias-add, dropout and
//! residual fused in, gated on its spin-lock flags.
//!
//! The counts are schedule-dependent lines: protocol, transport and
//! GEMM primitives are `#include`d (`nccl_device_glue.cuh`,
//! `<cutlass/gemm/device/gemm.h>`), not re-emitted per file.
//!
//! Run with: `cargo run --example codegen_inspect [-- --dump]`

use coconet::core::generate_cuda;
use coconet::models::model_parallel::{apply_block_schedule, Block, BlockSchedule};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dump = std::env::args().any(|a| a == "--dump");
    for schedule in BlockSchedule::ALL {
        let (p, log, _) = apply_block_schedule(Block::SelfAttention, schedule)?;
        let code = generate_cuda(&p)?;
        println!(
            "{:>24}: {:>5} generated CUDA lines in {} file(s), {} DSL lines (+{} schedule)",
            schedule.label(),
            code.total_loc(),
            code.files.len(),
            p.dsl_loc(),
            log.len()
        );
        for (name, src) in &code.files {
            println!("    {name}: {} lines", src.lines().count());
        }
        if dump && schedule == BlockSchedule::Overlap {
            println!("--- overlapped implementation ---\n{}", code.source());
        }
    }
    println!("\n(pass --dump to print the overlapped CUDA source)");
    Ok(())
}
