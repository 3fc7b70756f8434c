//! Model-parallel self-attention and MLP blocks (§6.2, Figure 3).
//!
//! Megatron-LM splits each transformer layer across the GPUs of one
//! node: the last operations of both the self-attention block and the
//! MLP block are a row-parallel MatMul producing partial sums, an
//! AllReduce, bias + dropout + residual. The paper's schedules differ
//! in how much of that is fused and overlapped.

use coconet_core::xform::{
    fuse_all_reduce, fuse_compute, overlap, reorder_all_gather, split_all_reduce,
};
use coconet_core::{
    lower, Binding, CollAlgo, CommConfig, CoreError, DType, Layout, Program, Protocol, ReduceOp,
    VarId, WireFormat,
};
use coconet_sim::Simulator;
use coconet_topology::MachineSpec;

use crate::ModelConfig;

/// Which block of the transformer layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Block {
    /// Self-attention epilogue: `[B,S,H] x [H,H]`.
    SelfAttention,
    /// MLP epilogue: `[B,S,4H] x [4H,H]`.
    Mlp,
}

impl Block {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Block::SelfAttention => "self_attention",
            Block::Mlp => "mlp",
        }
    }
}

/// Handles into a model-parallel block program.
#[derive(Clone, Debug)]
pub struct BlockVars {
    /// The row-parallel MatMul.
    pub layer: VarId,
    /// The AllReduce of partial sums.
    pub sum: VarId,
    /// The pointwise epilogue (bias add, dropout, residual add).
    pub comps: Vec<VarId>,
    /// The program output.
    pub out: VarId,
}

/// Builds the Figure 3 program for one block. The contraction
/// dimension is `H` for self-attention and `4H` (symbol `H4`) for the
/// MLP; both produce `[B, S, H]`.
///
/// # Errors
///
/// Propagates builder errors (none occur for the fixed shapes).
pub fn block_program(block: Block) -> Result<(Program, BlockVars), CoreError> {
    let mut p = Program::new(block.name());
    let contract = match block {
        Block::SelfAttention => "H",
        Block::Mlp => "H4",
    };
    let w = p.input("w", DType::F16, [contract, "H"], Layout::sliced(0));
    let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
    let input = p.input("in", DType::F16, ["B", "S", contract], Layout::sliced(2));
    let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
    let layer = p.matmul(input, w)?;
    p.set_name(layer, "layer")?;
    let sum = p.all_reduce(ReduceOp::Sum, layer)?;
    p.set_name(sum, "sum")?;
    let biased = p.add(sum, b)?;
    let d = p.dropout(biased, 0.1)?;
    p.set_name(d, "dropout")?;
    let out = p.add(d, r)?;
    p.set_name(out, "out")?;
    p.set_io(&[w, input, b, r], &[out])?;
    Ok((
        p,
        BlockVars {
            layer,
            sum,
            comps: vec![biased, d, out],
            out,
        },
    ))
}

/// The §6.2.1 schedules.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockSchedule {
    /// Megatron-LM baseline: library MatMul, NCCL AllReduce, separate
    /// pointwise kernels.
    Megatron,
    /// `MM-AR-C`: pointwise computations fused into one kernel.
    MmArC,
    /// GShard-Eq / `MM-RS-C-AG`: split + reorder, sliced computations.
    MmRsCAg,
    /// `ol(MM, fuse(RS-C-AG))`: FusedAllReduce overlapped with the
    /// MatMul — the autotuner's winner.
    Overlap,
}

impl BlockSchedule {
    /// Paper-style label.
    pub fn label(self) -> &'static str {
        match self {
            BlockSchedule::Megatron => "Megatron-LM",
            BlockSchedule::MmArC => "MM-AR-C",
            BlockSchedule::MmRsCAg => "GShard-Eq (MM-RS-C-AG)",
            BlockSchedule::Overlap => "ol(MM,fuse(RS-C-AG))",
        }
    }

    /// All schedules in presentation order (Figure 11).
    pub const ALL: [BlockSchedule; 4] = [
        BlockSchedule::Megatron,
        BlockSchedule::MmArC,
        BlockSchedule::MmRsCAg,
        BlockSchedule::Overlap,
    ];
}

/// Builds a block program and applies a schedule. Returns the program,
/// the transformation log, and the name of the final output variable.
///
/// # Errors
///
/// Propagates transformation errors (none occur for these programs).
pub fn apply_block_schedule(
    block: Block,
    schedule: BlockSchedule,
) -> Result<(Program, Vec<String>, String), CoreError> {
    let (mut p, vars) = block_program(block)?;
    let mut log = Vec::new();
    let mut out_name = "out".to_string();
    match schedule {
        BlockSchedule::Megatron => {}
        BlockSchedule::MmArC => {
            fuse_compute(&mut p, &vars.comps)?;
            log.push("c = fuse(comps, ComputationFuse)".to_string());
        }
        BlockSchedule::MmRsCAg | BlockSchedule::Overlap => {
            let (rs, ag) = split_all_reduce(&mut p, vars.sum)?;
            log.push("(rsSum, agSum) = split(sum, ARSplitRSAG)".to_string());
            let result = reorder_all_gather(&mut p, ag, &vars.comps)?;
            log.push("(scOut, agOut) = reorder(agSum, comps)".to_string());
            let new_ag = result.gathers[0].1;
            out_name = p.node(new_ag)?.name().to_string();
            if schedule == BlockSchedule::Overlap {
                fuse_all_reduce(&mut p, rs, &result.sliced, &[new_ag])?;
                log.push("fuseAR = fuse(rsSum, scOut, agOut, AllReduceFuse)".to_string());
                overlap(&mut p, &[vars.layer, rs])?;
                log.push("overlapOut = overlap(layer, fuseAR)".to_string());
            } else {
                fuse_compute(&mut p, &result.sliced)?;
                log.push("c = fuse(scOut, ComputationFuse)".to_string());
            }
        }
    }
    p.validate()?;
    Ok((p, log, out_name))
}

/// The epilogue (modeled) time of one layer under a model-parallel
/// block schedule: self-attention + MLP epilogues.
pub fn model_parallel_epilogue_time(
    cfg: &ModelConfig,
    batch: usize,
    mp: usize,
    schedule: BlockSchedule,
) -> f64 {
    let sim = Simulator::new(MachineSpec::dgx2_cluster(1), mp, 1);
    let config = CommConfig {
        algo: CollAlgo::Ring,
        protocol: Protocol::Simple,
        channels: 16,
        format: WireFormat::Dense,
        ..CommConfig::default()
    };
    let mut total = 0.0;
    for block in [Block::SelfAttention, Block::Mlp] {
        let binding = Binding::new(mp)
            .bind("B", batch as u64)
            .bind("S", cfg.seq as u64)
            .bind("H", cfg.hidden as u64)
            .bind("H4", 4 * cfg.hidden as u64);
        let (p, _, _) = apply_block_schedule(block, schedule).expect("fixed schedule");
        let plan = lower(&p, &binding, config).expect("lowers");
        total += sim.time_plan(&plan).total;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_core::Step;
    use coconet_runtime::{run_program, Inputs, RunOptions};
    use coconet_tensor::{CounterRng, Tensor};

    fn small_binding() -> Binding {
        Binding::new(4)
            .bind("B", 2)
            .bind("S", 4)
            .bind("H", 8)
            .bind("H4", 32)
    }

    fn inputs_for(block: Block, binding: &Binding) -> Inputs {
        let rng = CounterRng::new(31);
        let h = binding.get("H").unwrap() as usize;
        let contract = match block {
            Block::SelfAttention => h,
            Block::Mlp => binding.get("H4").unwrap() as usize,
        };
        let b = binding.get("B").unwrap() as usize;
        let s = binding.get("S").unwrap() as usize;
        Inputs::new()
            .global("w", Tensor::randn([contract, h], DType::F16, rng, 0))
            .global("b", Tensor::randn([h], DType::F16, rng, 50_000))
            .global(
                "in",
                Tensor::randn([b, s, contract], DType::F16, rng, 100_000),
            )
            .global("r", Tensor::randn([b, s, h], DType::F16, rng, 200_000))
    }

    #[test]
    fn all_schedules_preserve_semantics_for_both_blocks() {
        for block in [Block::SelfAttention, Block::Mlp] {
            let binding = small_binding();
            let inputs = inputs_for(block, &binding);
            let opts = RunOptions::default().with_seed(5);
            let (base, _, base_out) = apply_block_schedule(block, BlockSchedule::Megatron).unwrap();
            let reference = run_program(&base, &binding, &inputs, opts)
                .unwrap()
                .global(&base_out)
                .unwrap();
            for schedule in BlockSchedule::ALL {
                let (p, _, out_name) = apply_block_schedule(block, schedule).unwrap();
                let got = run_program(&p, &binding, &inputs, opts)
                    .unwrap()
                    .global(&out_name)
                    .unwrap();
                let diff = got.max_abs_diff(&reference);
                assert!(
                    diff < 2e-2,
                    "{:?} {} differs by {diff}",
                    block,
                    schedule.label()
                );
            }
        }
    }

    #[test]
    fn schedules_lower_to_expected_step_shapes() {
        let binding = Binding::new(16)
            .bind("B", 8)
            .bind("S", 1024)
            .bind("H", 3072)
            .bind("H4", 4 * 3072);
        // Megatron: 5 separate launches.
        let (p, _, _) =
            apply_block_schedule(Block::SelfAttention, BlockSchedule::Megatron).unwrap();
        let plan = coconet_core::lower(&p, &binding, CommConfig::default()).unwrap();
        assert_eq!(plan.total_launches(), 5);
        // MM-AR-C: MatMul + AR + one fused kernel = 3.
        let (p, _, _) = apply_block_schedule(Block::SelfAttention, BlockSchedule::MmArC).unwrap();
        let plan = coconet_core::lower(&p, &binding, CommConfig::default()).unwrap();
        assert_eq!(plan.total_launches(), 3);
        // Overlap: a single pipeline of 2 stages.
        let (p, _, _) = apply_block_schedule(Block::SelfAttention, BlockSchedule::Overlap).unwrap();
        let plan = coconet_core::lower(&p, &binding, CommConfig::default()).unwrap();
        assert_eq!(plan.steps.len(), 1);
        assert!(matches!(plan.steps[0], Step::Overlapped(_)));
    }

    #[test]
    fn mlp_contracts_over_4h() {
        let (p, vars) = block_program(Block::Mlp).unwrap();
        let binding = small_binding();
        let ty = p.ty(vars.layer).unwrap();
        assert_eq!(ty.shape.eval(&binding).unwrap().dims(), &[2, 4, 8]);
        let plan = coconet_core::lower(&p, &binding, CommConfig::default()).unwrap();
        if let Step::MatMul(mm) = &plan.steps[0] {
            assert_eq!(mm.k, 32 / 4, "4H contracted, sliced over 4 ranks");
        } else {
            panic!("first step is the MatMul");
        }
    }

    #[test]
    fn standalone_model_parallel_ordering_matches_figure11() {
        let cfg = ModelConfig::gpt2_8_3b();
        let t = |s| model_parallel_epilogue_time(&cfg, 8, 16, s);
        let megatron = t(BlockSchedule::Megatron);
        let mm_ar_c = t(BlockSchedule::MmArC);
        let gshard = t(BlockSchedule::MmRsCAg);
        let overlap = t(BlockSchedule::Overlap);
        assert!(mm_ar_c < megatron, "fusing pointwise helps");
        assert!(gshard < mm_ar_c, "distributing computations helps more");
        assert!(overlap < gshard, "overlap wins (the autotuner's pick)");
        let speedup = megatron / overlap;
        assert!(
            (1.2..2.2).contains(&speedup),
            "Figure 11 band: 1.42-1.70x, got {speedup}"
        );
    }
}
