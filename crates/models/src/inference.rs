//! End-to-end inference models: model-parallel (§6.2.2) and
//! pipeline-parallel (Table 5).
//!
//! A transformer layer's time is (attention GEMMs + MLP GEMMs) plus the
//! two communication epilogues this repo models in detail. The
//! schedule only changes the epilogues, so end-to-end speedups are the
//! standalone speedups diluted by the GEMM share — which is why the
//! paper's §6.2.2 reports 1.48–1.51× end-to-end from 1.42–1.70×
//! standalone, and Table 5 reports 1.33× for GPT-3 from 11.75×
//! standalone (the pipeline epilogue is a small slice of a 175B
//! model's compute).

use coconet_core::{lower, Binding, CollAlgo, CommConfig, Protocol, WireFormat};
use coconet_sim::Simulator;
use coconet_topology::MachineSpec;

use crate::model_parallel::{apply_block_schedule, Block, BlockSchedule};
use crate::pipeline::{apply_pipeline_schedule, PipelineSchedule};
use crate::training::gemm_efficiency;
use crate::ModelConfig;

/// Time of the transformer-layer GEMMs (everything except the modeled
/// epilogues) for one layer on `mp` model-parallel ranks.
fn layer_gemm_time(cfg: &ModelConfig, batch: usize, mp: usize, machine: &MachineSpec) -> f64 {
    // 24 B S H^2 FLOPs per layer (QKV, attention out, two MLP mats),
    // sharded `mp` ways.
    let flops = 24.0 * batch as f64 * cfg.seq as f64 * (cfg.hidden as f64).powi(2);
    flops / (mp as f64 * machine.gpu.fp16_flops * gemm_efficiency(batch * cfg.seq))
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

/// End-to-end model-parallel inference speedup of the overlapped
/// schedule over Megatron-LM (§6.2.2): per layer, both blocks' GEMMs
/// plus the two epilogues.
pub fn model_parallel_inference_speedup(cfg: &ModelConfig, batch: usize, mp: usize) -> f64 {
    let machine = MachineSpec::dgx2_cluster(1);
    // The modeled epilogues replace the MatMul+AR tail of each block;
    // subtract the epilogue MatMul which layer_gemm_time also counts.
    let gemm = layer_gemm_time(cfg, batch, mp, &machine);
    let base = model_parallel_epilogue_time(cfg, batch, mp, BlockSchedule::Megatron);
    let best = model_parallel_epilogue_time(cfg, batch, mp, BlockSchedule::Overlap);
    // The epilogue includes the block's final GEMM; don't double count:
    // remove 2 of the layer's 4 GEMM groups from the additive term.
    let other_gemms = gemm * 0.5;
    (other_gemms + base) / (other_gemms + best)
}

/// The pipeline-parallel epilogue time of one layer boundary under a
/// schedule (Figure 12's standalone measurement).
pub fn pipeline_epilogue_time(
    cfg: &ModelConfig,
    batch: usize,
    group_size: usize,
    num_groups: usize,
    schedule: PipelineSchedule,
) -> f64 {
    let sim = Simulator::new(
        MachineSpec::dgx2_cluster(num_groups.max(2)),
        group_size,
        num_groups,
    );
    let config = CommConfig {
        algo: CollAlgo::Ring,
        protocol: Protocol::Simple,
        channels: 16,
        format: WireFormat::Dense,
        ..CommConfig::default()
    };
    let binding = Binding::new(group_size)
        .with_groups(num_groups)
        .bind("B", batch as u64)
        .bind("S", cfg.seq as u64)
        .bind("H", cfg.hidden as u64);
    let (p, _, _) = apply_pipeline_schedule(schedule).expect("fixed schedule");
    let plan = lower(&p, &binding, config).expect("lowers");
    sim.time_plan(&plan).total
}

/// End-to-end pipeline inference speedup (Table 5): layers-per-node
/// transformer layers of GEMM + model-parallel epilogue, then one
/// pipeline boundary per node.
pub fn pipeline_inference_speedup(cfg: &ModelConfig, batch: usize, layers_per_node: usize) -> f64 {
    let machine = MachineSpec::dgx2_cluster(16);
    let mp = 16;
    let gemm = layer_gemm_time(cfg, batch, mp, &machine) * layers_per_node as f64;
    let mp_epilogue = model_parallel_epilogue_time(cfg, batch, mp, BlockSchedule::Megatron)
        * layers_per_node as f64;
    let base = pipeline_epilogue_time(cfg, batch, 16, 16, PipelineSchedule::Megatron);
    let best = pipeline_epilogue_time(cfg, batch, 16, 16, PipelineSchedule::Overlap);
    let compute = gemm * 0.5 + mp_epilogue;
    (compute + base) / (compute + best)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn end_to_end_model_parallel_speedup_is_diluted() {
        // §6.2.2: 1.48x (GPT-2 8.3B) / 1.51x (BERT 3.9B) end to end.
        let cfg = ModelConfig::gpt2_8_3b();
        let e2e = model_parallel_inference_speedup(&cfg, 8, 16);
        let standalone = model_parallel_epilogue_time(&cfg, 8, 16, BlockSchedule::Megatron)
            / model_parallel_epilogue_time(&cfg, 8, 16, BlockSchedule::Overlap);
        assert!(e2e > 1.1, "e2e {e2e}");
        assert!(e2e < standalone, "dilution: {e2e} < {standalone}");
    }

    #[test]
    fn standalone_pipeline_ordering_matches_figure12() {
        let cfg = ModelConfig::gpt3_175b();
        let t = |s| pipeline_epilogue_time(&cfg, 2, 16, 16, s);
        let megatron = t(PipelineSchedule::Megatron);
        let ar_c = t(PipelineSchedule::ArCP2pAg);
        let gshard = t(PipelineSchedule::RsCP2pAg);
        let overlap = t(PipelineSchedule::Overlap);
        assert!(ar_c < megatron);
        assert!(gshard < ar_c);
        assert!(overlap < gshard);
        // Figure 12: 4.2x / 7.1x / 11.8-12.2x bands (we accept the
        // same ordering at comparable magnitudes).
        let s1 = megatron / ar_c;
        let s2 = megatron / gshard;
        let s3 = megatron / overlap;
        assert!((2.5..8.0).contains(&s1), "AR-C-P2P-AG {s1}");
        assert!((4.0..11.0).contains(&s2), "GShard {s2}");
        assert!((7.0..18.0).contains(&s3), "overlap {s3}");
    }

    #[test]
    fn table5_end_to_end_band() {
        // GPT-2 8.3B, 5 layers/node, micro batch 16: paper 1.77x.
        let gpt2 = pipeline_inference_speedup(&ModelConfig::gpt2_8_3b(), 16, 5);
        assert!((1.15..2.6).contains(&gpt2), "GPT-2 {gpt2}");
        // GPT-3 175B, 6 layers/node, micro batch 2: paper 1.33x.
        let gpt3 = pipeline_inference_speedup(&ModelConfig::gpt3_175b(), 2, 6);
        assert!((1.1..1.9).contains(&gpt3), "GPT-3 {gpt3}");
        // GPT-2's boundary is a bigger fraction: larger speedup.
        assert!(gpt2 > gpt3);
    }
}
