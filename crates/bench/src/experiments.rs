//! The experiment implementations behind the figures and tables of §6
//! that this reproduction prices.
//!
//! Each function computes the measured rows for one paper artifact;
//! the bench targets print them next to the paper's reported values.

use coconet_core::{
    lower, Binding, CollAlgo, CollKind, CommConfig, DType, FusedCollectiveStep, Program, Protocol,
    WireFormat,
};
use coconet_models::model_parallel::{
    apply_block_schedule, model_parallel_epilogue_time, Block, BlockSchedule,
};
use coconet_models::pipeline::{apply_pipeline_schedule, pipeline_epilogue_time, PipelineSchedule};
use coconet_models::{optimizers, Hyper, ModelConfig, Optimizer, OptimizerSchedule};
use coconet_sim::{default_protocol, simulate_overlap, GroupGeom, Simulator};
use coconet_topology::MachineSpec;

/// Ranks in the paper's data-parallel experiments.
pub const DP_RANKS: usize = 256;

/// The best ring-algorithm `protocol × channels` configuration — the
/// sweep the paper's fixed-schedule experiments use. The algorithm
/// dimension is swept separately by [`ablation_algorithms`] and by the
/// autotuner itself.
fn best_config<F: Fn(CommConfig) -> f64>(eval: F) -> (CommConfig, f64) {
    best_config_for_algo(CollAlgo::Ring, eval)
}

/// The best `protocol × channels` configuration under one algorithm.
fn best_config_for_algo<F: Fn(CommConfig) -> f64>(algo: CollAlgo, eval: F) -> (CommConfig, f64) {
    let mut best: Option<(CommConfig, f64)> = None;
    for protocol in Protocol::ALL {
        for channels in [2usize, 4, 8, 16, 32, 64] {
            let config = CommConfig {
                algo,
                protocol,
                channels,
                format: WireFormat::Dense,
                ..CommConfig::default()
            };
            let t = eval(config);
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((config, t));
            }
        }
    }
    best.expect("non-empty sweep")
}

// ---------------------------------------------------------------- Figure 1

/// One Figure 1 measurement: overlapped MatMul+AllReduce vs sequential.
#[derive(Clone, Debug)]
pub struct Fig1Row {
    /// Batch size.
    pub batch: u64,
    /// Sequential MatMul + AllReduce time.
    pub sequential: f64,
    /// Overlapped pipeline time.
    pub overlapped: f64,
    /// Fraction of the MatMul hidden under the AllReduce.
    pub matmul_hidden: f64,
}

impl Fig1Row {
    /// Speedup of overlap over sequential.
    pub fn speedup(&self) -> f64 {
        self.sequential / self.overlapped
    }
}

/// Figure 1: `[B*1024, 768] x [768, 3072]` on 16 V100s (one DGX-2).
pub fn figure1() -> Vec<Fig1Row> {
    let sim = Simulator::new(MachineSpec::dgx2_cluster(1), 16, 1);
    let geom = sim.group_geom();
    let cost = sim.cost_model();
    [8u64, 16, 32, 64]
        .into_iter()
        .map(|batch| {
            let mm = coconet_core::MatMulStep {
                label: "MatMul".into(),
                m: batch * 1024,
                k: 768,
                n: 3072,
                dtype: DType::F16,
            };
            let ar = FusedCollectiveStep {
                label: "AR".into(),
                algo: CollAlgo::Ring,
                elems: batch * 1024 * 3072,
                dtype: DType::F16,
                extra_bytes_read: 0,
                extra_bytes_written: 0,
                flops: 0,
                embedded_scalar_allreduces: 0,
                n_fused_ops: 0,
            };
            let (config, overlapped) = best_config(|c| {
                simulate_overlap(
                    cost,
                    &coconet_core::OverlappedStep {
                        label: "ol".into(),
                        stages: vec![
                            coconet_core::OverlapStage::MatMul(mm.clone()),
                            coconet_core::OverlapStage::FusedCollective(ar.clone()),
                        ],
                    },
                    geom,
                    false,
                    c,
                )
                .total
            });
            let t_mm = cost.matmul_time(&mm);
            let t_ar = cost.fused_collective_time(&ar, geom, config);
            let sequential = t_mm + t_ar;
            let matmul_hidden = ((sequential - overlapped) / t_mm).clamp(0.0, 1.0);
            Fig1Row {
                batch,
                sequential,
                overlapped,
                matmul_hidden,
            }
        })
        .collect()
}

// --------------------------------------------------------------- Figure 10

/// One Figure 10 point: speedups over AllReduce+FusedOpt at one size.
#[derive(Clone, Debug)]
pub struct Fig10Row {
    /// log2 of the element count.
    pub log2_elems: u32,
    /// Baseline time (AR + Apex-fused optimizer, default NCCL config).
    pub baseline: f64,
    /// `AR-Opt` speedup.
    pub ar_opt: f64,
    /// GShard-Eq (`RS-Opt-AG`) speedup.
    pub gshard: f64,
    /// `fuse(RS-Opt-AG)` speedup.
    pub fused: f64,
    /// Upper bound (AllReduce alone) speedup.
    pub upper_bound: f64,
}

/// Figure 10: optimizer schedules across tensor sizes on 256 GPUs.
/// `exponents` selects which powers of two to evaluate. Every schedule
/// is priced from `lower` of its program — the kernels that run.
pub fn figure10(opt: Optimizer, exponents: &[u32]) -> Vec<Fig10Row> {
    let sim = Simulator::new(MachineSpec::paper_testbed(), DP_RANKS, 1);
    let geom = sim.group_geom();
    let cost = sim.cost_model();
    let norms = match opt {
        Optimizer::Adam => 0usize,
        Optimizer::Lamb => 2,
    };
    let [ar_opt_p, gshard_p, fused_p] = [
        OptimizerSchedule::ArOpt,
        OptimizerSchedule::RsOptAg,
        OptimizerSchedule::FusedRsOptAg,
    ]
    .map(|s| {
        optimizers::apply_optimizer_schedule(opt, Hyper::default(), s)
            .expect("fixed schedule")
            .0
    });
    exponents
        .iter()
        .map(|&e| {
            let n = 1u64 << e;
            let binding = Binding::new(DP_RANKS).bind("N", n);
            let time = |p: &Program, c: CommConfig| {
                sim.time_plan(&lower(p, &binding, c).expect("lowers")).total
            };
            // Baseline: AR-Opt's AllReduce and fused optimizer kernel
            // under the default NCCL config, plus the Apex optimizers'
            // preprocessing and separate norm kernels.
            let default_cfg = CommConfig {
                algo: CollAlgo::Ring,
                protocol: default_protocol(2 * n),
                channels: 16,
                format: WireFormat::Dense,
                ..CommConfig::default()
            };
            let baseline = time(&ar_opt_p, default_cfg) + 25e-6 + norms as f64 * 20e-6;
            // AR-Opt: tuned AR + fused kernel.
            let (_, ar_opt) = best_config(|c| time(&ar_opt_p, c));
            // GShard-Eq: RS + sliced kernel (+ scalar ARs for sliced
            // norms) + AG.
            let (_, gshard) = best_config(|c| time(&gshard_p, c));
            // fuse(RS-Opt-AG): one fused collective.
            let (_, fused) = best_config(|c| time(&fused_p, c));
            // Upper bound: the AllReduce alone, tuned.
            let (_, ub) =
                best_config(|c| cost.collective_time(CollKind::AllReduce, n, DType::F16, geom, c));
            Fig10Row {
                log2_elems: e,
                baseline,
                ar_opt: baseline / ar_opt,
                gshard: baseline / gshard,
                fused: baseline / fused,
                upper_bound: baseline / ub,
            }
        })
        .collect()
}

// --------------------------------------------------------------- Figure 11

/// One Figure 11 bar: a schedule's time normalized to Megatron-LM.
#[derive(Clone, Debug)]
pub struct Fig11Row {
    /// Batch size.
    pub batch: u64,
    /// Which block (`self_attention` epilogue or MLP epilogue).
    pub block: &'static str,
    /// Schedule label.
    pub schedule: &'static str,
    /// Absolute time.
    pub time: f64,
    /// Speedup over Megatron-LM.
    pub speedup: f64,
    /// Per-step breakdown, `(label, seconds)` — the stacked bars.
    pub breakdown: Vec<(String, f64)>,
}

/// A schedule's measured total plus per-step breakdown.
type TimedSchedule = (BlockSchedule, f64, Vec<(String, f64)>);

/// Figure 11: model-parallel schedules for GPT-2 8.3B sizes on 16 GPUs.
pub fn figure11() -> Vec<Fig11Row> {
    let cfg = ModelConfig::gpt2_8_3b();
    let mut rows = Vec::new();
    for (block, name) in [
        (Block::SelfAttention, "[B,S,H/16]x[H/16,H]"),
        (Block::Mlp, "[B,S,4H/16]x[4H/16,H]"),
    ] {
        for batch in [8u64, 16] {
            let times: Vec<TimedSchedule> = BlockSchedule::ALL
                .iter()
                .map(|&s| {
                    let (t, breakdown) = block_time(&cfg, block, batch as usize, s);
                    (s, t, breakdown)
                })
                .collect();
            let megatron = times[0].1;
            for (s, t, breakdown) in times {
                rows.push(Fig11Row {
                    batch,
                    block: name,
                    schedule: s.label(),
                    time: t,
                    speedup: megatron / t,
                    breakdown,
                });
            }
        }
    }
    rows
}

fn block_time(
    cfg: &ModelConfig,
    block: Block,
    batch: usize,
    schedule: BlockSchedule,
) -> (f64, Vec<(String, f64)>) {
    let sim = Simulator::new(MachineSpec::dgx2_cluster(1), 16, 1);
    let binding = Binding::new(16)
        .bind("B", batch as u64)
        .bind("S", cfg.seq as u64)
        .bind("H", cfg.hidden as u64)
        .bind("H4", 4 * cfg.hidden as u64);
    let (p, _, _) = apply_block_schedule(block, schedule).expect("fixed schedule");
    let (config, total) = best_config(|c| {
        lower(&p, &binding, c)
            .map(|plan| sim.time_plan(&plan).total)
            .unwrap_or(f64::INFINITY)
    });
    let plan = lower(&p, &binding, config).expect("lowers");
    let timed = sim.time_plan(&plan);
    (
        total,
        timed
            .steps
            .iter()
            .map(|s| (s.label.clone(), s.seconds))
            .collect(),
    )
}

// --------------------------------------------------------------- Figure 12

/// One Figure 12 bar.
#[derive(Clone, Debug)]
pub struct Fig12Row {
    /// Micro batch size.
    pub batch: u64,
    /// Schedule label.
    pub schedule: &'static str,
    /// Absolute time.
    pub time: f64,
    /// Speedup over Megatron-LM.
    pub speedup: f64,
}

/// Figure 12: pipeline-parallel schedules for GPT-3 175B sizes across
/// 16 DGX-2 nodes.
pub fn figure12() -> Vec<Fig12Row> {
    let cfg = ModelConfig::gpt3_175b();
    let mut rows = Vec::new();
    for batch in [2u64, 4, 6, 8] {
        let times: Vec<(PipelineSchedule, f64)> = PipelineSchedule::ALL
            .iter()
            .map(|&s| {
                let t = best_pipeline_time(&cfg, batch as usize, s);
                (s, t)
            })
            .collect();
        let megatron = times[0].1;
        for (s, t) in times {
            rows.push(Fig12Row {
                batch,
                schedule: s.label(),
                time: t,
                speedup: megatron / t,
            });
        }
    }
    rows
}

fn best_pipeline_time(cfg: &ModelConfig, batch: usize, schedule: PipelineSchedule) -> f64 {
    let sim = Simulator::new(MachineSpec::dgx2_cluster(16), 16, 16);
    let binding = Binding::new(16)
        .with_groups(16)
        .bind("B", batch as u64)
        .bind("S", cfg.seq as u64)
        .bind("H", cfg.hidden as u64);
    let (p, _, _) = apply_pipeline_schedule(schedule).expect("fixed schedule");
    best_config(|c| {
        lower(&p, &binding, c)
            .map(|plan| sim.time_plan(&plan).total)
            .unwrap_or(f64::INFINITY)
    })
    .1
}

// ----------------------------------------------------------------- Table 3

/// One Table 3 row: lines of code and autotuner bookkeeping.
#[derive(Clone, Debug)]
pub struct Tab3Row {
    /// Schedule label.
    pub schedule: String,
    /// Schedule-dependent generated CUDA lines: protocol, transport and
    /// GEMM primitives are `#include`d by the generated code, not
    /// counted.
    pub generated_cuda: usize,
    /// DSL program + schedule lines.
    pub program_loc: usize,
}

/// Table 3a: the Adam/LAMB schedules.
pub fn table3a(opt: Optimizer) -> Vec<Tab3Row> {
    [
        OptimizerSchedule::ArOpt,
        OptimizerSchedule::RsOptAg,
        OptimizerSchedule::FusedRsOptAg,
    ]
    .into_iter()
    .map(|s| {
        let (p, log) =
            optimizers::apply_optimizer_schedule(opt, Hyper::default(), s).expect("fixed schedule");
        let code = coconet_core::generate_cuda(&p).expect("generates");
        Tab3Row {
            schedule: s.label(opt),
            generated_cuda: code.total_loc(),
            program_loc: p.dsl_loc() + log.len(),
        }
    })
    .collect()
}

/// Table 3b: the model-parallel schedules.
pub fn table3b() -> Vec<Tab3Row> {
    [
        BlockSchedule::MmArC,
        BlockSchedule::MmRsCAg,
        BlockSchedule::Overlap,
    ]
    .into_iter()
    .map(|s| {
        let (p, log, _) = apply_block_schedule(Block::SelfAttention, s).expect("fixed schedule");
        let code = coconet_core::generate_cuda(&p).expect("generates");
        Tab3Row {
            schedule: s.label().to_string(),
            generated_cuda: code.total_loc(),
            program_loc: p.dsl_loc() + log.len(),
        }
    })
    .collect()
}

/// Table 3c: the pipeline-parallel schedules.
pub fn table3c() -> Vec<Tab3Row> {
    [
        PipelineSchedule::ArCP2pAg,
        PipelineSchedule::RsCP2pAg,
        PipelineSchedule::Overlap,
    ]
    .into_iter()
    .map(|s| {
        let (p, log, _) = apply_pipeline_schedule(s).expect("fixed schedule");
        let code = coconet_core::generate_cuda(&p).expect("generates");
        Tab3Row {
            schedule: s.label().to_string(),
            generated_cuda: code.total_loc(),
            program_loc: p.dsl_loc() + log.len(),
        }
    })
    .collect()
}

/// The Table 3 autotuner workloads, by name.
pub const AUTOTUNE_WORKLOADS: [&str; 4] = ["adam", "lamb", "model-parallel", "pipeline"];

/// Builds the program, binding, and machine simulator of one Table 3
/// autotuner workload (see [`AUTOTUNE_WORKLOADS`]).
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn autotune_setup(which: &str) -> (Program, Binding, Simulator) {
    match which {
        "adam" | "lamb" => {
            let opt = if which == "adam" {
                Optimizer::Adam
            } else {
                Optimizer::Lamb
            };
            let (p, _) = optimizers::optimizer_program(opt, Hyper::default()).expect("builds");
            (
                p,
                Binding::new(DP_RANKS).bind("N", 1 << 26),
                Simulator::new(MachineSpec::paper_testbed(), DP_RANKS, 1),
            )
        }
        "model-parallel" => {
            let (p, _) = coconet_models::model_parallel::block_program(Block::SelfAttention)
                .expect("builds");
            (
                p,
                Binding::new(16)
                    .bind("B", 8)
                    .bind("S", 1024)
                    .bind("H", 3072),
                Simulator::new(MachineSpec::dgx2_cluster(1), 16, 1),
            )
        }
        "pipeline" => {
            let (p, _) = coconet_models::pipeline::pipeline_program().expect("builds");
            (
                p,
                Binding::new(16)
                    .with_groups(16)
                    .bind("B", 2)
                    .bind("S", 2048)
                    .bind("H", 12288),
                Simulator::new(MachineSpec::dgx2_cluster(16), 16, 16),
            )
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Runs the real autotuner on a workload and reports (schedules
/// explored, configs evaluated, wall seconds, best label).
pub fn autotune_workload(which: &str) -> (usize, usize, f64, String) {
    let (program, binding, sim) = autotune_setup(which);
    let tuner = coconet_core::Autotuner::default();
    let report = tuner.tune(&program, &binding, &sim).expect("tunes");
    (
        report.schedules_explored,
        report.configs_evaluated,
        report.elapsed.as_secs_f64(),
        report.best().expect("baseline lowers").label(),
    )
}

// --------------------------------------------------------------- Ablations

/// Ablation: protocol choice per message size (AllReduce, 256 GPUs).
pub fn ablation_protocols(exponents: &[u32]) -> Vec<(u32, [f64; 3])> {
    let sim = Simulator::new(MachineSpec::paper_testbed(), DP_RANKS, 1);
    let geom = sim.group_geom();
    let cost = sim.cost_model();
    exponents
        .iter()
        .map(|&e| {
            let times = Protocol::ALL.map(|p| {
                cost.collective_time(
                    CollKind::AllReduce,
                    1 << e,
                    DType::F16,
                    geom,
                    CommConfig {
                        algo: CollAlgo::Ring,
                        protocol: p,
                        channels: 16,
                        format: WireFormat::Dense,
                        ..CommConfig::default()
                    },
                )
            });
            (e, times)
        })
        .collect()
}

/// Ablation: channel-count sweep for a large AllReduce.
pub fn ablation_channels(elems: u64) -> Vec<(usize, f64)> {
    let sim = Simulator::new(MachineSpec::paper_testbed(), DP_RANKS, 1);
    let geom = sim.group_geom();
    let cost = sim.cost_model();
    [2usize, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|ch| {
            (
                ch,
                cost.collective_time(
                    CollKind::AllReduce,
                    elems,
                    DType::F16,
                    geom,
                    CommConfig {
                        algo: CollAlgo::Ring,
                        protocol: Protocol::Simple,
                        channels: ch,
                        format: WireFormat::Dense,
                        ..CommConfig::default()
                    },
                ),
            )
        })
        .collect()
}

/// Name of the winning algorithm among
/// `[ring, tree, hierarchical, switch]` times, as produced by
/// [`ablation_algorithms`] — ties resolve in [`CollAlgo::ALL`] order
/// (ring first), matching the autotuner's own tie-breaking.
pub fn algo_winner(times: &[f64; 4]) -> &'static str {
    let names = ["ring", "tree", "hierarchical", "switch"];
    let mut best = 0;
    for (i, &t) in times.iter().enumerate().skip(1) {
        if t < times[best] {
            best = i;
        }
    }
    names[best]
}

/// Ablation: AllReduce time per collective algorithm and message size
/// (256 GPUs, each algorithm at its own best `protocol × channels`).
/// Returns `(log2_elems, [ring, tree, hierarchical, switch])` — the
/// size crossover the autotuner's algorithm dimension exploits: trees
/// win latency-bound small messages, rings win bandwidth-bound large
/// ones, the two-level hierarchical variant sits between, and the
/// in-network switch's constant-in-`k` volume pays a quantization
/// codec that keeps it behind the ring at this dense geometry (its win
/// is the *worker-count* axis — see [`ablation_switch_workers`]).
pub fn ablation_algorithms(exponents: &[u32]) -> Vec<(u32, [f64; 4])> {
    let sim = Simulator::new(MachineSpec::paper_testbed(), DP_RANKS, 1);
    let geom = sim.group_geom();
    let cost = sim.cost_model();
    exponents
        .iter()
        .map(|&e| {
            let times = CollAlgo::ALL.map(|algo| {
                best_config_for_algo(algo, |c| {
                    cost.collective_time(CollKind::AllReduce, 1 << e, DType::F16, geom, c)
                })
                .1
            });
            (e, times)
        })
        .collect()
}

/// Ablation: AllReduce time per collective algorithm as the *worker
/// count* grows, one rank per node (the SwitchML geometry), 2^18 F32
/// elements, each algorithm at its own best `protocol × channels`.
/// Returns `(workers, [ring, tree, hierarchical, switch])`.
///
/// This is the axis the in-network switch wins: every host-side
/// algorithm's time grows with `k` through `(k−1)/k` volume factors
/// and `log k`/`k−1` latency chains, while the switch moves `2·n`
/// words per worker at two fabric hops regardless of `k` — the
/// crossover the gated `ablation_switch_workers` trajectory row pins.
pub fn ablation_switch_workers(workers: &[usize]) -> Vec<(usize, [f64; 4])> {
    let sim = Simulator::new(MachineSpec::paper_testbed(), DP_RANKS, 1);
    let cost = sim.cost_model();
    let elems = 1u64 << 18;
    workers
        .iter()
        .map(|&w| {
            let geom = GroupGeom {
                size: w,
                nodes_spanned: w,
                ranks_per_node: 1,
            };
            let times = CollAlgo::ALL.map(|algo| {
                best_config_for_algo(algo, |c| {
                    cost.collective_time(CollKind::AllReduce, elems, DType::F32, geom, c)
                })
                .1
            });
            (w, times)
        })
        .collect()
}

/// Ablation: buffer-tile granularity of the Figure 1 overlap (§5.3):
/// one tile cannot overlap at all; too many tiles drown in spin-lock
/// and per-chunk latency. Returns `(tiles, seconds)`.
pub fn ablation_tile_count(batch: u64) -> Vec<(usize, f64)> {
    let sim = Simulator::new(MachineSpec::dgx2_cluster(1), 16, 1);
    let geom = sim.group_geom();
    let cost = sim.cost_model();
    let step = coconet_core::OverlappedStep {
        label: "ol".into(),
        stages: vec![
            coconet_core::OverlapStage::MatMul(coconet_core::MatMulStep {
                label: "mm".into(),
                m: batch * 1024,
                k: 768,
                n: 3072,
                dtype: DType::F16,
            }),
            coconet_core::OverlapStage::FusedCollective(FusedCollectiveStep {
                label: "ar".into(),
                algo: CollAlgo::Ring,
                elems: batch * 1024 * 3072,
                dtype: DType::F16,
                extra_bytes_read: 0,
                extra_bytes_written: 0,
                flops: 0,
                embedded_scalar_allreduces: 0,
                n_fused_ops: 0,
            }),
        ],
    };
    let config = CommConfig {
        algo: CollAlgo::Ring,
        protocol: Protocol::Simple,
        channels: 16,
        format: WireFormat::Dense,
        ..CommConfig::default()
    };
    [1usize, 2, 4, 8, 16, 32, 64, 128, 256]
        .into_iter()
        .map(|tiles| {
            let t = coconet_sim::simulate_overlap_with_tiles(
                cost,
                &step,
                geom,
                false,
                config,
                Some(tiles),
            )
            .total;
            (tiles, t)
        })
        .collect()
}

// small helpers reused by benches ------------------------------------------

/// The standalone (epilogue-only) model-parallel speedup the paper's
/// §6.2.1 reports — reused by sanity tests.
pub fn standalone_model_parallel_speedup(batch: usize) -> f64 {
    let cfg = ModelConfig::gpt2_8_3b();
    model_parallel_epilogue_time(&cfg, batch, 16, BlockSchedule::Megatron)
        / model_parallel_epilogue_time(&cfg, batch, 16, BlockSchedule::Overlap)
}

/// The standalone pipeline speedup of Figure 12's best schedule.
pub fn standalone_pipeline_speedup(batch: usize) -> f64 {
    let cfg = ModelConfig::gpt3_175b();
    pipeline_epilogue_time(&cfg, batch, 16, 16, PipelineSchedule::Megatron)
        / pipeline_epilogue_time(&cfg, batch, 16, 16, PipelineSchedule::Overlap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_reproduces_band() {
        for row in figure1() {
            let s = row.speedup();
            assert!((1.1..1.9).contains(&s), "B={}: {s}", row.batch);
            assert!(
                row.matmul_hidden > 0.6,
                "B={}: hides {}",
                row.batch,
                row.matmul_hidden
            );
        }
    }

    #[test]
    fn figure10_shape_holds() {
        let rows = figure10(Optimizer::Adam, &[10, 14, 18, 22, 26, 30]);
        // Small sizes: AR-Opt is the best schedule.
        let small = &rows[0];
        assert!(small.ar_opt >= small.fused, "small: {small:?}");
        // Large sizes: fused is best and approaches the upper bound.
        let large = rows.last().unwrap();
        assert!(large.fused > large.ar_opt, "large: {large:?}");
        assert!(large.fused > large.gshard, "large: {large:?}");
        assert!(large.fused > 0.85 * large.upper_bound, "large: {large:?}");
        // Fused reaches a paper-scale speedup at 2^30.
        assert!((1.2..2.2).contains(&large.fused), "large: {large:?}");
    }

    #[test]
    fn figure11_ordering() {
        let rows = figure11();
        // For every (block, batch): megatron <= mm-ar-c <= gshard <= overlap.
        for chunk in rows.chunks(4) {
            assert!(chunk[1].speedup >= 1.0);
            assert!(chunk[2].speedup >= chunk[1].speedup);
            assert!(chunk[3].speedup >= chunk[2].speedup);
        }
    }

    #[test]
    fn figure12_factors() {
        let rows = figure12();
        for chunk in rows.chunks(4) {
            let gshard = chunk[2].speedup;
            let overlap = chunk[3].speedup;
            assert!(chunk[1].speedup > 2.0, "{:?}", chunk[1]);
            assert!(gshard > chunk[1].speedup);
            assert!((7.0..18.0).contains(&overlap), "{overlap}");
        }
    }

    #[test]
    fn table3_fused_generates_most_code() {
        // Per family the most transformed schedule (fused, then
        // overlapped) generates the most code.
        for rows in [
            table3a(Optimizer::Adam),
            table3a(Optimizer::Lamb),
            table3b(),
            table3c(),
        ] {
            let last = &rows[2];
            for r in &rows[..2] {
                assert!(
                    last.generated_cuda > r.generated_cuda,
                    "{} ({}) !> {} ({})",
                    last.schedule,
                    last.generated_cuda,
                    r.schedule,
                    r.generated_cuda
                );
            }
        }
        for r in table3c() {
            assert!(r.program_loc < 60, "{}: {}", r.schedule, r.program_loc);
        }
    }

    #[test]
    fn ablations_behave() {
        // LL wins small, Simple wins large.
        let protos = ablation_protocols(&[10, 30]);
        let small = protos[0].1;
        assert!(small[0] < small[2], "LL beats Simple at 2^10");
        let large = protos[1].1;
        assert!(large[2] < large[0], "Simple beats LL at 2^30");
        // More channels help up to NIC count.
        let ch = ablation_channels(1 << 30);
        assert!(ch.last().unwrap().1 <= ch[0].1);
        // Tile granularity: some overlap beats none; extreme tiling
        // loses to spin-lock overhead.
        let tiles = ablation_tile_count(64);
        let one = tiles[0].1;
        let best = tiles.iter().map(|&(_, t)| t).fold(f64::INFINITY, f64::min);
        let most = tiles.last().unwrap().1;
        assert!(best < one, "tiling must beat no-overlap");
        assert!(most > best, "over-tiling costs spin-locks");
        // The ring/tree/hierarchical size crossover has its own test
        // (algorithm_ablation_exhibits_size_crossover).
    }

    #[test]
    fn algorithm_ablation_exhibits_size_crossover() {
        let rows = ablation_algorithms(&[10, 30]);
        let (_, [ring_s, tree_s, hier_s, _switch_s]) = rows[0];
        let (_, [ring_l, tree_l, hier_l, _switch_l]) = rows[1];
        // Small messages: the tree's log-depth latency wins.
        assert!(tree_s < ring_s, "small: tree {tree_s} !< ring {ring_s}");
        assert!(tree_s < hier_s, "small: tree {tree_s} !< hier {hier_s}");
        // Large messages: the ring's bandwidth optimality wins, with
        // hierarchical between the two.
        assert!(ring_l < hier_l, "large: ring {ring_l} !< hier {hier_l}");
        assert!(hier_l < tree_l, "large: hier {hier_l} !< tree {tree_l}");
        // Hierarchical beats the flat ring's latency at small sizes
        // (fewer hops than 2(k-1) once the group spans 16 nodes).
        assert!(hier_s < ring_s, "small: hier {hier_s} !< ring {ring_s}");
    }

    #[test]
    fn switch_worker_sweep_exhibits_crossover() {
        let rows = ablation_switch_workers(&[2, 4, 8, 16, 32]);
        let (_, [ring_2, _, _, switch_2]) = rows[0];
        let (w_last, [ring_32, tree_32, hier_32, switch_32]) = rows[rows.len() - 1];
        assert_eq!(w_last, 32);
        // Two workers: quantization codec overhead outweighs the tiny
        // volume edge — the ring wins.
        assert!(ring_2 < switch_2, "w=2: ring {ring_2} !< switch {switch_2}");
        // 32 workers: the switch's constant volume beats every
        // host-side algorithm.
        assert!(switch_32 < ring_32, "w=32: switch !< ring");
        assert!(switch_32 < tree_32, "w=32: switch !< tree");
        assert!(switch_32 < hier_32, "w=32: switch !< hier");
        // And the switch's own time is flat-ish in k: growing the
        // group 16× costs it less than 2× (only the per-hop latency
        // terms move).
        assert!(
            switch_32 < 2.0 * switch_2,
            "switch time must be near-constant in worker count"
        );
    }
}
