//! Cross-crate integration: every transformation and every workload
//! schedule is semantics preserving (§3) — transformed programs run on
//! the functional runtime and must reproduce the untransformed
//! program's outputs.

use coconet::compress::WireFormat;
use coconet::core::xform::{fuse_all_reduce, overlap, reorder_all_gather, split_all_reduce};
use coconet::core::{Autotuner, Binding, CollAlgo, DType, Layout, Program, ReduceOp};
use coconet::models::model_parallel::{apply_block_schedule, Block, BlockSchedule};
use coconet::models::optimizers::{apply_optimizer_schedule, optimizer_program, reference_step};
use coconet::models::pipeline::{apply_pipeline_schedule, PipelineSchedule};
use coconet::models::{Hyper, Optimizer, OptimizerSchedule};
use coconet::runtime::{
    hierarchical_all_gather, hierarchical_reduce_scatter, ring_all_reduce, run_program, run_ranks,
    Group, Inputs, RunOptions,
};
use coconet::sim::Simulator;
use coconet::tensor::{CounterRng, Tensor};
use coconet::topology::{Cluster, GpuSpec, InterconnectSpec, MachineSpec};
use proptest::prelude::*;

mod common;
use common::assert_matches_oracle;

/// The paper's running example at several group sizes: the fully
/// scheduled program must match the baseline on every geometry.
#[test]
fn running_example_all_group_sizes() {
    for k in [2usize, 4, 8] {
        let build = || -> (Program, Vec<coconet::core::VarId>) {
            let mut p = Program::new("self_attention");
            let w = p.input("w", DType::F16, ["H", "H2"], Layout::sliced(0));
            let b = p.input("b", DType::F16, ["H2"], Layout::Replicated);
            let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
            let r = p.input("r", DType::F16, ["B", "S", "H2"], Layout::Replicated);
            let layer = p.matmul(input, w).unwrap();
            let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
            let biased = p.add(sum, b).unwrap();
            let d = p.dropout(biased, 0.3).unwrap();
            let out = p.add(d, r).unwrap();
            p.set_name(out, "out").unwrap();
            p.set_io(&[w, input, b, r], &[out]).unwrap();
            (p, vec![layer, sum, biased, d, out])
        };
        // H must divide k; use H = 8k, H2 = 16.
        let h = (8 * k) as u64;
        let binding = Binding::new(k)
            .bind("B", 2)
            .bind("S", 4)
            .bind("H", h)
            .bind("H2", 16);
        let rng = CounterRng::new(1234 + k as u64);
        let inputs = Inputs::new()
            .global("w", Tensor::randn([h as usize, 16], DType::F16, rng, 0))
            .global("b", Tensor::randn([16], DType::F16, rng, 40_000))
            .global(
                "in",
                Tensor::randn([2, 4, h as usize], DType::F16, rng, 50_000),
            )
            .global("r", Tensor::randn([2, 4, 16], DType::F16, rng, 60_000));
        let opts = RunOptions::default().with_seed(777);

        let (base, _) = build();
        let reference = run_program(&base, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();

        let (mut p, vars) = build();
        let (rs, ag) = split_all_reduce(&mut p, vars[1]).unwrap();
        let result = reorder_all_gather(&mut p, ag, &[vars[2], vars[3], vars[4]]).unwrap();
        let gathered = result.gathers[0].1;
        p.set_name(gathered, "final").unwrap();
        fuse_all_reduce(&mut p, rs, &result.sliced, &[gathered]).unwrap();
        overlap(&mut p, &[vars[0], rs]).unwrap();
        let got = run_program(&p, &binding, &inputs, opts)
            .unwrap()
            .global("final")
            .unwrap();
        let diff = got.max_abs_diff(&reference);
        assert!(diff < 3e-2, "k={k}: diff {diff}");
    }
}

/// Optimizer end-to-end: several consecutive steps of the *scheduled*
/// Adam must track the CPU reference (state carried across steps).
#[test]
fn adam_multi_step_training_matches_reference() {
    let hyper = Hyper::default();
    let n = 32usize;
    let k = 4usize;
    let binding = Binding::new(k).bind("N", n as u64);
    let (program, _) =
        apply_optimizer_schedule(Optimizer::Adam, hyper, OptimizerSchedule::FusedRsOptAg).unwrap();
    let rng = CounterRng::new(2024);

    let mut p_state = Tensor::randn([n], DType::F32, rng, 0);
    let mut m_state = Tensor::zeros([n], DType::F32);
    let mut v_state = Tensor::full([n], DType::F32, 1e-3);
    let mut p_ref = p_state.clone();
    let mut m_ref = m_state.clone();
    let mut v_ref = v_state.clone();

    for step in 1..=3u64 {
        let grads: Vec<Tensor> = (0..k)
            .map(|r| Tensor::randn([n], DType::F16, rng, 1000 * step + (r * n) as u64))
            .collect();
        let inputs = Inputs::new()
            .per_rank("g", grads.clone())
            .global("p", p_state.clone())
            .global("m", m_state.clone())
            .global("v", v_state.clone())
            .global("lr", Tensor::scalar(DType::F32, 0.05))
            .global("t", Tensor::scalar(DType::F32, step as f32));
        let result = run_program(&program, &binding, &inputs, RunOptions::default()).unwrap();
        // Carry the updated state forward (m_/v_ live sliced; read the
        // updated values back from the update nodes via outputs).
        let updated_p = result
            .global("p_")
            .or_else(|_| result.global("agp_"))
            .unwrap();
        // Reference.
        let mut grad_sum = Tensor::zeros([n], DType::F32);
        for g in &grads {
            grad_sum = grad_sum.add(&g.cast(DType::F32)).unwrap();
        }
        reference_step(
            Optimizer::Adam,
            hyper,
            &mut p_ref,
            &mut m_ref,
            &mut v_ref,
            &grad_sum,
            0.05,
            step as f32,
        );
        let diff = updated_p.max_abs_diff(&p_ref);
        assert!(diff < 1e-2, "step {step}: diff {diff}");
        // Feed the reference state back so later steps stay comparable
        // (the runtime result is validated against it each step).
        p_state = p_ref.clone();
        m_state = m_ref.clone();
        v_state = v_ref.clone();
    }
}

/// Every optimizer schedule × both optimizers at an uneven-ish size.
#[test]
fn optimizer_schedules_cross_product() {
    let hyper = Hyper::default();
    for opt in [Optimizer::Adam, Optimizer::Lamb] {
        let n = 96usize;
        let k = 8usize;
        let binding = Binding::new(k).bind("N", n as u64);
        let rng = CounterRng::new(7 + n as u64);
        let grads: Vec<Tensor> = (0..k)
            .map(|r| Tensor::randn([n], DType::F16, rng, (r * n) as u64))
            .collect();
        let p0 = Tensor::randn([n], DType::F32, rng, 90_000);
        let inputs = Inputs::new()
            .per_rank("g", grads.clone())
            .global("p", p0.clone())
            .global("m", Tensor::zeros([n], DType::F32))
            .global("v", Tensor::full([n], DType::F32, 0.02))
            .global("lr", Tensor::scalar(DType::F32, 0.02))
            .global("t", Tensor::scalar(DType::F32, 2.0));

        let (base, _) = optimizer_program(opt, hyper).unwrap();
        let reference = run_program(&base, &binding, &inputs, RunOptions::default())
            .unwrap()
            .global("p_")
            .unwrap();

        for schedule in [
            OptimizerSchedule::ArOpt,
            OptimizerSchedule::RsOptAg,
            OptimizerSchedule::FusedRsOptAg,
        ] {
            let (p, _) = apply_optimizer_schedule(opt, hyper, schedule).unwrap();
            let result = run_program(&p, &binding, &inputs, RunOptions::default()).unwrap();
            let got = result
                .global("p_")
                .or_else(|_| result.global("agp_"))
                .unwrap();
            let diff = got.max_abs_diff(&reference);
            assert!(
                diff < 1e-2,
                "{} {}: diff {diff}",
                opt.name(),
                schedule.label(opt)
            );
        }
    }
}

/// Both model-parallel blocks, all schedules, two group sizes.
#[test]
fn model_parallel_blocks_all_schedules() {
    for k in [2usize, 4] {
        for block in [Block::SelfAttention, Block::Mlp] {
            let h = (8 * k) as u64;
            let binding = Binding::new(k)
                .bind("B", 2)
                .bind("S", 2)
                .bind("H", h)
                .bind("H4", 4 * h);
            let rng = CounterRng::new(99);
            let contract = match block {
                Block::SelfAttention => h,
                Block::Mlp => 4 * h,
            } as usize;
            let inputs = Inputs::new()
                .global(
                    "w",
                    Tensor::randn([contract, h as usize], DType::F16, rng, 0),
                )
                .global("b", Tensor::randn([h as usize], DType::F16, rng, 10_000))
                .global(
                    "in",
                    Tensor::randn([2, 2, contract], DType::F16, rng, 20_000),
                )
                .global(
                    "r",
                    Tensor::randn([2, 2, h as usize], DType::F16, rng, 30_000),
                );
            let opts = RunOptions::default().with_seed(11);
            let (base, _, base_out) = apply_block_schedule(block, BlockSchedule::Megatron).unwrap();
            let reference = run_program(&base, &binding, &inputs, opts)
                .unwrap()
                .global(&base_out)
                .unwrap();
            for schedule in BlockSchedule::ALL {
                let (p, _, out) = apply_block_schedule(block, schedule).unwrap();
                let got = run_program(&p, &binding, &inputs, opts)
                    .unwrap()
                    .global(&out)
                    .unwrap();
                let diff = got.max_abs_diff(&reference);
                assert!(
                    diff < 3e-2,
                    "k={k} {:?} {}: {diff}",
                    block,
                    schedule.label()
                );
            }
        }
    }
}

/// Pipeline schedules with three groups: data flows group 0 -> 1 -> 2
/// consistently under every schedule.
#[test]
fn pipeline_three_groups_all_schedules() {
    let k = 2usize;
    let groups = 3usize;
    let binding = Binding::new(k)
        .with_groups(groups)
        .bind("B", 2)
        .bind("S", 2)
        .bind("H", 8);
    let world = k * groups;
    let rng = CounterRng::new(55);
    let inputs = Inputs::new()
        .per_rank(
            "in",
            (0..world)
                .map(|r| Tensor::randn([2, 2, 8], DType::F16, rng, (r * 64) as u64))
                .collect(),
        )
        .global("b", Tensor::randn([8], DType::F16, rng, 1_000))
        .global("r", Tensor::randn([2, 2, 8], DType::F16, rng, 2_000));
    let opts = RunOptions::default().with_seed(31);
    let (base, _, base_out) = apply_pipeline_schedule(PipelineSchedule::Megatron).unwrap();
    let base_run = run_program(&base, &binding, &inputs, opts).unwrap();
    let reference = base_run.global(&base_out).unwrap();
    // Group 1 and group 2 both received something; group 0 did not.
    assert!(base_run.local(0, &base_out).is_none());
    assert!(base_run.local(k, &base_out).is_some());
    assert!(base_run.local(2 * k, &base_out).is_some());

    for schedule in PipelineSchedule::ALL {
        let (p, _, out) = apply_pipeline_schedule(schedule).unwrap();
        let got = run_program(&p, &binding, &inputs, opts)
            .unwrap()
            .global(&out)
            .unwrap();
        let diff = got.max_abs_diff(&reference);
        assert!(diff < 3e-2, "{}: {diff}", schedule.label());
    }
}

/// The schedule executor against the per-element oracle, bit for bit:
/// both optimizers, unscheduled and under every schedule, at group
/// sizes 1, 2 and 4, with FP16 gradients. `N` is not a multiple of the
/// evaluator's block (nor is any rank's share of it), so every kernel
/// ends on a short block.
#[test]
fn optimizer_kernels_match_the_per_element_oracle_bit_for_bit() {
    let hyper = Hyper::default();
    let n = 4 * (256 + 13);
    for opt in [Optimizer::Adam, Optimizer::Lamb] {
        for k in [1usize, 2, 4] {
            let binding = Binding::new(k).bind("N", n as u64);
            let rng = CounterRng::new(17 + k as u64);
            let inputs = Inputs::new()
                .per_rank(
                    "g",
                    (0..k)
                        .map(|r| Tensor::randn([n], DType::F16, rng, (r * n) as u64))
                        .collect(),
                )
                .global("p", Tensor::randn([n], DType::F32, rng, 90_000))
                .global("m", Tensor::randn([n], DType::F32, rng, 190_000))
                .global("v", Tensor::full([n], DType::F32, 0.02))
                .global("lr", Tensor::scalar(DType::F32, 0.02))
                .global("t", Tensor::scalar(DType::F32, 2.0));
            let (base, _) = optimizer_program(opt, hyper).unwrap();
            let what = format!("{} unscheduled k={k}", opt.name());
            assert_matches_oracle(&what, &base, &binding, &inputs, RunOptions::default());
            for schedule in [
                OptimizerSchedule::ArOpt,
                OptimizerSchedule::RsOptAg,
                OptimizerSchedule::FusedRsOptAg,
            ] {
                let (p, _) = apply_optimizer_schedule(opt, hyper, schedule).unwrap();
                let what = format!("{} k={k}", schedule.label(opt));
                assert_matches_oracle(&what, &p, &binding, &inputs, RunOptions::default());
            }
        }
    }
}

/// The model-parallel blocks under every schedule: `in` and `w` are
/// `Sliced(Dim)` inputs, the dropout draws by global index, and the
/// `[H]` bias broadcasts into a flat-sliced `[B, S, H]` — no contiguous
/// window exists for it, so its load takes the indexed fallback.
#[test]
fn model_parallel_kernels_match_the_per_element_oracle_bit_for_bit() {
    for k in [2usize, 4] {
        for block in [Block::SelfAttention, Block::Mlp] {
            let h = (8 * k) as u64;
            let binding = Binding::new(k)
                .bind("B", 2)
                .bind("S", 3)
                .bind("H", h)
                .bind("H4", 4 * h);
            let rng = CounterRng::new(41);
            let contract = match block {
                Block::SelfAttention => h,
                Block::Mlp => 4 * h,
            } as usize;
            let inputs = Inputs::new()
                .global(
                    "w",
                    Tensor::randn([contract, h as usize], DType::F16, rng, 0),
                )
                .global("b", Tensor::randn([h as usize], DType::F16, rng, 10_000))
                .global(
                    "in",
                    Tensor::randn([2, 3, contract], DType::F16, rng, 20_000),
                )
                .global(
                    "r",
                    Tensor::randn([2, 3, h as usize], DType::F16, rng, 30_000),
                );
            let opts = RunOptions::default().with_seed(11);
            for schedule in BlockSchedule::ALL {
                let (p, _, _) = apply_block_schedule(block, schedule).unwrap();
                let what = format!("k={k} {block:?} {}", schedule.label());
                assert_matches_oracle(&what, &p, &binding, &inputs, opts);
            }
        }
    }
}

/// The three-group pipeline under every schedule (a fused send is one
/// kernel and then its Send, overlap groups run their stages in order;
/// groups that received nothing hold nothing, in both executors).
#[test]
fn pipeline_kernels_match_the_per_element_oracle_bit_for_bit() {
    let k = 2usize;
    let groups = 3usize;
    let binding = Binding::new(k)
        .with_groups(groups)
        .bind("B", 2)
        .bind("S", 2)
        .bind("H", 8);
    let rng = CounterRng::new(55);
    let inputs = Inputs::new()
        .per_rank(
            "in",
            (0..k * groups)
                .map(|r| Tensor::randn([2, 2, 8], DType::F16, rng, (r * 64) as u64))
                .collect(),
        )
        .global("b", Tensor::randn([8], DType::F16, rng, 1_000))
        .global("r", Tensor::randn([2, 2, 8], DType::F16, rng, 2_000));
    let opts = RunOptions::default().with_seed(31);
    for schedule in PipelineSchedule::ALL {
        let (p, _, _) = apply_pipeline_schedule(schedule).unwrap();
        assert_matches_oracle(schedule.label(), &p, &binding, &inputs, opts);
    }
}

/// The plan against the run (ROADMAP 8(g)): the bytes the evaluator
/// counts while each kernel runs are the bytes `lower` prices for it,
/// both read off the same `KernelIr` — one equality per kernel, on every
/// schedule of both optimizers, both model-parallel blocks (whose `[H]`
/// bias is a broadcast load) and the three-group pipeline (whose fused
/// sends are kernels). What a step's price leaves to the transfer is
/// stated once: a fused collective's ReduceScatter chunk arrives in the
/// pack, and a fused send's store is its payload.
#[test]
fn counted_kernel_bytes_match_the_lowered_plan() {
    use coconet::core::{lower, CommConfig, FusedCollectiveStep, OverlapStage, SendRecvStep, Step};
    let k = 4usize;
    let mut cases: Vec<(String, Program, Binding, Inputs, RunOptions)> = Vec::new();

    let n = 4 * (256 + 13) as u64;
    let rng = CounterRng::new(3);
    let inputs = Inputs::new()
        .per_rank(
            "g",
            (0..k)
                .map(|r| Tensor::randn([n as usize], DType::F16, rng, r as u64 * n))
                .collect(),
        )
        .global("p", Tensor::randn([n as usize], DType::F32, rng, 90_000))
        .global("m", Tensor::zeros([n as usize], DType::F32))
        .global("v", Tensor::full([n as usize], DType::F32, 0.02))
        .global("lr", Tensor::scalar(DType::F32, 0.02))
        .global("t", Tensor::scalar(DType::F32, 2.0));
    for opt in [Optimizer::Adam, Optimizer::Lamb] {
        let (base, _) = optimizer_program(opt, Hyper::default()).unwrap();
        let mut programs = vec![(format!("{} unscheduled", opt.name()), base)];
        for schedule in [
            OptimizerSchedule::ArOpt,
            OptimizerSchedule::RsOptAg,
            OptimizerSchedule::FusedRsOptAg,
        ] {
            let (p, _) = apply_optimizer_schedule(opt, Hyper::default(), schedule).unwrap();
            programs.push((schedule.label(opt), p));
        }
        for (what, p) in programs {
            let binding = Binding::new(k).bind("N", n);
            cases.push((what, p, binding, inputs.clone(), RunOptions::default()));
        }
    }

    let h = 8 * k;
    for block in [Block::SelfAttention, Block::Mlp] {
        let contract = match block {
            Block::SelfAttention => h,
            Block::Mlp => 4 * h,
        };
        let rng = CounterRng::new(41);
        let inputs = Inputs::new()
            .global("w", Tensor::randn([contract, h], DType::F16, rng, 0))
            .global("b", Tensor::randn([h], DType::F16, rng, 10_000))
            .global(
                "in",
                Tensor::randn([2, 3, contract], DType::F16, rng, 20_000),
            )
            .global("r", Tensor::randn([2, 3, h], DType::F16, rng, 30_000));
        for schedule in BlockSchedule::ALL {
            let (p, _, _) = apply_block_schedule(block, schedule).unwrap();
            let binding = Binding::new(k)
                .bind("B", 2)
                .bind("S", 3)
                .bind("H", h as u64)
                .bind("H4", 4 * h as u64);
            let what = format!("{block:?} {}", schedule.label());
            let opts = RunOptions::default().with_seed(11);
            cases.push((what, p, binding, inputs.clone(), opts));
        }
    }

    let groups = 3usize;
    let rng = CounterRng::new(55);
    let inputs = Inputs::new()
        .per_rank(
            "in",
            (0..2 * groups)
                .map(|r| Tensor::randn([2, 2, 8], DType::F16, rng, (r * 64) as u64))
                .collect(),
        )
        .global("b", Tensor::randn([8], DType::F16, rng, 1_000))
        .global("r", Tensor::randn([2, 2, 8], DType::F16, rng, 2_000));
    for schedule in PipelineSchedule::ALL {
        let (p, _, _) = apply_pipeline_schedule(schedule).unwrap();
        let binding = Binding::new(2)
            .with_groups(groups)
            .bind("B", 2)
            .bind("S", 2)
            .bind("H", 8);
        let what = format!("pipeline {}", schedule.label());
        let opts = RunOptions::default().with_seed(31);
        cases.push((what, p, binding, inputs.clone(), opts));
    }

    for (what, p, binding, inputs, opts) in cases {
        let k = binding.group_size as u64;
        let fused = |s: &FusedCollectiveStep| {
            let chunk = s.elems * s.dtype.size_bytes() as u64 / k;
            (s.extra_bytes_read + chunk, s.extra_bytes_written)
        };
        let sent = |s: &SendRecvStep| {
            let payload = s.elems_per_rank * s.dtype.size_bytes() as u64;
            (s.extra_bytes_read, payload)
        };
        let mut priced: Vec<(u64, u64)> = Vec::new();
        for step in lower(&p, &binding, CommConfig::default()).unwrap().steps {
            match step {
                Step::Kernel(s) => priced.push((s.bytes_read, s.bytes_written)),
                Step::FusedCollective(s) => priced.push(fused(&s)),
                Step::SendRecv(s) if s.n_fused_ops > 0 => priced.push(sent(&s)),
                Step::Overlapped(ol) => {
                    for stage in ol.stages {
                        match stage {
                            OverlapStage::FusedCollective(s) => priced.push(fused(&s)),
                            OverlapStage::SendRecv(s) if s.n_fused_ops > 0 => priced.push(sent(&s)),
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        assert!(!priced.is_empty(), "{what}: no kernel");
        let result = run_program(&p, &binding, &inputs, opts).unwrap();
        for rank in 0..binding.world_size() {
            let counted: Vec<(u64, u64)> = result
                .kernels(rank)
                .iter()
                .map(|k| (k.bytes_loaded, k.bytes_stored))
                .collect();
            assert_eq!(counted, priced, "{what} rank {rank}: (loaded, stored)");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property: the hierarchical two-level ReduceScatter composed with
    /// the hierarchical AllGather equals the flat ring AllReduce — for
    /// every `ReduceOp`, uneven tensor sizes (including fewer elements
    /// than ranks), and multi-node group splits (including a short
    /// last node).
    #[test]
    fn hierarchical_rs_ag_equals_flat_ring_allreduce(
        k in 2usize..9,
        node_size in 1usize..5,
        numel in 0usize..40,
        op_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let op = [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][op_idx];
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            // Small integer values: every partial reduction is exactly
            // representable in f32, so the two algorithms' different
            // reduction orders must agree bit for bit.
            let input = Tensor::from_fn([numel], DType::F32, |i| {
                ((seed as usize + comm.rank() * 31 + i * 7) % 17) as f32 - 8.0
            });
            let wire = WireFormat::Dense;
            let reference = ring_all_reduce(&comm, group, &input, op, wire, 1);
            let chunk =
                hierarchical_reduce_scatter(&comm, group, &input, op, node_size, wire, 1);
            let gathered = hierarchical_all_gather(&comm, group, &chunk, node_size, wire, 1);
            let mut composed = Tensor::zeros([numel], DType::F32);
            let mut off = 0;
            for c in gathered {
                composed.write_flat(off, &c).unwrap();
                off += c.numel();
            }
            (reference, composed)
        });
        for (r, (reference, composed)) in results.iter().enumerate() {
            prop_assert_eq!(
                reference.to_f32_vec(),
                composed.to_f32_vec(),
                "k={} node_size={} numel={} op={:?} rank={}",
                k, node_size, numel, op, r
            );
        }
    }
}

/// A 2-node, 2-GPUs-per-node machine, so that a 4-rank group genuinely
/// spans nodes and the hierarchical algorithm is non-degenerate in both
/// the cost model and the runtime.
fn two_by_two_machine() -> MachineSpec {
    MachineSpec {
        gpu: GpuSpec::v100(),
        interconnect: InterconnectSpec::dgx2(),
        gpus_per_node: 2,
        nodes: 2,
    }
}

/// The executor runs the collective algorithm a *tuned plan* selected —
/// not just the ring. For each algorithm, the autotuner (restricted to
/// that algorithm's slice of the grid) picks a winning configuration;
/// the functional runtime then executes the winning schedule under that
/// configuration and must reproduce the baseline ring output — exactly
/// for the lossless wires, within the one-shot top-k bound (a dropped
/// element is off by at most its own magnitude) when the winner rides
/// the sparse wire, as the switch's does at this tiny tensor: its two
/// fixed dataplane hops dwarf 96 elements of payload, so top-k wins
/// its grid slice on cost, and the runtime faithfully runs what the
/// tuner priced.
#[test]
fn executor_runs_tuned_tree_and_hierarchical_plans() {
    let build = || -> Program {
        let mut p = Program::new("self_attention");
        let w = p.input("w", DType::F16, ["H", "H2"], Layout::sliced(0));
        let b = p.input("b", DType::F16, ["H2"], Layout::Replicated);
        let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
        let layer = p.matmul(input, w).unwrap();
        let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
        let out = p.add(sum, b).unwrap();
        p.set_name(out, "out").unwrap();
        p.set_io(&[w, input, b], &[out]).unwrap();
        p
    };
    let k = 4usize;
    let binding = Binding::new(k)
        .bind("B", 2)
        .bind("S", 4)
        .bind("H", 8)
        .bind("H2", 12);
    let rng = CounterRng::new(2026);
    let inputs = Inputs::new()
        .global("w", Tensor::randn([8, 12], DType::F16, rng, 0))
        .global("b", Tensor::randn([12], DType::F16, rng, 9_000))
        .global("in", Tensor::randn([2, 4, 8], DType::F16, rng, 11_000));
    let sim = Simulator::new(two_by_two_machine(), k, 1);
    let cluster = Cluster::new(two_by_two_machine());
    // The hierarchical algorithm's participants, straight from the
    // cluster: two nodes of two ranks, led by ranks 0 and 2.
    assert_eq!(cluster.node_leaders(), vec![0, 2]);
    assert!(cluster.is_node_leader(2) && !cluster.is_node_leader(3));

    let reference = run_program(&build(), &binding, &inputs, RunOptions::default())
        .unwrap()
        .global("out")
        .unwrap();

    let mut winner_times = Vec::new();
    for algo in CollAlgo::ALL {
        let tuner = Autotuner {
            algos: vec![algo],
            ..Autotuner::default()
        };
        let report = tuner.tune(&build(), &binding, &sim).expect("tunes");
        let best = report.best().expect("winner");
        assert_eq!(best.config.algo, algo, "the tuned plan carries {algo}");
        winner_times.push(best.time);

        // Execute the winning schedule under the tuned configuration:
        // the interpreter dispatches onto the plan's algorithm, with
        // the node geometry taken from the cluster.
        let opts = RunOptions::default().for_cluster(best.config, &cluster);
        let result = run_program(&best.program, &binding, &inputs, opts).unwrap();
        let out_name = {
            let out = best.program.outputs()[0];
            best.program.node(out).unwrap().name().to_string()
        };
        let got = result.global(&out_name).unwrap();
        let diff = got.max_abs_diff(&reference);
        let tol = match best.config.format {
            // One-shot top-k (no error-feedback loop here): the error
            // is bounded by the largest reference magnitude, the same
            // bound the executor's wire-format sweep uses.
            coconet::compress::WireFormat::TopK { .. } => {
                1.5 * reference
                    .to_f32_vec()
                    .iter()
                    .fold(0.0f32, |a, &b| a.max(b.abs()))
            }
            _ => 2e-2,
        };
        assert!(diff <= tol, "{algo}: diff {diff} > tol {tol}");
    }

    // The full-grid tuner picks the best of the per-algorithm winners,
    // and its plan also executes correctly.
    let report = Autotuner::default()
        .tune(&build(), &binding, &sim)
        .expect("tunes");
    let best = report.best().expect("winner");
    let min_single = winner_times.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        best.time <= min_single + 1e-15,
        "full grid {} !<= best single-algorithm {min_single}",
        best.time
    );
    let opts = RunOptions::default().for_cluster(best.config, &cluster);
    let result = run_program(&best.program, &binding, &inputs, opts).unwrap();
    let out_name = {
        let out = best.program.outputs()[0];
        best.program.node(out).unwrap().name().to_string()
    };
    let diff = result.global(&out_name).unwrap().max_abs_diff(&reference);
    let tol = match best.config.format {
        coconet::compress::WireFormat::TopK { .. } => {
            1.5 * reference
                .to_f32_vec()
                .iter()
                .fold(0.0f32, |a, &b| a.max(b.abs()))
        }
        _ => 2e-2,
    };
    assert!(
        diff <= tol,
        "full-grid winner ({}): diff {diff} > tol {tol}",
        best.config
    );
}
