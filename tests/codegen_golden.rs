//! What the CUDA emitter (`core::codegen`) prints, over every fixed
//! schedule the models crate ships.
//!
//! Three content checks say what the text must be: every pointwise
//! operation of the scheduled program is assigned in exactly one
//! generated file, the host file launches kernels and library calls in
//! the order of the plan `lower` builds, and no file re-defines a
//! primitive it `#include`s. The golden table then pins that the text
//! does not drift: file names, per-file line counts and a content hash
//! for the four self-attention schedules plus the two that reach the
//! emitter's other paths — the pipeline overlap (gated ReduceScatter /
//! fused send / AllGather stages) and `fuse(RS-Adam-AG)` (a fused
//! collective with in-place updates). An intended change to the
//! generated code updates the table (run `cargo run --example
//! codegen_inspect -- --dump` to read the new output; the failure
//! message prints the new rows).

use std::collections::BTreeMap;

use coconet::core::{generate_cuda, lower, Binding, CollKind, CommConfig, OpKind, Program, Step};
use coconet::models::model_parallel::{apply_block_schedule, Block, BlockSchedule};
use coconet::models::optimizers::{apply_optimizer_schedule, OptimizerSchedule};
use coconet::models::pipeline::{apply_pipeline_schedule, PipelineSchedule};
use coconet::models::{Hyper, Optimizer};

/// Every fixed schedule: `(family: label, scheduled program, binding)`.
fn schedule_table() -> Vec<(String, Program, Binding)> {
    let mut table = Vec::new();
    for opt in [Optimizer::Adam, Optimizer::Lamb] {
        for schedule in [
            OptimizerSchedule::ArOpt,
            OptimizerSchedule::RsOptAg,
            OptimizerSchedule::FusedRsOptAg,
        ] {
            let (program, _) = apply_optimizer_schedule(opt, Hyper::default(), schedule)
                .expect("schedule applies");
            let binding = Binding::new(16).bind("N", 1 << 20);
            table.push((
                format!("optimizer: {}", schedule.label(opt)),
                program,
                binding,
            ));
        }
    }
    for schedule in BlockSchedule::ALL {
        let (program, _, _) =
            apply_block_schedule(Block::SelfAttention, schedule).expect("schedule applies");
        let binding = Binding::new(16)
            .bind("B", 8)
            .bind("S", 1024)
            .bind("H", 3072);
        table.push((
            format!("self-attention: {}", schedule.label()),
            program,
            binding,
        ));
    }
    for schedule in PipelineSchedule::ALL {
        let (program, _, _) = apply_pipeline_schedule(schedule).expect("schedule applies");
        let binding = Binding::new(16)
            .with_groups(16)
            .bind("B", 2)
            .bind("S", 2048)
            .bind("H", 12288);
        table.push((format!("pipeline: {}", schedule.label()), program, binding));
    }
    table
}

/// The nodes whose value a kernel computes: pointwise operations,
/// `Update`, `Norm` and `ReduceTensor` — not constants (immediates) or
/// slices (an addressing mode of the load).
fn computed_nodes(program: &Program) -> BTreeMap<String, bool> {
    program
        .topo_order()
        .into_iter()
        .map(|v| {
            let node = program.node(v).expect("live node");
            let computed = node.op().is_pointwise()
                && !matches!(node.op(), OpKind::ConstScalar(_) | OpKind::Slice(_));
            (node.name().to_string(), computed)
        })
        .collect()
}

/// Whether `src` computes `x_{name}`: a `float x_{name} = …`
/// statement that is not the `(float)tensor[…]` load of a value some
/// other kernel computed.
fn assigns(src: &str, name: &str) -> bool {
    let assignment = format!("float x_{name} = ");
    src.lines()
        .filter_map(|l| l.trim_start().strip_prefix(&assignment))
        .any(|value| !value.starts_with("(float)"))
}

#[test]
fn every_pointwise_op_is_emitted_in_exactly_one_file() {
    for (label, program, _) in schedule_table() {
        let code = generate_cuda(&program).expect("codegen succeeds");
        for (name, computed) in computed_nodes(&program) {
            if !computed {
                continue;
            }
            let files: Vec<&str> = code
                .files
                .iter()
                .filter(|(_, src)| assigns(src, &name))
                .map(|(file, _)| file.as_str())
                .collect();
            assert_eq!(
                files.len(),
                1,
                "{label}: `float x_{name} =` is assigned in {files:?}"
            );
        }
    }
}

/// The function a host statement calls: the kernel before `<<<`, or
/// the library call inside its `*CHECK(` macro.
fn callee(statement: &str) -> &str {
    let s = statement.trim_start();
    let s = match s.find("CHECK(") {
        Some(at) if s[..at].chars().all(|c| c.is_ascii_uppercase()) => &s[at + 6..],
        _ => s,
    };
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

#[test]
fn host_launches_follow_the_lowered_plan() {
    for (label, program, binding) in schedule_table() {
        let plan = lower(&program, &binding, CommConfig::default()).expect("lowers");
        let code = generate_cuda(&program).expect("codegen succeeds");
        let (host_name, host) = code.files.last().expect("host file");
        assert!(host_name.ends_with("_host.cu"));
        // One statement per step; `ncclRecv` is the receiving half of
        // the unfused SendRecv step its `ncclSend` opened.
        let statements: Vec<&str> = host
            .lines()
            .skip_while(|l| !l.starts_with("void "))
            .skip(1)
            .take_while(|l| !l.contains("cudaStreamSynchronize"))
            .filter(|l| callee(l) != "ncclRecv")
            .collect();
        assert_eq!(
            statements.len(),
            plan.steps.len(),
            "{label}: host statements vs plan steps\n{host}"
        );
        let computed = computed_nodes(&program);
        for (statement, step) in statements.iter().zip(&plan.steps) {
            let called = callee(statement);
            let (expected, mention) = match step {
                Step::MatMul(s) => ("cublasGemmEx".to_string(), format!("out_{}", s.label)),
                Step::Collective(s) => match s.label.strip_prefix("norm-allreduce[") {
                    Some(norm) => (
                        "ncclAllReduce".to_string(),
                        format!("norm_{}", norm.trim_end_matches(']')),
                    ),
                    None => (format!("nccl{:?}", s.kind), format!("out_{}", s.label)),
                },
                Step::Kernel(_) => ("fused_compute_".to_string(), String::new()),
                Step::FusedCollective(_) => ("fusedAllReduce_".to_string(), String::new()),
                Step::SendRecv(s) if s.n_fused_ops == 0 => {
                    ("ncclSend".to_string(), format!("count_{}", s.label))
                }
                Step::SendRecv(_) => ("fusedSend_".to_string(), String::new()),
                Step::Overlapped(_) => ("launchOverlapped_".to_string(), String::new()),
                Step::Fixed(_) => unreachable!("lower emits no fixed steps"),
            };
            assert!(
                called.starts_with(&expected) && statement.contains(&mention),
                "{label}: step `{}` is launched as `{statement}`",
                step.label()
            );
            // A generated kernel computes the pointwise members its
            // step's label names.
            let file = match called.strip_prefix("launchOverlapped_") {
                Some(og) => format!("overlapped_{og}.cu"),
                None => format!("{called}.cu"),
            };
            if let Some((_, src)) = code.files.iter().find(|(name, _)| *name == file) {
                for name in step
                    .label()
                    .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .filter(|name| computed.get(*name) == Some(&true))
                {
                    assert!(
                        assigns(src, name),
                        "{label}: `{file}` runs step `{}` but never computes `{name}`",
                        step.label()
                    );
                }
            }
        }
    }
}

/// `RS-Opt-AG` (ROADMAP 8(f)): the fused optimizer kernel reads the
/// ReduceScatter's chunk, so the plan and the host file launch the
/// ReduceScatter first — units are ordered by what they read, not by
/// their first member (`v12 = m * c7` precedes `rsavg` in the DFG).
#[test]
fn reduce_scatter_launches_before_the_sliced_optimizer_kernel() {
    for opt in [Optimizer::Adam, Optimizer::Lamb] {
        let label = OptimizerSchedule::RsOptAg.label(opt);
        let (program, _) =
            apply_optimizer_schedule(opt, Hyper::default(), OptimizerSchedule::RsOptAg)
                .expect("schedule applies");
        let binding = Binding::new(16).bind("N", 1 << 20);
        let plan = lower(&program, &binding, CommConfig::default()).expect("lowers");
        let at = |what: &dyn Fn(&Step) -> bool| {
            plan.steps
                .iter()
                .position(what)
                .unwrap_or_else(|| panic!("{label}: step missing from {:?}", plan.steps))
        };
        let rs = at(&|s| matches!(s, Step::Collective(c) if c.kind == CollKind::ReduceScatter));
        let kernel = at(&|s| matches!(s, Step::Kernel(_)));
        let ag = at(&|s| matches!(s, Step::Collective(c) if c.kind == CollKind::AllGather));
        assert!(rs < kernel && kernel < ag, "{label}: {:?}", plan.steps);

        let code = generate_cuda(&program).expect("codegen succeeds");
        let (_, host) = code.files.last().expect("host file");
        let line = |needle: &str| {
            host.lines()
                .position(|l| l.contains(needle))
                .unwrap_or_else(|| panic!("{label}: no `{needle}` in\n{host}"))
        };
        assert!(
            line("ncclReduceScatter") < line("fused_compute_")
                && line("fused_compute_") < line("ncclAllGather"),
            "{label}:\n{host}"
        );
    }
}

#[test]
fn included_primitives_are_not_redefined() {
    for (label, program, _) in schedule_table() {
        let code = generate_cuda(&program).expect("codegen succeeds");
        let again = generate_cuda(&program).expect("codegen succeeds");
        assert_eq!(code.source(), again.source(), "{label}: not deterministic");
        for (file, src) in &code.files {
            assert_eq!(
                src.matches('{').count(),
                src.matches('}').count(),
                "{label}: unbalanced braces in {file}"
            );
            for symbol in [
                "readLL",
                "writeLL",
                "readLL128",
                "ringChunk",
                "ringSteps",
                "warpReduceSum",
            ] {
                let definition = src
                    .lines()
                    .find(|l| l.contains("__device__") && l.contains(&format!(" {symbol}(")));
                assert_eq!(
                    definition, None,
                    "{label}: {file} defines `{symbol}`, which it includes"
                );
            }
        }
    }
}

/// FNV-1a, 64-bit: dependency-free and stable across platforms.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(schedule label, [(file name, lines, fnv1a of the content)])`.
type Golden = (&'static str, &'static [(&'static str, usize, u64)]);

const GOLDEN: [Golden; 6] = [
    (
        "self-attention: Megatron-LM",
        &[
            ("fused_compute_2.cu", 10, 0x48801946f84bed88),
            ("fused_compute_3.cu", 9, 0xb82c921fb83f26ee),
            ("fused_compute_4.cu", 10, 0x7843c5012f1731d0),
            ("self_attention_host.cu", 10, 0xb261eeacf39c819e),
        ],
    ),
    (
        "self-attention: MM-AR-C",
        &[
            ("fused_compute_0.cu", 13, 0x6d76c9d3a0425f9b),
            ("self_attention_host.cu", 8, 0xd3e7b833ee637987),
        ],
    ),
    (
        "self-attention: GShard-Eq (MM-RS-C-AG)",
        &[
            ("fused_compute_0.cu", 13, 0x3443dfae901cbd1b),
            ("self_attention_host.cu", 9, 0x93efde3fd004ccbd),
        ],
    ),
    (
        "self-attention: ol(MM,fuse(RS-C-AG))",
        &[
            ("overlapped_0.cu", 195, 0x7b5ecebe8487e449),
            ("self_attention_host.cu", 6, 0x03b3448c55a0d940),
        ],
    ),
    (
        "pipeline: ol(RS,fuse(C-P2P),AG)",
        &[
            ("overlapped_0.cu", 238, 0x7f62ef7de4f45aad),
            ("transformer_host.cu", 6, 0x02920bba7736bf18),
        ],
    ),
    (
        "optimizer: fuse(RS-Adam-AG)",
        &[
            ("fusedAllReduce_0.cu", 116, 0x1e26a06cc0352b4b),
            ("adam_host.cu", 6, 0xe46fb588dab9937d),
        ],
    ),
];

#[test]
fn generated_cuda_matches_the_golden_table() {
    let table = schedule_table();
    let mut actual = String::new();
    let mut matches = true;
    for (label, golden) in GOLDEN {
        let (_, program, _) = table
            .iter()
            .find(|(l, _, _)| l == label)
            .expect("golden row names a schedule of the table");
        let code = generate_cuda(program).expect("codegen succeeds");
        let files: Vec<(&str, usize, u64)> = code
            .files
            .iter()
            .map(|(name, src)| (name.as_str(), src.lines().count(), fnv1a(src)))
            .collect();
        matches &= files.as_slice() == golden;
        actual += &format!("    (\n        {label:?},\n        &[\n");
        for (name, lines, hash) in &files {
            actual += &format!("            ({name:?}, {lines}, {hash:#018x}),\n");
        }
        actual += "        ],\n    ),\n";
    }
    assert!(
        matches,
        "generated CUDA changed; if intended, replace GOLDEN's rows with:\n{actual}"
    );
}
