//! What the CUDA emitter (`core::codegen`) prints, over every fixed
//! schedule the models crate ships.
//!
//! Four content checks say what the text must be: every pointwise
//! operation of the scheduled program is assigned in exactly one
//! generated file, every printed kernel body computes what the block
//! evaluator computes (a small interpreter runs the text), the host
//! file launches kernels and library calls in the order of the plan
//! `lower` builds, and no file re-defines a primitive it `#include`s.
//! The golden table then pins that the text
//! does not drift: file names, per-file line counts and a content hash
//! for the four self-attention schedules plus the two that reach the
//! emitter's other paths — the pipeline overlap (gated ReduceScatter /
//! fused send / AllGather stages) and `fuse(RS-Adam-AG)` (a fused
//! collective with in-place updates). An intended change to the
//! generated code updates the table (run `cargo run --example
//! codegen_inspect -- --dump` to read the new output; the failure
//! message prints the new rows).

use std::collections::{BTreeMap, HashMap};

use coconet::core::kernel::{Readers, Segment};
use coconet::core::{
    generate_cuda, lower, partition, BinaryOp, Binding, CollKind, CommConfig, DType, GeneratedCode,
    KernelIr, OpKind, Program, Step, UnaryOp, VarId,
};
use coconet::models::model_parallel::{apply_block_schedule, Block, BlockSchedule};
use coconet::models::optimizers::{apply_optimizer_schedule, OptimizerSchedule};
use coconet::models::pipeline::{apply_pipeline_schedule, PipelineSchedule};
use coconet::models::{Hyper, Optimizer};
use coconet::runtime::{run_segment_alone, DistValue};
use coconet::tensor::{CounterRng, Tensor, F16};

/// Every fixed schedule: `(family: label, scheduled program, binding)`,
/// at a binding small enough to run a kernel segment on.
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
            let binding = Binding::new(4).bind("N", 4 * 37);
            table.push((
                format!("optimizer: {}", schedule.label(opt)),
                program,
                binding,
            ));
        }
    }
    let block = || Binding::new(4).bind("B", 2).bind("S", 3).bind("H", 8);
    for schedule in BlockSchedule::ALL {
        let (program, _, _) =
            apply_block_schedule(Block::SelfAttention, schedule).expect("schedule applies");
        table.push((
            format!("self-attention: {}", schedule.label()),
            program,
            block(),
        ));
    }
    for schedule in PipelineSchedule::ALL {
        let (program, _, _) = apply_pipeline_schedule(schedule).expect("schedule applies");
        let binding = block().with_groups(2);
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

/// Whether `src` computes `name`: the printer marks the statement that
/// defines a member — its instruction, an `Update`'s store, a
/// reduction — with a trailing `// {name}`.
fn assigns(src: &str, name: &str) -> bool {
    let marker = format!("; // {name}");
    src.lines().any(|l| l.trim_end().ends_with(&marker))
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
            assert_eq!(files.len(), 1, "{label}: `{name}` is computed in {files:?}");
        }
    }
}

/// The statements of unit `u`'s printed kernel body, one list per
/// segment: the lines after the register-file declaration up to the
/// closing brace, split at the reduction calls between segments.
fn printed_segments(code: &GeneratedCode, u: usize) -> Vec<Vec<String>> {
    let heads = [
        format!("void fused_compute_{u}("),
        format!("void computeEpilogue_{u}("),
        format!("void fusedSend_{u}("),
    ];
    let lines: Vec<&str> = code
        .files
        .iter()
        .flat_map(|(_, src)| src.lines())
        .skip_while(|l| !heads.iter().any(|h| l.contains(h.as_str())))
        .skip_while(|l| !l.trim_start().starts_with("float "))
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('}'))
        .collect();
    lines
        .split(|l| l.contains("Reduce("))
        .filter(|seg| !seg.is_empty())
        .map(|seg| seg.iter().map(|l| l.trim().to_string()).collect())
        .collect()
}

/// One lane's view of a segment's operands, for the interpreter.
struct Lane<'a> {
    operands: HashMap<String, &'a DistValue>,
    /// The operand that arrives in the pack (a fused collective's
    /// ReduceScatter chunk).
    pack: Option<String>,
    domain: Option<&'a DistValue>,
    lane: usize,
    seed: u64,
    /// The mask stream ordinal of every dropout, by name.
    dropouts: &'a HashMap<String, u64>,
}

impl Lane<'_> {
    fn gidx(&self) -> usize {
        self.domain.map_or(0, |d| d.global_index(self.lane))
    }

    /// `(float)tensor[address]`, with an optional struct prefix.
    fn load(&self, text: &str) -> f32 {
        let text = text.trim_start_matches("a->").trim_start_matches("args.");
        let (name, at) = text.split_once('[').expect("an indexed load");
        let o = self.operands[name];
        let at = at.strip_suffix(']').expect("a closed index");
        if at == "0" {
            o.local.get(0)
        } else if at == "idx" || at == "idx + e" {
            o.local.get(self.lane)
        } else if at.starts_with("sliceOffset(rank, ") {
            let domain = self.domain.expect("a body load");
            o.local.get(domain.pos * domain.local.numel() + self.lane)
        } else if at == "gidx" {
            o.read_global(self.gidx())
        } else {
            assert_eq!(at, format!("broadcastIndex(gidx, dims_{name})"));
            let domain = self.domain.expect("a body load");
            let at = o
                .global_shape
                .broadcast_index(&domain.global_shape, self.gidx());
            o.read_global(at)
        }
    }

    /// The value of a printed expression.
    fn eval(&self, regs: &HashMap<String, f32>, e: &str, defines: &str) -> f32 {
        let reg = |r: &str| *regs.get(r.trim()).unwrap_or_else(|| panic!("`{r}` unset"));
        let call = |f: &str| e.strip_prefix(f).and_then(|rest| rest.strip_suffix(')'));
        if let Some(rest) = e.strip_prefix("coconet_keep(seed, gidx, ") {
            let (p, rest) = rest.split_once("f) ? ").expect("a dropout");
            let (x, rest) = rest.split_once(" * ").expect("a dropout scale");
            let scale: f32 = rest
                .strip_suffix("f : 0.0f")
                .expect("a scale")
                .parse()
                .unwrap();
            let p: f64 = p.parse().unwrap();
            let ordinal = self.dropouts[defines];
            let rng = CounterRng::new(self.seed.wrapping_add(ordinal.wrapping_mul(0x9E37_79B9)));
            return match rng.keep_at(self.gidx() as u64, p) {
                true => reg(x) * scale,
                false => 0.0,
            };
        }
        if let Some(args) = call("powf(") {
            let (a, b) = args.split_once(", ").expect("two arguments");
            return BinaryOp::Pow.apply(reg(a), reg(b));
        }
        for (f, op) in [
            ("sqrtf(", UnaryOp::Sqrt),
            ("tanhf(", UnaryOp::Tanh),
            ("reluf(", UnaryOp::Relu),
            ("-(", UnaryOp::Neg),
        ] {
            if let Some(a) = call(f) {
                return op.apply(reg(a));
            }
        }
        if let Some(a) = call("roundHalf(") {
            return F16::from_f32(reg(a)).to_f32();
        }
        if e == "toFloat(unpack<T>(pack, e))" {
            return self.operands[self.pack.as_deref().expect("a pack")]
                .local
                .get(self.lane);
        }
        if let Some(load) = e.strip_prefix("(float)") {
            return self.load(load);
        }
        if let Some(value) = e.strip_suffix('f') {
            return value
                .parse()
                .unwrap_or_else(|_| panic!("`{e}` is a literal"));
        }
        for (symbol, op) in [
            (" + ", BinaryOp::Add),
            (" - ", BinaryOp::Sub),
            (" * ", BinaryOp::Mul),
            (" / ", BinaryOp::Div),
        ] {
            if let Some((a, b)) = e.split_once(symbol) {
                return op.apply(reg(a), reg(b));
            }
        }
        reg(e)
    }

    /// Runs `statements` on this lane; returns the values stored, in
    /// statement order, as `(store target, value)`.
    fn run(&self, statements: &[String]) -> Vec<(String, f32)> {
        let mut regs: HashMap<String, f32> = HashMap::new();
        let mut stores = Vec::new();
        for line in statements {
            let (statement, defines) = match line.split_once("; // ") {
                Some((s, name)) => (s, name),
                None => (line.strip_suffix(';').expect("a statement"), ""),
            };
            let leaving = ["repack<T>(pack, e, ", "sendElement<T>(h, idx, "]
                .iter()
                .find_map(|call| statement.strip_prefix(call));
            if let Some(rest) = leaving {
                let reg = rest
                    .strip_prefix("fromFloat<T>(")
                    .and_then(|r| r.strip_suffix("))"))
                    .expect("a value leaving in the pack or the channel");
                stores.push((String::new(), regs[reg]));
                continue;
            }
            let (target, value) = statement.split_once(" = ").expect("an assignment");
            if target.starts_with("reg[") || target.starts_with("sreg[") {
                let value = self.eval(&regs, value, defines);
                regs.insert(target.to_string(), value);
            } else {
                let (cast, reg) = value.split_once(')').expect("a cast store");
                let value = match cast {
                    "(half" => F16::from_f32(regs[reg]).to_f32(),
                    _ => regs[reg],
                };
                stores.push((target.to_string(), value));
            }
        }
        stores
    }
}

/// The printed bodies against the block evaluator (ROADMAP 8(b)): for
/// every segment of every kernel of every fixed schedule, the
/// interpreter above runs the printed statements lane by lane on random
/// operands, and `run_segment_alone` runs the unit's `KernelIr` segment
/// on the same operands, at every position of the group. Every stored
/// value agrees to the bit, and every printed store names the member
/// the IR stores.
#[test]
fn printed_bodies_compute_what_the_block_evaluator_computes() {
    let seed = 0x5eed;
    for (label, program, binding) in schedule_table() {
        let code = generate_cuda(&program).expect("codegen succeeds");
        let parts = partition(&program).expect("partitions");
        let readers = Readers::of(&program).expect("indexes");
        let dropouts: HashMap<String, u64> = program
            .topo_order()
            .into_iter()
            .filter(|&v| matches!(program.op(v), Ok(OpKind::Dropout(..))))
            .enumerate()
            .map(|(i, v)| (program.node(v).unwrap().name().to_string(), i as u64))
            .collect();
        let value_of = |v: VarId, pos: usize, salt: u64| {
            let ty = program.ty(v).unwrap();
            let global = ty.shape.eval(&binding).unwrap();
            let gs = binding.group_size;
            let local = DistValue::local_shape(&global, ty.layout, gs);
            DistValue {
                local: Tensor::randn(local, ty.dtype, CounterRng::new(salt), 0),
                global_shape: global,
                layout: ty.layout,
                pos,
                group_size: gs,
            }
        };
        let mut checked = 0;
        for (u, unit) in parts.units.iter().enumerate() {
            let ir = KernelIr::compile(&program, &readers, &unit.members).unwrap();
            let segments: Vec<&Segment> = ir.segments().collect();
            let printed = printed_segments(&code, u);
            assert_eq!(printed.len(), segments.len(), "{label}: unit {u}");
            let pack = unit
                .members
                .iter()
                .find(|&&m| matches!(program.op(m), Ok(OpKind::ReduceScatter(..))))
                .map(|&m| program.node(m).unwrap().name().to_string());
            for (seg, statements) in segments.into_iter().zip(&printed) {
                for pos in 0..binding.group_size {
                    let operands: Vec<(VarId, DistValue)> = seg
                        .operands
                        .iter()
                        .map(|&o| (o, value_of(o, pos, 31 * o.index() as u64 + pos as u64)))
                        .collect();
                    let want =
                        run_segment_alone(&program, &binding, seg, pos, seed, operands.clone())
                            .unwrap();
                    let domain = seg.domain.map(|d| value_of(d, pos, 0));
                    let mut lane = Lane {
                        operands: operands
                            .iter()
                            .map(|(o, v)| (program.node(*o).unwrap().name().to_string(), v))
                            .collect(),
                        pack: pack.clone(),
                        domain: domain.as_ref(),
                        lane: 0,
                        seed,
                        dropouts: &dropouts,
                    };
                    let lanes = domain.as_ref().map_or(1, |d| d.local.numel().max(1));
                    let got: Vec<Vec<(String, f32)>> = (0..lanes)
                        .map(|l| {
                            lane.lane = l;
                            lane.run(statements)
                        })
                        .collect();
                    let stored: Vec<VarId> = seg.stores().collect();
                    assert_eq!(want.len(), stored.len(), "{label}: unit {u}");
                    for (i, (m, value)) in stored.iter().zip(&want).enumerate() {
                        let name = program.node(*m).unwrap().name();
                        let (target, _) = &got[0][i];
                        assert!(
                            target.is_empty() || target.contains(&format!("out_{name}[")),
                            "{label}: unit {u} stores `{target}` where the IR stores `{name}`"
                        );
                        for (l, stores) in got.iter().take(value.local.numel()).enumerate() {
                            let printed = stores[i].1;
                            let printed = match value.local.dtype() {
                                DType::F16 => F16::from_f32(printed).to_f32(),
                                DType::F32 => printed,
                            };
                            assert_eq!(
                                printed.to_bits(),
                                value.local.get(l).to_bits(),
                                "{label}: unit {u} `{name}` at position {pos}, lane {l}: \
                                 printed {printed} vs evaluator {}",
                                value.local.get(l)
                            );
                        }
                    }
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "{label}: no kernel body checked");
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
                        format!("out_{}", norm.trim_end_matches(']')),
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
            ("fused_compute_2.cu", 12, 0x246995d556275c29),
            ("fused_compute_3.cu", 11, 0x6ea91ecdb57d3ef8),
            ("fused_compute_4.cu", 12, 0xf4127b6b19e7052a),
            ("self_attention_host.cu", 10, 0xb261eeacf39c819e),
        ],
    ),
    (
        "self-attention: MM-AR-C",
        &[
            ("fused_compute_0.cu", 17, 0x543233de9056ab03),
            ("self_attention_host.cu", 8, 0xd3e7b833ee637987),
        ],
    ),
    (
        "self-attention: GShard-Eq (MM-RS-C-AG)",
        &[
            ("fused_compute_0.cu", 17, 0xb3b0470c974fdb8b),
            ("self_attention_host.cu", 9, 0x93efde3fd004ccbd),
        ],
    ),
    (
        "self-attention: ol(MM,fuse(RS-C-AG))",
        &[
            ("overlapped_0.cu", 199, 0xf93e22e78fe2e77b),
            ("self_attention_host.cu", 6, 0x03b3448c55a0d940),
        ],
    ),
    (
        "pipeline: ol(RS,fuse(C-P2P),AG)",
        &[
            ("overlapped_0.cu", 242, 0x298aee9b950dd59b),
            ("transformer_host.cu", 6, 0x02920bba7736bf18),
        ],
    ),
    (
        "optimizer: fuse(RS-Adam-AG)",
        &[
            ("fusedAllReduce_0.cu", 133, 0x338ee73d393c2c89),
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
