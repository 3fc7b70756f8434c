//! Device-kernel emission: fused pointwise kernels, the one ring
//! collective kernel (per NCCL protocol, §5.2; with an optional fused
//! epilogue and an optional chunk gate, §5.3), and P2P send kernels.
//!
//! Every kernel body is its unit's [`KernelIr`] printed: one
//! declaration of the register file, then one C statement per
//! instruction — the instructions the runtime's block evaluator runs
//! and `lower` prices.

use std::fmt::Write as _;

use crate::kernel::{Access, Instr, Segment, Stage};
use crate::lower::sliced_reductions;
use crate::{BinaryOp, CoreError, KernelIr, OpKind, Program, TensorType, UnaryOp, VarId};

use super::overlap_gen::Gate;
use super::{cuda_type, UnitCode};

/// Where a kernel body runs: how it reaches memory, and which values
/// arrive in registers or leave through its collective or channel.
#[derive(Clone, Copy)]
struct Frame<'a> {
    /// Tensor pointer prefix (a kernel parameter, or a field of the
    /// argument struct) and the lane's local element index.
    prefix: &'a str,
    index: &'a str,
    /// The open call that reduces a value over the whole tensor.
    reduce: &'a str,
    /// A fused collective's ReduceScatter chunk, which arrives in the
    /// pack.
    pack: Option<VarId>,
    /// Stored values that leave through the open call `leave` instead
    /// of memory.
    leaving: &'a [VarId],
    leave: &'a str,
}

const POINTWISE: Frame = Frame {
    prefix: "",
    index: "idx",
    reduce: "blockReduce(",
    pack: None,
    leaving: &[],
    leave: "",
};

fn name(p: &Program, v: VarId) -> Result<&str, CoreError> {
    Ok(p.node(v)?.name())
}

/// The value of `v` at this lane, widened to `float`: the element
/// `access` addresses, or element 0 of a scalar (`access` is `None`).
fn load(p: &Program, v: VarId, access: Option<Access>, f: Frame) -> Result<String, CoreError> {
    if f.pack == Some(v) {
        return Ok("toFloat(unpack<T>(pack, e))".into());
    }
    let (name, index) = (name(p, v)?, f.index);
    let at = match access {
        None => "0".to_string(),
        Some(Access::Window) => index.to_string(),
        Some(Access::SliceOffset) => format!("sliceOffset(rank, {index})"),
        Some(Access::Gather) => "gidx".to_string(),
        Some(Access::Broadcast) => format!("broadcastIndex(gidx, dims_{name})"),
    };
    Ok(format!("(float){}{name}[{at}]", f.prefix))
}

/// One instruction of `seg` as a C statement: a body instruction over
/// `domain`, or (`domain` is `None`) a prologue one. The statement that
/// defines a member ends in `// {name}`.
fn statement(
    p: &Program,
    seg: &Segment,
    domain: Option<&TensorType>,
    instr: &Instr,
    f: Frame,
) -> Result<String, CoreError> {
    let file = if domain.is_some() { "reg" } else { "sreg" };
    let r = |i: usize| format!("{file}[{i}]");
    let text = match *instr {
        Instr::Const { dst, value } => format!("{} = {value:?}f", r(dst)),
        Instr::Load { dst, operand } => {
            let o = seg.operands[operand];
            let access = domain.map(|d| p.ty(o).map(|t| Access::between(t, d)));
            format!("{} = {}", r(dst), load(p, o, access.transpose()?, f)?)
        }
        Instr::Splat { dst, scalar } => format!("reg[{dst}] = sreg[{scalar}]"),
        Instr::Unary { op, dst, a, .. } => {
            let f = match op {
                UnaryOp::Sqrt => "sqrtf",
                UnaryOp::Tanh => "tanhf",
                UnaryOp::Relu => "reluf",
                UnaryOp::Neg => "-",
            };
            format!("{} = {f}({})", r(dst), r(a))
        }
        Instr::Binary {
            op: BinaryOp::Pow,
            dst,
            a,
            b,
            ..
        } => {
            format!("{} = powf({}, {})", r(dst), r(a), r(b))
        }
        Instr::Binary { op, dst, a, b, .. } => {
            format!("{} = {} {} {}", r(dst), r(a), op.symbol(), r(b))
        }
        Instr::Dropout {
            dst, a, p: prob, ..
        } => {
            let scale = (1.0 / (1.0 - prob)) as f32;
            let keep = format!("coconet_keep(seed, gidx, {prob}f)");
            format!("{} = {keep} ? {} * {scale:?}f : 0.0f", r(dst), r(a))
        }
        Instr::RoundF16 { dst, a } => format!("{} = roundHalf({})", r(dst), r(a)),
        Instr::Store { src, member } if f.leaving.contains(&member) => {
            format!("{}fromFloat<T>({}))", f.leave, r(src))
        }
        Instr::Store { src, member } => format!(
            "{}out_{}[{}] = ({}){}",
            f.prefix,
            name(p, member)?,
            if domain.is_some() { f.index } else { "0" },
            cuda_type(p, member)?,
            r(src)
        ),
    };
    // An `Update` aliases its operand's register: its store defines it.
    Ok(match *instr {
        Instr::Unary { member, .. }
        | Instr::Binary { member, .. }
        | Instr::Dropout { member, .. } => format!("{text}; // {}", name(p, member)?),
        Instr::Store { member, .. } if matches!(p.op(member)?, OpKind::Update(..)) => {
            format!("{text}; // {}", name(p, member)?)
        }
        _ => format!("{text};"),
    })
}

/// Prints `ir` and returns the tensor pointers it touches: one
/// declaration of the register file, then one C statement per
/// instruction, stage by stage. A reduction reads its operand (a
/// `Slice` no member computes through what it slices) in the frame's
/// reduce call and stores the scalar.
fn emit_body(
    src: &mut String,
    p: &Program,
    members: &[VarId],
    ir: &KernelIr,
    f: Frame,
    ind: &str,
) -> Result<Vec<String>, CoreError> {
    let max = |regs: fn(&Segment) -> usize| ir.segments().map(regs).max().unwrap_or(0);
    let files: Vec<String> = [
        ("sreg", max(|s| s.prologue_regs)),
        ("reg", max(|s| s.body_regs)),
    ]
    .into_iter()
    .filter(|&(_, n)| n > 0)
    .map(|(file, n)| format!("{file}[{n}]"))
    .collect();
    if !files.is_empty() {
        let _ = writeln!(src, "{ind}float {};", files.join(", "));
    }
    let (mut loads, mut stores) = (Vec::new(), Vec::new());
    for stage in &ir.stages {
        match stage {
            Stage::Segment(seg) => {
                let domain = seg.domain.map(|d| p.ty(d)).transpose()?;
                let code = [
                    (None, &seg.prologue),
                    (domain, &seg.pinned),
                    (domain, &seg.body),
                ];
                for (domain, code) in code {
                    for instr in code {
                        let line = statement(p, seg, domain, instr, f)?;
                        let _ = writeln!(src, "{ind}{line}");
                    }
                }
                loads.extend(seg.operands.iter().filter(|&&o| f.pack != Some(o)));
                stores.extend(seg.stores().filter(|m| !f.leaving.contains(m)));
            }
            Stage::Reduce(m) => {
                let x = p.op(*m)?.inputs()[0];
                let (tensor, access) = match p.op(x)? {
                    OpKind::Slice(a) if !members.contains(&x) => {
                        (*a, Access::between(p.ty(*a)?, p.ty(x)?))
                    }
                    _ => (x, Access::Window),
                };
                let what = match p.op(*m)? {
                    OpKind::ReduceTensor(op, _) => format!("{op:?}"),
                    _ => "SumSquares".to_string(),
                };
                let (name, read) = (name(p, *m)?, load(p, tensor, Some(access), f)?);
                let (prefix, reduce) = (f.prefix, f.reduce);
                let _ = writeln!(
                    src,
                    "{ind}{prefix}out_{name}[0] = {reduce}{what}, {read}); // {name}"
                );
                loads.push(tensor);
                stores.push(*m);
            }
        }
    }
    let mut params: Vec<String> = Vec::new();
    for (prefix, vars) in [("const ", loads), ("", stores)] {
        for v in vars {
            let out = if prefix.is_empty() { "out_" } else { "" };
            let param = format!("{prefix}{}* {out}{}", cuda_type(p, v)?, name(p, v)?);
            if !params.contains(&param) {
                params.push(param);
            }
        }
    }
    Ok(params)
}

/// The host launch of a communication kernel: on the context's stream,
/// or — as an overlap stage — on the stage's own stream with the
/// group's spin-lock configuration.
fn comm_launch(kernel: &str, idx: usize, gate: Option<&Gate>) -> String {
    let (stream, cfg) = match gate {
        Some(g) => (format!("ctx->streams[{}]", g.stage), ", cfg"),
        None => ("ctx->stream".to_string(), ""),
    };
    format!(
        "{kernel}<half><<<ctx->channels, NCCL_NTHREADS, 0, {stream}>>>(makeArgs_{idx}(ctx, args{cfg}));"
    )
}

/// Emits a fused pointwise kernel plus its host launch. A reduction
/// over a sliced tensor is followed by the scalar AllReduce `lower`
/// prices after the kernel.
pub(crate) fn emit_pointwise_kernel(
    p: &Program,
    ir: &KernelIr,
    members: &[VarId],
    idx: usize,
) -> Result<UnitCode, CoreError> {
    let kernel_name = format!("fused_compute_{idx}");
    let mut body = String::new();
    let mut params: Vec<String> =
        vec!["size_t n".into(), "int rank".into(), "uint64_t seed".into()];
    params.extend(emit_body(&mut body, p, members, ir, POINTWISE, "  ")?);
    let mut src = String::new();
    let _ = write!(
        src,
        "// Fused pointwise kernel ({} ops).
__global__ void {kernel_name}({}) {{
  size_t idx = blockIdx.x * (size_t)blockDim.x + threadIdx.x;
  if (idx >= n) return;
  size_t gidx = globalOffset(rank, n) + idx;
{body}}}
",
        ir.n_ops(),
        params.join(", ")
    );
    let mut calls = vec![format!(
        "{kernel_name}<<<cdiv(n, 256), 256, 0, ctx->stream>>>(/* {} args */);",
        params.len()
    )];
    for m in sliced_reductions(p, ir)? {
        calls.push(format!(
            "NCCLCHECK(ncclAllReduce(out_{0}, out_{0}, 1, ncclFloat32, ncclSum, ctx->comm, ctx->stream));",
            name(p, m)?
        ));
    }
    Ok(UnitCode {
        kernel: Some((kernel_name, src)),
        calls,
    })
}

/// Emits the ring kernel of a collective unit — a `FusedAllReduce`
/// group (§5.2: ReduceScatter, the fused computation `ir` on the owned
/// slice, AllGather) or, as an overlap stage, a plain AllReduce /
/// ReduceScatter / AllGather — plus its host launch.
pub(crate) fn emit_fused_collective(
    p: &Program,
    ir: &KernelIr,
    members: &[VarId],
    idx: usize,
    gate: Option<&Gate>,
) -> Result<UnitCode, CoreError> {
    let mut reduced = None; // the member whose value the reduce phase produces
    let mut gathered = Vec::new(); // the values the gather phase distributes
    let mut collective = "AllGather";
    for &m in members {
        match p.op(m)? {
            OpKind::ReduceScatter(..) => (reduced, collective) = (Some(m), "ReduceScatter"),
            OpKind::AllReduce(..) => (reduced, collective) = (Some(m), "AllReduce"),
            OpKind::AllGather(x) => gathered.push(*x),
            _ => {}
        }
    }
    let fused = !ir.stages.is_empty();
    let kernel = if fused {
        format!("fusedAllReduce_{idx}")
    } else {
        format!("ring{collective}_{idx}")
    };
    let mut fields = Vec::new();
    if gate.is_some_and(|g| g.two_d) {
        fields.push("size_t m, n, ld, chunksPerRow".to_string());
    }
    let mut body = String::new();
    if fused {
        // Tensor reductions (§5.2): each rank reduces its slice, then an
        // embedded scalar AllReduce over the established ring
        // connections combines the partials.
        let frame = Frame {
            prefix: "a->",
            index: "idx + e",
            reduce: "embeddedAllReduce(h, ",
            pack: Some(reduced.ok_or_else(|| {
                CoreError::MalformedProgram("fused collective without ReduceScatter".into())
            })?),
            leaving: &gathered,
            leave: "repack<T>(pack, e, ",
        };
        fields.extend(emit_body(&mut body, p, members, ir, frame, "    ")?);
    }
    let mut src = String::new();
    let _ = writeln!(
        src,
        "// {kernel} (§5.2): one ring kernel with {} fused ops on the owned",
        ir.n_ops()
    );
    let _ = writeln!(src, "// slice, specialized per NCCL protocol.");
    if gate.is_none() {
        let _ = writeln!(src, "#include \"nccl_device_glue.cuh\"");
    }
    emit_args_struct(&mut src, idx, "RingArgs", gate, &fields);
    if fused {
        // The compute epilogue applied to each rank's owned slice.
        // Mixed precision (§5.2): operands are widened to float on
        // load, results narrowed to the pack's element type.
        let _ = write!(
            src,
            "template <typename T, typename PackT>
__device__ __forceinline__ void computeEpilogue_{idx}(PackT* pack, Args_{idx}* a, CommHandle* h, size_t idx) {{
  constexpr int kEltsPerPack = sizeof(PackT) / sizeof(T);
  const int rank = h->rank;
  const uint64_t seed = a->seed;
  #pragma unroll
  for (int e = 0; e < kEltsPerPack; ++e) {{
    size_t gidx = h->gOff + idx + e;
{body}  }}
}}
"
        );
    }

    let ring = RingKernel {
        idx,
        reduce: reduced.is_some(),
        gather: collective == "AllReduce" || !gathered.is_empty(),
        fused,
        gate,
    };
    for proto in ["LL", "LL128", "Simple"] {
        emit_ring_loop(&mut src, &ring, proto);
    }
    // The entry point dispatches on the protocol the autotuner chose.
    let _ = write!(
        src,
        "template <typename T>
__global__ void {kernel}(Args_{idx} args) {{
  CommHandle* h = commHandle(args.comm, blockIdx.x);
  switch (args.protocol) {{
    case ProtoLL: runLL_{idx}<T>(args, h); break;
    case ProtoLL128: runLL128_{idx}<T>(args, h); break;
    case ProtoSimple: runSimple_{idx}<T>(args, h); break;
  }}
}}
"
    );
    let calls = vec![comm_launch(&kernel, idx, gate)];
    Ok(UnitCode {
        kernel: Some((kernel, src)),
        calls,
    })
}

/// The argument struct of a communication kernel: the glue header's
/// fixed fields (`comm`, `protocol`, `seed`, `input`, `output`,
/// `count`, …) extended with what the schedule adds — the overlap
/// group's spin-lock configuration and the fused computation's tensors.
fn emit_args_struct(
    src: &mut String,
    idx: usize,
    base: &str,
    gate: Option<&Gate>,
    fields: &[String],
) {
    let _ = writeln!(src, "struct Args_{idx} : {base} {{");
    if let Some(g) = gate {
        let _ = writeln!(src, "  OverlapConfig_{} cfg;", g.og);
    }
    for field in fields {
        let _ = writeln!(src, "  {field};");
    }
    let _ = writeln!(src, "}};");
}

/// What one ring kernel does besides moving packs around the ring.
struct RingKernel<'a> {
    /// Unit index: names `Args_{idx}` and `computeEpilogue_{idx}`.
    idx: usize,
    /// Runs the reduce phase (steps `0 .. k-1`).
    reduce: bool,
    /// Runs the gather phase (steps `k-1 .. 2(k-1)`).
    gather: bool,
    /// Whether `computeEpilogue_{idx}` runs on the owned slice.
    fused: bool,
    gate: Option<&'a Gate>,
}

/// The ring loop under one protocol: pack type and load/store access
/// pattern differ per protocol (§5.2: 64-bit packs with inline flags
/// for LL, 128-byte lines staged through shared memory for LL128,
/// fenced full-rate global access for Simple); phases, fused epilogue
/// and chunk gate come from the schedule.
fn emit_ring_loop(src: &mut String, k: &RingKernel, proto: &str) {
    let idx = k.idx;
    let (pack, note, load, store) = match proto {
        "LL" => (
            "uint64_t",
            "8-byte packs, 4B data + 4B flag, no fences",
            "readLL(h->recvBuff, gi, h->flag)",
            "writeLL(h->sendBuff, gi, v, h->flag)",
        ),
        "LL128" => (
            "ulong2",
            "128-byte lines staged through shared memory",
            "readLL128(h->recvBuff, gi, h->shmem)",
            "writeLL128(h->sendBuff, gi, v, h->shmem)",
        ),
        _ => (
            "uint4",
            "full-rate global loads/stores, fence per step",
            "loadGlobal<PackT>(h->recvBuff, gi)",
            "storeGlobal<PackT>(h->sendBuff, gi, v)",
        ),
    };
    let fenced = proto == "Simple";
    let _ = write!(
        src,
        "template <typename T>
__device__ void run{proto}_{idx}(Args_{idx}& args, CommHandle* h) {{
  using PackT = {pack}; // {proto}: {note}
  const int nranks = h->nranks;
  ringConnect(h); // advance the flag epoch, wait for peers
"
    );
    let ind = match k.gate {
        Some(g) => g.open(src),
        None => "  ",
    };
    // Steps 0 .. k-1 reduce, k-1 .. 2(k-1) gather; at step k-2 the
    // owned chunk is fully reduced and every later pack is final.
    let first = if k.reduce { "0" } else { "nranks - 1" };
    let last = if k.gather {
        "2 * (nranks - 1)"
    } else {
        "nranks - 1"
    };
    let _ = write!(
        src,
        "{ind}for (int step = {first}; step < {last}; ++step) {{
{ind}  int chunk = ringChunk(h->ringPos, step, nranks);
"
    );
    if fenced {
        let _ = writeln!(src, "{ind}  waitPeer(h, step);");
    }
    let (chunk, len, index) = match k.gate {
        Some(g) if g.two_d => (
            "Chunk2D c = chunk2DAt(args.m, args.n, args.ld, tile * nranks + chunk, args.chunksPerRow)",
            "c.rows * c.cols",
            "chunk2DIndex(c, i)",
        ),
        Some(_) => (
            "Chunk1D c = chunkAt(args.count, tile * nranks + chunk, args.cfg.ntiles * nranks)",
            "c.len",
            "c.off + i",
        ),
        None => (
            "Chunk1D c = chunkAt(args.count, chunk, nranks)",
            "c.len",
            "c.off + i",
        ),
    };
    let _ = write!(
        src,
        "{ind}  {chunk};
{ind}  for (size_t i = tid(); i < {len}; i += nthreads()) {{
{ind}    size_t gi = {index};
"
    );
    if k.reduce {
        let in_phase = if k.gather {
            "if (step < nranks - 1) "
        } else {
            ""
        };
        let _ = writeln!(src, "{ind}    PackT v = {load};");
        let _ = writeln!(
            src,
            "{ind}    {in_phase}v = reducePack<T, PackT>(v, loadLocal<PackT>(args.input, gi));"
        );
    } else {
        let _ = writeln!(
            src,
            "{ind}    PackT v = step == nranks - 1 ? loadLocal<PackT>(args.input, gi) : {load};"
        );
    }
    if k.fused {
        let _ = writeln!(
            src,
            "{ind}    if (step == nranks - 2) computeEpilogue_{idx}<T, PackT>(&v, &args, h, gi);"
        );
    }
    let _ = writeln!(src, "{ind}    {store};");
    let is_final = if k.reduce {
        "if (step >= nranks - 2) "
    } else {
        ""
    };
    let _ = writeln!(
        src,
        "{ind}    {is_final}storeGlobal<PackT>(args.output, gi, v);"
    );
    let _ = writeln!(src, "{ind}  }}");
    if fenced {
        let _ = writeln!(src, "{ind}  postPeer(h, step);");
    }
    let _ = writeln!(src, "{ind}}}");
    if let Some(g) = k.gate {
        g.close(src);
    }
    src.push_str("  ringDrain(h); // make the final stores visible system-wide\n}\n");
}

/// Emits a P2P send kernel — the fused computation `ir` applied as data
/// leaves (§4), tile by tile when it is an overlap stage — plus its
/// host launch.
pub(crate) fn emit_fused_send(
    p: &Program,
    ir: &KernelIr,
    members: &[VarId],
    idx: usize,
    gate: Option<&Gate>,
) -> Result<UnitCode, CoreError> {
    let sent = members
        .iter()
        .find_map(|&m| match p.op(m) {
            Ok(OpKind::Send(x, _)) => Some(*x),
            _ => None,
        })
        .ok_or_else(|| CoreError::MalformedProgram("Send unit without a Send".into()))?;
    let frame = Frame {
        prefix: "args.",
        leaving: std::slice::from_ref(&sent),
        leave: "sendElement<T>(h, idx, ",
        ..POINTWISE
    };
    let kernel = format!("fusedSend_{idx}");
    let mut func = String::new();
    let _ = write!(
        func,
        "template <typename T>
__global__ void {kernel}(Args_{idx} args) {{
  CommHandle* h = p2pHandle(args.comm, blockIdx.x);
  const int rank = h->rank;
  const uint64_t seed = args.seed;
"
    );
    let (ind, range) = match gate {
        Some(g) => {
            let ind = g.open(&mut func);
            let _ = writeln!(
                func,
                "{ind}Chunk1D c = chunkAt(args.count, tile, args.cfg.ntiles);"
            );
            (ind, "size_t idx = c.off + tid(); idx < c.off + c.len")
        }
        None => ("  ", "size_t idx = tid(); idx < args.count"),
    };
    let _ = writeln!(func, "{ind}for ({range}; idx += nthreads()) {{");
    let _ = writeln!(func, "{ind}  size_t gidx = args.sliceOff + idx;");
    let mut tensors = emit_body(&mut func, p, members, ir, frame, &format!("{ind}  "))?;
    // The Send reads the last fused value, or memory when nothing is fused.
    if !ir.segments().any(|s| s.stores().any(|m| m == sent)) {
        tensors.push(format!("const {}* {}", cuda_type(p, sent)?, name(p, sent)?));
        let value = load(p, sent, Some(Access::Window), frame)?;
        let _ = writeln!(
            func,
            "{ind}  sendElement<T>(h, idx, fromFloat<T>({value}));"
        );
    }
    let _ = writeln!(func, "{ind}}}");
    let _ = writeln!(func, "{ind}flushSend(h);");
    if let Some(g) = gate {
        g.close(&mut func);
    }
    let _ = writeln!(func, "}}");
    let mut src = String::new();
    let _ = writeln!(
        src,
        "// Fused P2P send (§4): {} ops applied to outgoing data.",
        ir.n_ops()
    );
    if gate.is_none() {
        let _ = writeln!(src, "#include \"nccl_device_glue.cuh\"");
    }
    emit_args_struct(&mut src, idx, "SendArgs", gate, &tensors);
    src.push_str(&func);
    let calls = vec![comm_launch(&kernel, idx, gate)];
    Ok(UnitCode {
        kernel: Some((kernel, src)),
        calls,
    })
}
