//! Device-kernel emission: fused pointwise kernels, the one ring
//! collective kernel (per NCCL protocol, §5.2; with an optional fused
//! epilogue and an optional chunk gate, §5.3), and P2P send kernels.

use std::collections::HashSet;
use std::fmt::Write as _;

use crate::lower::sliced_reductions;
use crate::{BinaryOp, CoreError, OpKind, Program, UnaryOp, VarId};

use super::overlap_gen::Gate;
use super::{cuda_type, UnitCode};

/// How a kernel body reaches memory: the pointer prefix (empty for
/// kernel parameters, `a->` / `args.` for an argument struct), the
/// element index expression, and the open call that reduces a value
/// over the whole tensor.
#[derive(Clone, Copy)]
struct Mem<'a> {
    prefix: &'a str,
    index: &'a str,
    reduce: &'a str,
}

/// The C statement that puts one value into `x_{name}`: the expression
/// of a member the kernel computes, or the load of a value computed
/// elsewhere (a slice loads through its source tensor either way).
fn op_expression(p: &Program, v: VarId, mem: Mem, computed: bool) -> Result<String, CoreError> {
    let node = p.node(v)?;
    let name = node.name();
    let Mem {
        prefix,
        index,
        reduce,
    } = mem;
    let arg = |x: VarId| -> Result<String, CoreError> {
        let n = p.node(x)?;
        Ok(match n.op() {
            OpKind::ConstScalar(c) => format!("{c}f"),
            _ => format!("x_{}", n.name()),
        })
    };
    Ok(match node.op() {
        OpKind::Slice(a) => format!(
            "float x_{name} = (float){prefix}{}[sliceOffset(rank, {index})];",
            p.node(*a)?.name()
        ),
        _ if !computed => format!("float x_{name} = (float){prefix}{name}[{index}];"),
        OpKind::Unary(op, a) => {
            let f = match op {
                UnaryOp::Sqrt => "sqrtf",
                UnaryOp::Tanh => "tanhf",
                UnaryOp::Relu => "reluf",
                UnaryOp::Neg => "-",
            };
            format!("float x_{name} = {f}({});", arg(*a)?)
        }
        OpKind::Binary(op, a, b) => match op {
            BinaryOp::Pow => format!("float x_{name} = powf({}, {});", arg(*a)?, arg(*b)?),
            _ => format!(
                "float x_{name} = {} {} {};",
                arg(*a)?,
                op.symbol(),
                arg(*b)?
            ),
        },
        OpKind::Dropout(a, prob) => format!(
            "float x_{name} = coconet_keep(seed, gidx, {prob}f) ? {} * {:.6}f : 0.0f;",
            arg(*a)?,
            1.0 / (1.0 - prob)
        ),
        OpKind::Update(t, x) => format!(
            "float x_{name} = {1}; {prefix}{0}[{index}] = ({2})x_{name};",
            p.node(*t)?.name(),
            arg(*x)?,
            cuda_type(p, *t)?
        ),
        OpKind::Norm(a) => format!(
            "float x_{name} = {reduce}Sum, {0} * {0}); // norm partial",
            arg(*a)?
        ),
        OpKind::ReduceTensor(op, a) => {
            format!("float x_{name} = {reduce}{op:?}, {});", arg(*a)?)
        }
        other => {
            return Err(CoreError::MalformedProgram(format!(
                "cannot emit device expression for {}",
                other.mnemonic()
            )));
        }
    })
}

/// External values a member set loads from device memory.
fn external_loads(p: &Program, members: &[VarId]) -> Result<Vec<VarId>, CoreError> {
    let set: HashSet<VarId> = members.iter().copied().collect();
    let mut loads = Vec::new();
    let mut seen = HashSet::new();
    for &m in members {
        for dep in p.op(m)?.inputs() {
            if set.contains(&dep) || !seen.insert(dep) {
                continue;
            }
            match p.op(dep)? {
                OpKind::ConstScalar(_) => {}
                OpKind::Slice(inner) => {
                    if seen.insert(*inner) {
                        loads.push(dep); // load via slice offset
                    }
                }
                _ => loads.push(dep),
            }
        }
    }
    Ok(loads)
}

/// Members whose value escapes the set (stored to memory).
fn external_stores(p: &Program, members: &[VarId]) -> Result<Vec<VarId>, CoreError> {
    let set: HashSet<VarId> = members.iter().copied().collect();
    let mut stores = Vec::new();
    for &m in members {
        let escapes = p.outputs().contains(&m) || p.consumers(m).iter().any(|c| !set.contains(c));
        if escapes && !matches!(p.op(m)?, OpKind::Update(..)) {
            stores.push(m);
        }
    }
    Ok(stores)
}

/// Pointer declarations for every device tensor a member set touches:
/// each load (a slice through its source), writable when an `Update`
/// targets it, then one `out_` pointer per store.
fn tensor_params(
    p: &Program,
    members: &[VarId],
    loads: &[VarId],
    stores: &[VarId],
) -> Result<Vec<String>, CoreError> {
    let mut targets = HashSet::new();
    for &m in members {
        if let OpKind::Update(t, _) = p.op(m)? {
            targets.insert(*t);
        }
    }
    let mut params = Vec::new();
    for &l in loads {
        let tensor = match p.op(l)? {
            OpKind::Slice(source) => *source,
            _ => l,
        };
        let constness = if targets.contains(&tensor) {
            ""
        } else {
            "const "
        };
        params.push(format!(
            "{constness}{}* {}",
            cuda_type(p, tensor)?,
            p.node(tensor)?.name()
        ));
    }
    for &s in stores {
        params.push(format!("{}* out_{}", cuda_type(p, s)?, p.node(s)?.name()));
    }
    Ok(params)
}

/// The straight-line body of a kernel: every external load, then the
/// members in topological order.
fn compute_body(
    p: &Program,
    loads: &[VarId],
    members: &[VarId],
    mem: Mem,
    indent: &str,
) -> Result<String, CoreError> {
    let mut body = String::new();
    let order = p.topo_order();
    let loaded = loads.iter().map(|&l| (l, false));
    let computed = order.iter().filter(|v| members.contains(v));
    for (v, computed) in loaded.chain(computed.map(|&m| (m, true))) {
        if matches!(p.op(v)?, OpKind::ConstScalar(_)) {
            continue;
        }
        let _ = writeln!(body, "{indent}{}", op_expression(p, v, mem, computed)?);
    }
    Ok(body)
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
    members: &[VarId],
    idx: usize,
) -> Result<UnitCode, CoreError> {
    let kernel_name = format!("fused_compute_{idx}");
    let mem = Mem {
        prefix: "",
        index: "idx",
        reduce: "blockReduce(",
    };
    let loads = external_loads(p, members)?;
    let stores = external_stores(p, members)?;
    let mut src = String::new();
    let _ = writeln!(src, "// Fused pointwise kernel ({} ops).", members.len());
    let mut params: Vec<String> =
        vec!["size_t n".into(), "int rank".into(), "uint64_t seed".into()];
    params.extend(tensor_params(p, members, &loads, &stores)?);
    let _ = writeln!(
        src,
        "__global__ void {kernel_name}({}) {{",
        params.join(", ")
    );
    let _ = writeln!(
        src,
        "  size_t idx = blockIdx.x * (size_t)blockDim.x + threadIdx.x;"
    );
    let _ = writeln!(src, "  if (idx >= n) return;");
    let _ = writeln!(src, "  size_t gidx = globalOffset(rank, n) + idx;");
    src.push_str(&compute_body(p, &loads, members, mem, "  ")?);
    for &s in &stores {
        let name = p.node(s)?.name();
        let _ = writeln!(src, "  out_{name}[idx] = ({})x_{name};", cuda_type(p, s)?);
    }
    let _ = writeln!(src, "}}");
    let mut calls = vec![format!(
        "{kernel_name}<<<cdiv(n, 256), 256, 0, ctx->stream>>>(/* {} args */);",
        params.len()
    )];
    for m in sliced_reductions(p, members)? {
        calls.push(format!(
            "NCCLCHECK(ncclAllReduce(norm_{0}, norm_{0}, 1, ncclFloat32, ncclSum, ctx->comm, ctx->stream));",
            p.node(m)?.name()
        ));
    }
    Ok(UnitCode {
        kernel: Some((kernel_name, src)),
        calls,
    })
}

/// Emits the ring kernel of a collective unit — a `FusedAllReduce`
/// group (§5.2: ReduceScatter, the fused computation on the owned
/// slice, AllGather) or, as an overlap stage, a plain AllReduce /
/// ReduceScatter / AllGather — plus its host launch.
pub(crate) fn emit_fused_collective(
    p: &Program,
    members: &[VarId],
    idx: usize,
    gate: Option<&Gate>,
) -> Result<UnitCode, CoreError> {
    let mut compute_members = Vec::new();
    let mut reduced = None; // the member whose value the reduce phase produces
    let mut gathered = Vec::new(); // the values the gather phase distributes
    let mut collective = "AllGather";
    for &m in members {
        match p.op(m)? {
            OpKind::ReduceScatter(..) => (reduced, collective) = (Some(m), "ReduceScatter"),
            OpKind::AllReduce(..) => (reduced, collective) = (Some(m), "AllReduce"),
            OpKind::AllGather(x) => gathered.push(*x),
            _ => compute_members.push(m),
        }
    }
    let fused = !compute_members.is_empty();
    let kernel = if fused {
        format!("fusedAllReduce_{idx}")
    } else {
        format!("ring{collective}_{idx}")
    };
    let mut src = String::new();
    let _ = writeln!(
        src,
        "// {kernel} (§5.2): one ring kernel with {} fused ops on the owned",
        compute_members.len()
    );
    let _ = writeln!(src, "// slice, specialized per NCCL protocol.");
    let mut fields = Vec::new();
    match gate {
        Some(g) if g.two_d => fields.push("size_t m, n, ld, chunksPerRow".to_string()),
        Some(_) => {}
        None => {
            let _ = writeln!(src, "#include \"nccl_device_glue.cuh\"");
        }
    }
    if fused {
        let rs = reduced.ok_or_else(|| {
            CoreError::MalformedProgram("fused collective without ReduceScatter".into())
        })?;
        // Tensor reductions (§5.2): each rank reduces its slice, then an
        // embedded scalar AllReduce over the established ring
        // connections combines the partials.
        let mem = Mem {
            prefix: "a->",
            index: "idx + e",
            reduce: "embeddedAllReduce(h, ",
        };
        let mut loads = external_loads(p, &compute_members)?;
        loads.retain(|&l| l != rs); // arrives in the pack, not from memory
        let mut stores = external_stores(p, &compute_members)?;
        stores.retain(|s| !gathered.contains(s)); // leave in the pack
        fields.extend(tensor_params(p, &compute_members, &loads, &stores)?);
        emit_args_struct(&mut src, idx, "RingArgs", gate, &fields);

        // The compute epilogue applied to each rank's owned slice.
        // Mixed precision (§5.2): operands are widened to float on
        // load, results narrowed to the pack's element type.
        let _ = writeln!(src, "template <typename T, typename PackT>");
        let _ = writeln!(
            src,
            "__device__ __forceinline__ void computeEpilogue_{idx}(PackT* pack, Args_{idx}* a, CommHandle* h, size_t idx) {{"
        );
        let _ = writeln!(
            src,
            "  constexpr int kEltsPerPack = sizeof(PackT) / sizeof(T);"
        );
        let _ = writeln!(src, "  const int rank = h->rank;");
        let _ = writeln!(src, "  const uint64_t seed = a->seed;");
        let _ = writeln!(src, "  #pragma unroll");
        let _ = writeln!(src, "  for (int e = 0; e < kEltsPerPack; ++e) {{");
        let _ = writeln!(src, "    size_t gidx = h->gOff + idx + e;");
        let _ = writeln!(
            src,
            "    float x_{} = toFloat(unpack<T>(pack, e));",
            p.node(rs)?.name()
        );
        src.push_str(&compute_body(p, &loads, &compute_members, mem, "    ")?);
        for &s in &stores {
            let name = p.node(s)?.name();
            let _ = writeln!(
                src,
                "    a->out_{name}[idx + e] = ({})x_{name};",
                cuda_type(p, s)?
            );
        }
        for &g in &gathered {
            let name = p.node(g)?.name();
            let _ = writeln!(src, "    repack<T>(pack, e, fromFloat<T>(x_{name}));");
        }
        let _ = writeln!(src, "  }}");
        let _ = writeln!(src, "}}");
    } else {
        emit_args_struct(&mut src, idx, "RingArgs", gate, &fields);
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
    let _ = writeln!(src, "template <typename T>");
    let _ = writeln!(src, "__global__ void {kernel}(Args_{idx} args) {{");
    let _ = writeln!(src, "  CommHandle* h = commHandle(args.comm, blockIdx.x);");
    let _ = writeln!(src, "  switch (args.protocol) {{");
    for proto in ["LL", "LL128", "Simple"] {
        let _ = writeln!(
            src,
            "    case Proto{proto}: run{proto}_{idx}<T>(args, h); break;"
        );
    }
    let _ = writeln!(src, "  }}");
    let _ = writeln!(src, "}}");
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
    let _ = writeln!(src, "template <typename T>");
    let _ = writeln!(
        src,
        "__device__ void run{proto}_{idx}(Args_{idx}& args, CommHandle* h) {{"
    );
    let _ = writeln!(src, "  using PackT = {pack}; // {proto}: {note}");
    let _ = writeln!(src, "  const int nranks = h->nranks;");
    let _ = writeln!(
        src,
        "  ringConnect(h); // advance the flag epoch, wait for peers"
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
    let _ = writeln!(
        src,
        "{ind}for (int step = {first}; step < {last}; ++step) {{"
    );
    let _ = writeln!(
        src,
        "{ind}  int chunk = ringChunk(h->ringPos, step, nranks);"
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
    let _ = writeln!(src, "{ind}  {chunk};");
    let _ = writeln!(
        src,
        "{ind}  for (size_t i = tid(); i < {len}; i += nthreads()) {{"
    );
    let _ = writeln!(src, "{ind}    size_t gi = {index};");
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
    let _ = writeln!(
        src,
        "  ringDrain(h); // make the final stores visible system-wide"
    );
    let _ = writeln!(src, "}}");
}

/// Emits a P2P send kernel — the fused computation applied as data
/// leaves (§4), tile by tile when it is an overlap stage — plus its
/// host launch.
pub(crate) fn emit_fused_send(
    p: &Program,
    members: &[VarId],
    idx: usize,
    gate: Option<&Gate>,
) -> Result<UnitCode, CoreError> {
    let mut compute_members = Vec::new();
    let mut sent = None;
    for &m in members {
        match p.op(m)? {
            OpKind::Send(x, _) => sent = Some(*x),
            _ => compute_members.push(m),
        }
    }
    let sent =
        sent.ok_or_else(|| CoreError::MalformedProgram("Send unit without a Send".into()))?;
    let kernel = format!("fusedSend_{idx}");
    let mem = Mem {
        prefix: "args.",
        index: "idx",
        reduce: "blockReduce(",
    };
    // The Send reads the last fused value, or memory when nothing is fused.
    let loads = external_loads(p, members)?;
    let mut src = String::new();
    let _ = writeln!(
        src,
        "// Fused P2P send (§4): {} ops applied to outgoing data.",
        compute_members.len()
    );
    if gate.is_none() {
        let _ = writeln!(src, "#include \"nccl_device_glue.cuh\"");
    }
    let tensors = tensor_params(p, &compute_members, &loads, &[])?;
    emit_args_struct(&mut src, idx, "SendArgs", gate, &tensors);
    let _ = writeln!(src, "template <typename T>");
    let _ = writeln!(src, "__global__ void {kernel}(Args_{idx} args) {{");
    let _ = writeln!(src, "  CommHandle* h = p2pHandle(args.comm, blockIdx.x);");
    let _ = writeln!(src, "  const int rank = h->rank;");
    let _ = writeln!(src, "  const uint64_t seed = args.seed;");
    let (ind, range) = match gate {
        Some(g) => {
            let ind = g.open(&mut src);
            let _ = writeln!(
                src,
                "{ind}Chunk1D c = chunkAt(args.count, tile, args.cfg.ntiles);"
            );
            (ind, "size_t idx = c.off + tid(); idx < c.off + c.len")
        }
        None => ("  ", "size_t idx = tid(); idx < args.count"),
    };
    let _ = writeln!(src, "{ind}for ({range}; idx += nthreads()) {{");
    let _ = writeln!(src, "{ind}  size_t gidx = args.sliceOff + idx;");
    let body = compute_body(p, &loads, &compute_members, mem, &format!("{ind}  "))?;
    src.push_str(&body);
    let _ = writeln!(
        src,
        "{ind}  sendElement<T>(h, idx, fromFloat<T>(x_{}));",
        p.node(sent)?.name()
    );
    let _ = writeln!(src, "{ind}}}");
    let _ = writeln!(src, "{ind}flushSend(h);");
    if let Some(g) = gate {
        g.close(&mut src);
    }
    let _ = writeln!(src, "}}");
    let calls = vec![comm_launch(&kernel, idx, gate)];
    Ok(UnitCode {
        kernel: Some((kernel, src)),
        calls,
    })
}
