//! The CUDA code generator (§5).
//!
//! CoCoNet's compiler emits, per scheduled program: (i) host calls to
//! collective/cuBLAS libraries for unfused operations, (ii) fused
//! pointwise kernels, (iii) fused-collective kernels specialized for
//! each NCCL protocol (§5.2), and (iv) overlapped CUTLASS GEMM +
//! chunked-collective kernel pipelines with spin-lock synchronization
//! (§5.3).
//!
//! [`generate_cuda`] walks the same unit partition `lower` prices
//! (`lower::partition`) in the same order, so every kernel it prints
//! is a step of the plan and the host file launches them in step
//! order. Every kernel body prints the unit's [`KernelIr`] — the
//! instructions the runtime runs and `lower` prices. An overlap stage
//! is the ordinary unit emitter called with a chunk gate.
//!
//! The text is not compiled (there is no CUDA toolchain in the loop);
//! it documents precisely what each schedule's kernels do, and its
//! line count is Table 3's *schedule-dependent generated lines*: only
//! what the schedule decides is printed. Protocol, transport and
//! reduction primitives are referenced from `nccl_device_glue.cuh` and
//! the GEMM mainloop from `<cutlass/gemm/device/gemm.h>`, not
//! re-emitted per file.

mod device;
mod overlap_gen;

use std::fmt::Write as _;

use crate::kernel::Readers;
use crate::lower::{label_of, not_a_stage, partition, Partition, Scheduled, Unit, UnitKind};
use crate::{CoreError, FuseKind, KernelIr, OpKind, Program, VarId};

use device::{emit_fused_collective, emit_fused_send, emit_pointwise_kernel};
use overlap_gen::{emit_gemm_stage, emit_overlapped, Gate};

/// What one unit — or one overlap group — contributes to the
/// generated code.
pub(crate) struct UnitCode {
    /// `(file stem, device source)`; `None` for a library call.
    pub(crate) kernel: Option<(String, String)>,
    /// The host statements that run the unit, in order.
    pub(crate) calls: Vec<String>,
}

/// Generated CUDA source for a scheduled program.
#[derive(Clone, Debug)]
pub struct GeneratedCode {
    /// `(file name, source text)` pairs.
    pub files: Vec<(String, String)>,
}

impl GeneratedCode {
    /// Total non-empty source lines across all files (Table 3's
    /// "Generated CUDA" column).
    pub fn total_loc(&self) -> usize {
        self.files
            .iter()
            .map(|(_, src)| src.lines().filter(|l| !l.trim().is_empty()).count())
            .sum()
    }

    /// Concatenated source text.
    pub fn source(&self) -> String {
        let mut out = String::new();
        for (name, src) in &self.files {
            let _ = writeln!(out, "// ===== {name} =====");
            out.push_str(src);
            out.push('\n');
        }
        out
    }
}

/// Emits CUDA source for a scheduled program: one file per kernel
/// unit or overlap group, and a host file that runs them in the order
/// of the plan `lower` builds.
///
/// # Errors
///
/// Propagates program validation errors, and returns
/// [`CoreError::InvalidTransform`] when an overlap group contains a
/// stage with no chunked kernel (as `lower` does for plain pointwise
/// kernels).
pub fn generate_cuda(p: &Program) -> Result<GeneratedCode, CoreError> {
    let Partition { units, order } = partition(p)?;
    let readers = Readers::of(p)?;
    let mut files: Vec<(String, String)> = Vec::new();
    let mut host = String::new();
    let _ = writeln!(host, "// Host orchestration for `{}`.", p.name());
    let _ = writeln!(host, "#include \"coconet_runtime.cuh\"");
    let _ = writeln!(
        host,
        "void {}(CoconetContext* ctx, TensorArgs* args) {{",
        p.name()
    );
    let mut overlaps = 0;
    for scheduled in &order {
        let UnitCode { kernel, calls } = match scheduled {
            Scheduled::Unit(u) => emit_unit(p, &readers, &units[*u], *u, None)?,
            Scheduled::Overlap(stages) => {
                overlaps += 1;
                emit_overlapped(p, &readers, &units, stages, overlaps - 1)?
            }
        };
        files.extend(kernel.map(|(name, src)| (format!("{name}.cu"), src)));
        for call in calls {
            let _ = writeln!(host, "  {call}");
        }
    }
    let _ = writeln!(host, "  CUDACHECK(cudaStreamSynchronize(ctx->stream));");
    let _ = writeln!(host, "}}");
    files.push((format!("{}_host.cu", p.name()), host));
    Ok(GeneratedCode { files })
}

/// Emits one unit — `lower_unit`'s mirror: the same `match`, printing
/// the unit's [`KernelIr`] where `lower` prices it. Under a `gate` the
/// unit is an overlap stage and its kernel walks spin-lock-guarded
/// tiles.
pub(crate) fn emit_unit(
    p: &Program,
    readers: &Readers,
    unit: &Unit,
    idx: usize,
    gate: Option<&Gate>,
) -> Result<UnitCode, CoreError> {
    let ir = KernelIr::compile(p, readers, &unit.members)?;
    let members = &unit.members;
    match (&unit.kind, gate) {
        (UnitKind::Single, _) => emit_single(p, &ir, members[0], idx, gate),
        (UnitKind::Fused(FuseKind::Compute), None) => emit_pointwise_kernel(p, &ir, members, idx),
        (UnitKind::Fused(FuseKind::Compute), Some(_)) => Err(not_a_stage(&label_of(p, members))),
        (UnitKind::Fused(FuseKind::AllReduce), _) => {
            emit_fused_collective(p, &ir, members, idx, gate)
        }
        (UnitKind::Fused(FuseKind::Send), _) => emit_fused_send(p, &ir, members, idx, gate),
    }
}

/// Emits an operation no fusion group claims: a library call, a
/// one-op pointwise kernel or — as an overlap stage — a chunked
/// GEMM / ring / send kernel. `ir` is the operation's kernel (empty
/// unless it is pointwise).
fn emit_single(
    p: &Program,
    ir: &KernelIr,
    v: VarId,
    idx: usize,
    gate: Option<&Gate>,
) -> Result<UnitCode, CoreError> {
    let node = p.node(v)?;
    let name = node.name();
    let operand = |x: VarId| p.node(x).map(|n| n.name());
    let library = |calls: Vec<String>| {
        Ok(UnitCode {
            kernel: None,
            calls,
        })
    };
    let nccl = |call: &str, x: VarId, extra: String| {
        library(vec![format!(
            "NCCLCHECK({call}({}, out_{name}, count_{name}, {}{extra}, ctx->comm, ctx->stream));",
            operand(x)?,
            dtype_name(p, v)?
        )])
    };
    match (node.op(), gate) {
        (OpKind::MatMul(a, w), Some(g)) => emit_gemm_stage(p, v, (*a, *w), g),
        (OpKind::AllReduce(..) | OpKind::ReduceScatter(..) | OpKind::AllGather(_), Some(_)) => {
            emit_fused_collective(p, ir, &[v], idx, gate)
        }
        (OpKind::Send(..), Some(_)) => emit_fused_send(p, ir, &[v], idx, gate),
        (_, Some(_)) => Err(not_a_stage(name)),
        (OpKind::MatMul(a, w), None) => library(vec![format!(
            "CUBLASCHECK(cublasGemmEx(ctx->cublas, {}, {}, out_{name}));",
            operand(*a)?,
            operand(*w)?
        )]),
        (OpKind::Conv2d(a, w, params), None) => library(vec![format!(
            "CUDNNCHECK(cudnnConvolutionForward(ctx->cudnn, {}, {}, /*stride=*/{}, /*pad=*/{}, out_{name}));",
            operand(*a)?,
            operand(*w)?,
            params.stride,
            params.padding
        )]),
        (OpKind::AllReduce(op, x), None) => nccl("ncclAllReduce", *x, format!(", ncclOp({op:?})")),
        (OpKind::ReduceScatter(op, x), None) => {
            nccl("ncclReduceScatter", *x, format!(", ncclOp({op:?})"))
        }
        (OpKind::AllGather(x), None) => nccl("ncclAllGather", *x, String::new()),
        (OpKind::Broadcast(x, root), None) => nccl("ncclBroadcast", *x, format!(", {root}")),
        (OpKind::Reduce(op, x, root), None) => {
            nccl("ncclReduce", *x, format!(", ncclOp({op:?}), {root}"))
        }
        (OpKind::Send(x, _), None) => {
            let dtype = dtype_name(p, v)?;
            library(vec![
                format!(
                    "NCCLCHECK(ncclSend({}, count_{name}, {dtype}, peerRank(ctx), ctx->comm, ctx->stream));",
                    operand(*x)?
                ),
                format!(
                    "NCCLCHECK(ncclRecv(out_{name}, count_{name}, {dtype}, prevPeerRank(ctx), ctx->comm, ctx->stream));"
                ),
            ])
        }
        (_, None) => emit_pointwise_kernel(p, ir, &[v], idx),
    }
}

pub(crate) fn dtype_name(p: &Program, v: VarId) -> Result<&'static str, CoreError> {
    Ok(match p.ty(v)?.dtype {
        crate::DType::F16 => "ncclFloat16",
        crate::DType::F32 => "ncclFloat32",
    })
}

pub(crate) fn cuda_type(p: &Program, v: VarId) -> Result<&'static str, CoreError> {
    Ok(match p.ty(v)?.dtype {
        crate::DType::F16 => "half",
        crate::DType::F32 => "float",
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::xform::{fuse_all_reduce, overlap, reorder_all_gather, split_all_reduce};
    use crate::{DType, Layout, ReduceOp};

    /// Checks that `{` and `}` balance in a source string (structural
    /// sanity of generated code).
    fn braces_balanced(src: &str) -> bool {
        let mut depth: i64 = 0;
        for c in src.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth < 0 {
                        return false;
                    }
                }
                _ => {}
            }
        }
        depth == 0
    }

    fn figure3() -> (Program, Vec<VarId>) {
        let mut p = Program::new("self_attention");
        let w = p.input("w", DType::F16, ["H", "H"], Layout::sliced(0));
        let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
        let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
        let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
        let layer = p.matmul(input, w).unwrap();
        p.set_name(layer, "layer").unwrap();
        let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
        p.set_name(sum, "sum").unwrap();
        let biased = p.add(sum, b).unwrap();
        let d = p.dropout(biased, 0.1).unwrap();
        let out = p.add(d, r).unwrap();
        p.set_io(&[w, input, b, r], &[out]).unwrap();
        (p, vec![layer, sum, biased, d, out])
    }

    /// Figure 3 with `fuse(RS-C-AG)` applied; returns `layer` and the
    /// ReduceScatter for a following `overlap`.
    fn figure3_fused() -> (Program, VarId, VarId) {
        let (mut p, vars) = figure3();
        let (layer, sum, biased, d, out) = (vars[0], vars[1], vars[2], vars[3], vars[4]);
        let (rs, ag) = split_all_reduce(&mut p, sum).unwrap();
        let result = reorder_all_gather(&mut p, ag, &[biased, d, out]).unwrap();
        let new_ag = result.gathers[0].1;
        fuse_all_reduce(&mut p, rs, &result.sliced, &[new_ag]).unwrap();
        (p, layer, rs)
    }

    #[test]
    fn baseline_generates_host_calls_and_small_kernels() {
        let (p, _) = figure3();
        let code = generate_cuda(&p).unwrap();
        let src = code.source();
        assert!(src.contains("cublasGemmEx"));
        assert!(src.contains("ncclAllReduce"));
        assert!(braces_balanced(&src), "unbalanced braces:\n{src}");
        // Baseline: small glue + three pointwise kernels.
        let loc = code.total_loc();
        assert!((20..200).contains(&loc), "loc = {loc}");
    }

    #[test]
    fn overlap_generates_more_than_fused_more_than_unfused() {
        let (p_base, _) = figure3();
        let base = generate_cuda(&p_base).unwrap();

        let (p, _, _) = figure3_fused();
        let fused = generate_cuda(&p).unwrap();
        let src = fused.source();
        // The fused collective specializes all three protocols (§5.2)
        // around the fused computation.
        for needle in ["ProtoLL:", "ProtoLL128:", "ProtoSimple:", "coconet_keep("] {
            assert!(src.contains(needle), "fused code lacks `{needle}`");
        }
        assert!(braces_balanced(&src));

        let (mut p, layer, rs) = figure3_fused();
        overlap(&mut p, &[layer, rs]).unwrap();
        let overlapped = generate_cuda(&p).unwrap();
        let src = overlapped.source();
        assert!(braces_balanced(&src), "unbalanced braces");
        // §5.3: a CUTLASS GEMM publishing chunks through the spin-lock
        // the *same* fused collective waits on, per protocol.
        for needle in [
            "cutlass::gemm::device::Gemm",
            "spin_wait(&args.cfg.chunkReady[tile], 1)",
            "spin_post(&cfg.chunkDone[chunk])",
            "spin_post(&args.cfg.chunkDone[tile])",
            "case ProtoLL:",
            "case ProtoLL128:",
            "case ProtoSimple:",
            "coconet_keep(",
            "computeEpilogue_",
        ] {
            assert!(src.contains(needle), "overlapped code lacks `{needle}`");
        }
        let (base, fused, overlapped) =
            (base.total_loc(), fused.total_loc(), overlapped.total_loc());
        assert!(
            overlapped > fused && fused > base,
            "expected overlap {overlapped} > fused {fused} > unfused {base}"
        );
    }

    #[test]
    fn unfused_overlap_stages_get_gated_ring_kernels() {
        // overlap(MM, AR) without fusion: the AllReduce stage is the
        // ring kernel with a gate and no epilogue; the pointwise ops
        // outside the group still get their kernels, after it.
        let (mut p, vars) = figure3();
        overlap(&mut p, &[vars[0], vars[1]]).unwrap();
        let code = generate_cuda(&p).unwrap();
        let src = code.source();
        assert!(src.contains("ringAllReduce_"));
        assert!(!src.contains("computeEpilogue_"));
        assert!(braces_balanced(&src));
        let host = &code.files.last().unwrap().1;
        let launch = host.find("launchOverlapped_0").unwrap();
        let kernel = host.find("fused_compute_").unwrap();
        assert!(launch < kernel, "host order:\n{host}");

        // A raw pointwise op cannot be a stage, as in `lower`.
        let (mut p, vars) = figure3();
        overlap(&mut p, &[vars[1], vars[2]]).unwrap();
        assert!(matches!(
            generate_cuda(&p),
            Err(CoreError::InvalidTransform { .. })
        ));
    }

    #[test]
    fn generation_is_deterministic() {
        let (mut p, layer, rs) = figure3_fused();
        overlap(&mut p, &[layer, rs]).unwrap();
        let a = generate_cuda(&p).unwrap().source();
        let b = generate_cuda(&p).unwrap().source();
        assert_eq!(a, b);
    }

    #[test]
    fn braces_checker() {
        assert!(braces_balanced("int f() { if (x) { } }"));
        assert!(!braces_balanced("{ {"));
        assert!(!braces_balanced("} {"));
    }
}
