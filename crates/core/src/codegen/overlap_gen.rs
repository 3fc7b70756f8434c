//! Emission of overlap groups (§5.3): the pipeline file every stage's
//! kernel is printed into.
//!
//! A stage is an ordinary unit — the GEMM, a (fused) ring collective,
//! a (fused) send — emitted by the ordinary unit emitter with a
//! [`Gate`]: its kernel walks buffer tiles, spin-waits on the flags
//! the previous stage posts and posts its own. This module prints what
//! only an overlap group has: the configuration struct, the spin-lock,
//! the 2-D chunk iterators, the GEMM epilogue that publishes 2-D chunks in
//! ring order, and the host orchestration that launches each stage
//! exactly once on its own stream.

use std::fmt::Write as _;

use crate::kernel::Readers;
use crate::lower::{label_of, Unit, UnitKind};
use crate::{CoreError, OpKind, Program, VarId};

use super::{cuda_type, emit_unit, UnitCode};

/// The chunk gate an overlap group puts on a stage's kernel (§5.3).
pub(crate) struct Gate {
    /// Overlap group index: names `OverlapConfig_{og}`.
    pub(crate) og: usize,
    /// Position in the pipeline; stage 0 has no producer to wait for.
    pub(crate) stage: usize,
    /// Whether tiles are 2-D chunks of a GEMM output (a MatMul is one
    /// of the stages) rather than 1-D ranges.
    pub(crate) two_d: bool,
}

impl Gate {
    /// Opens the per-tile loop of a gated kernel — waiting, past stage
    /// 0, until the producer publishes the tile — and returns the
    /// indentation of its body.
    pub(crate) fn open(&self, src: &mut String) -> &'static str {
        let _ = writeln!(
            src,
            "  for (int tile = 0; tile < args.cfg.ntiles; ++tile) {{"
        );
        if self.stage > 0 {
            let _ = writeln!(
                src,
                "    // Wake as soon as the producer publishes this tile (T=2..6 in Fig. 9)."
            );
            let _ = writeln!(src, "    spin_wait(&args.cfg.chunkReady[tile], 1);");
        }
        "    "
    }

    /// Posts the tile to the next stage and closes the loop.
    pub(crate) fn close(&self, src: &mut String) {
        let _ = writeln!(
            src,
            "    spin_post(&args.cfg.chunkDone[tile]); // let the next stage advance"
        );
        let _ = writeln!(src, "  }}");
    }
}

/// Emits the pipeline file of one overlap group: every stage unit
/// through [`emit_unit`] with its gate, then the orchestration that
/// launches them.
pub(crate) fn emit_overlapped(
    p: &Program,
    readers: &Readers,
    units: &[Unit],
    stages: &[usize],
    og: usize,
) -> Result<UnitCode, CoreError> {
    let two_d = stages.iter().any(|&u| {
        units[u].kind == UnitKind::Single
            && matches!(p.op(units[u].members[0]), Ok(OpKind::MatMul(..)))
    });
    let labels: Vec<String> = stages
        .iter()
        .map(|&u| label_of(p, &units[u].members))
        .collect();
    let mut src = String::new();
    emit_header(&mut src, &labels, og, two_d);
    emit_spinlock(&mut src);
    if two_d {
        emit_chunk_iterators(&mut src);
    }
    let mut launches = Vec::new();
    for (stage, (&u, label)) in stages.iter().zip(&labels).enumerate() {
        let gate = Gate { og, stage, two_d };
        let UnitCode { kernel, calls } = emit_unit(p, readers, &units[u], u, Some(&gate))?;
        let _ = writeln!(src, "// ---- stage {stage}: {label}");
        if let Some((_, body)) = kernel {
            src.push_str(&body);
        }
        launches.push(calls);
    }
    emit_host_orchestration(&mut src, og, &launches);
    let call = format!("launchOverlapped_{og}(ctx, args); // one launch per stage (§5.3)");
    Ok(UnitCode {
        kernel: Some((format!("overlapped_{og}"), src)),
        calls: vec![call],
    })
}

fn emit_header(src: &mut String, labels: &[String], og: usize, two_d: bool) {
    let (gemm, tiles) = match two_d {
        true => (
            "#include <cutlass/gemm/device/gemm.h>\n",
            "  size_t chunkRows, chunkCols, tilesPerChunk;\n",
        ),
        false => ("", ""),
    };
    let _ = write!(
        src,
        "// Overlapped pipeline {og}: {}.
// Buffer tiles stream between the stage kernels through spin-locks (§5.3).
{gemm}#include \"nccl_device_glue.cuh\"
namespace coconet {{
struct OverlapConfig_{og} {{
  int ntiles;
{tiles}  volatile int* chunkReady; // spin-lock buffer the producer stage posts
  volatile int* chunkDone;  // spin-lock buffer this stage posts
}};
",
        labels.join(" -> ")
    );
}

fn emit_spinlock(src: &mut String) {
    src.push_str(
        "// Fine-grained spin-lock on a memory buffer (§5.3): the
// collective wakes as soon as the producer publishes a chunk.
__device__ __forceinline__ void spin_wait(volatile int* flag, int expect) {
  if (threadIdx.x == 0) {
    while (atomicAdd((int*)flag, 0) < expect) {
      __nanosleep(64);
    }
  }
  __syncthreads();
}
__device__ __forceinline__ void spin_post(volatile int* flag) {
  __threadfence_system();
  if (threadIdx.x == 0) atomicAdd((int*)flag, 1);
}
",
    );
}

/// 2-D chunk iterators: NCCL communicates 1-D ranges (`chunkAt` in the
/// glue header); an AllReduce overlapped with a GEMM works on 2-D
/// chunks of its output so the GEMM tile sizes stay tunable (§5.3).
fn emit_chunk_iterators(src: &mut String) {
    src.push_str(
        "// 2-D chunk iterators: the collective walks chunks of the GEMM output,
// so GEMM tile sizes stay tunable (§5.3).
struct Chunk2D { size_t row; size_t col; size_t rows; size_t cols; size_t ld; };
static __device__ Chunk2D chunk2DAt(size_t m, size_t n, size_t ld, int chunk, int chunksPerRow) {
  size_t cr = chunk / chunksPerRow;
  size_t cc = chunk % chunksPerRow;
  Chunk2D c;
  c.row = cr * CHUNK_ROWS; c.col = cc * CHUNK_COLS;
  c.rows = min((size_t)CHUNK_ROWS, m - c.row);
  c.cols = min((size_t)CHUNK_COLS, n - c.col);
  c.ld = ld;
  return c;
}
static __device__ __forceinline__ size_t chunk2DIndex(const Chunk2D& c, size_t i) {
  return (c.row + i / c.cols) * c.ld + c.col + (i % c.cols);
}
",
    );
}

/// Emits the MatMul stage of an overlap group: the CUTLASS GEMM the
/// file `#include`s, instantiated with an epilogue that counts tile
/// completions per chunk and publishes each finished chunk, and the
/// threadblock swizzle that walks tiles in the order the local rank's
/// ring sends chunks (Figure 9).
pub(crate) fn emit_gemm_stage(
    p: &Program,
    v: VarId,
    (a, w): (VarId, VarId),
    gate: &Gate,
) -> Result<UnitCode, CoreError> {
    let Gate { og, stage, .. } = *gate;
    let ty = cuda_type(p, v)?;
    let name = p.node(v)?.name();
    let src = format!(
        "// Chunk-ordered GEMM `{name}`: once CUTLASS's epilogue has stored a tile,
// count tile completions per chunk and publish the chunk when all are in.
template <typename Epilogue>
struct ChunkOrderedEpilogue_{og} : Epilogue {{
  OverlapConfig_{og} cfg;
  int* tileCounters;
  template <typename... Tile>
  __device__ void operator()(int tileRow, int tileCol, Tile&&... tile) {{
    Epilogue::operator()(tile...);
    __threadfence();
    int chunk = tileToChunk(tileRow, tileCol, cfg.chunkRows, cfg.chunkCols);
    if (threadIdx.x == 0) {{
      int done = atomicAdd(&tileCounters[chunk], 1) + 1;
      if (done == (int)cfg.tilesPerChunk) {{
        spin_post(&cfg.chunkDone[chunk]); // wake the next stage (T=2 in Fig. 9)
      }}
    }}
  }}
}};
// Threadblock tiles stay template arguments so they can be tuned (§5.3);
// the swizzle walks them in the order rank r's ring sends chunks (r, r-1, ...).
using GemmChunkOrdered_{og} = cutlass::gemm::device::Gemm<
    {ty}, cutlass::layout::RowMajor, {ty}, cutlass::layout::RowMajor, {ty}, cutlass::layout::RowMajor,
    float, cutlass::arch::OpClassTensorOp, cutlass::arch::Sm70, GemmTile, WarpTile, InstructionTile,
    ChunkOrderedEpilogue_{og}<cutlass::epilogue::thread::LinearCombination<{ty}, 8, float, float>>,
    RingOrderSwizzle>;
"
    );
    let call = format!(
        "CUTLASSCHECK(GemmChunkOrdered_{og}()(gemmArguments(args, {}, {}, out_{name}, cfg), nullptr, ctx->streams[{stage}]));",
        p.node(a)?.name(),
        p.node(w)?.name()
    );
    Ok(UnitCode {
        kernel: Some((format!("gemmChunkOrdered_{og}"), src)),
        calls: vec![call],
    })
}

/// Host orchestration: the spin-lock buffers are cleared up front
/// (§5.5), then every stage launches exactly once on its own stream,
/// its `chunkReady` wired to the previous stage's `chunkDone`.
fn emit_host_orchestration(src: &mut String, og: usize, launches: &[Vec<String>]) {
    let stages = launches.len();
    let _ = write!(
        src,
        "// Host orchestration: every stage launches exactly once on its own
// stream; the spin-lock buffers are cleared up front (§5.5).
void launchOverlapped_{og}(CoconetContext* ctx, TensorArgs* args) {{
  OverlapConfig_{og} cfg = makeConfig_{og}(ctx);
  volatile int* flags = stageFlags(ctx, /*stages=*/{stages}, cfg.ntiles);
  CUDACHECK(cudaMemsetAsync((void*)flags, 0, sizeof(int) * {stages} * cfg.ntiles, ctx->stream));
  CUDACHECK(cudaStreamSynchronize(ctx->stream));
"
    );
    for (stage, calls) in launches.iter().enumerate() {
        let ready = match stage {
            0 => "nullptr".to_string(),
            s => format!("flags + {} * cfg.ntiles", s - 1),
        };
        let _ = writeln!(src, "  cfg.chunkReady = {ready};");
        let _ = writeln!(src, "  cfg.chunkDone = flags + {stage} * cfg.ntiles;");
        for call in calls {
            let _ = writeln!(src, "  {call}");
        }
    }
    let _ = write!(
        src,
        "  for (int s = 0; s < {stages}; ++s) {{
    CUDACHECK(cudaStreamSynchronize(ctx->streams[s]));
  }}
}}
}} // namespace coconet
"
    );
}
