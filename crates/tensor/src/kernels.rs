//! Monomorphized, threshold-gated parallel inner-loop kernels.
//!
//! The collectives' hot loops — ring `reduce_assign`, F16 wire
//! encode/decode, the one-pass FP16 hop, Q15.16 quantize and the
//! switch's integer fold — all reduce to tight per-element transforms.
//! Before this module they ran through per-element [`ReduceOp::apply`]
//! enum dispatch (or worse, virtual `Tensor::get` indexing); here each
//! `ReduceOp` gets its own monomorphic inner loop over plain slices
//! that the compiler can auto-vectorize, and work above
//! [`PAR_THRESHOLD`] elements fans out across a shared persistent
//! worker pool built on the vendored crossbeam MPMC channel. Small
//! tensors stay on the single-threaded path so latency-sensitive
//! chunks never pay pool overhead.
//!
//! How far a kernel fans out is a property of the calling thread, its
//! *width*. A thread outside any world uses the whole pool; a world's
//! rank thread is one of `ranks` threads sharing the machine and runs
//! at `max(1, cores / ranks)` ([`share_cores`]), so when ranks cover
//! the cores every kernel runs on its rank's own thread, as each rank
//! of the paper owns its GPU. Pool workers run at width 1, so a nested
//! kernel stays inline. The pool starts on the first kernel that fans
//! out: a process whose ranks cover its cores never spawns a worker.
//! Each task gets its own window of every output, split off the slice
//! in safe code.
//!
//! Every loop here is a named `#[inline(always)]` body that each pool
//! task runs at the CPU's vector tier: the crate's private `simd`
//! module detects AVX2 and F16C once and, where they are present, runs
//! the body inlined into a frame compiled for both, eight `f32` lanes
//! wide instead of baseline SSE2's four. No option, variable or build
//! flag selects the tier. The element-wise bodies serve [`par_map`]
//! (the Q15.16 codec), [`zip_assign`] and the `f32` reductions. The F16
//! bodies — [`f16_encode`], [`f16_decode`], [`round_f16`], the FP16
//! hop [`fold_f16_wire`] / [`fold_f16_wire_encode`] and the F16 folds
//! [`reduce_f16`] / [`reduce_f16_out`] — walk 256-element
//! chunks: widen the halves into stack scratch, run the `f32` loop
//! there, narrow the result. The widen and narrow run one `vcvtph2ps` /
//! `vcvtps2ph` per eight lanes at the AVX2 tier and a loop of the
//! straight-line [`F16::to_f32`] / [`F16::from_f32`] at the base tier,
//! the same bits either way. On the FP16 wire a ring or tree hop's
//! decode, fold and re-encode are one such kernel, with no widened copy
//! of the incoming payload beyond a chunk.
//!
//! Every parallel kernel is bit-identical to its serial counterpart,
//! and every tier to the base one: ranges partition the index space
//! and each element sees exactly the same sequence of `f32`
//! operations, so callers (and the striped collectives built on top)
//! can treat parallelism and width as pure work-savers. (Rust leaves
//! open only which payload an operation on two NaNs returns.)

use crate::ops::ReduceOp;
use crate::simd::{self, Tier};
use crate::F16;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Element count at or above which kernels consider the worker pool.
/// Below it every kernel runs inline on the calling thread.
pub const PAR_THRESHOLD: usize = 1 << 16;

/// Smallest per-task range a parallel kernel will hand to the pool —
/// keeps per-task dispatch overhead well under the work it amortizes.
pub const PAR_MIN_CHUNK: usize = 1 << 14;

/// The F16 folds, the FP16 hop and `RoundF16` stage this many elements
/// of `f32` (or half) scratch on the stack per chunk: widen the chunk,
/// run the `f32` loop over it, narrow it back, each pass in L1. Staging
/// also keeps the combine an `f32` loop: on two widened halves in one
/// expression, LLVM narrows `min` / `max` to a half-precision operation,
/// which x86 without AVX-512 FP16 runs as a scalar library call per
/// lane.
const F16_CHUNK: usize = 256;

type Job = Box<dyn FnOnce() + Send + 'static>;

static POOL: OnceLock<crossbeam::channel::Sender<Job>> = OnceLock::new();

thread_local! {
    /// How many threads this thread's kernels may fan out across, its
    /// own included: the whole pool until [`share_cores`] sets a rank
    /// thread's share, and 1 in pool workers, so nested kernels run
    /// inline instead of deadlocking on their own queue.
    static WIDTH: Cell<usize> = Cell::new(pool_width());
}

/// The cores this process may run on, read once.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

/// The pool's job queue. Its workers start on the first call: the
/// first kernel that actually fans out.
fn pool() -> &'static crossbeam::channel::Sender<Job> {
    POOL.get_or_init(|| {
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..pool_width() - 1 {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("coconet-kernel-{i}"))
                .spawn(move || {
                    WIDTH.with(|w| w.set(1));
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn kernel pool worker");
        }
        tx
    })
}

/// Number of threads the kernel pool can bring to bear on one call
/// (spawned workers plus the calling thread). The caller always runs
/// one share inline, so the pool holds one worker fewer than the
/// machine has cores — at least one, so the dispatch path is exercised
/// even on a single core. Reading it does not start the pool.
#[must_use]
pub fn pool_width() -> usize {
    cores().max(2)
}

/// Makes the calling thread one of `ranks` threads that share this
/// machine's cores: its kernels fan out across at most
/// `max(1, cores / ranks)` threads, itself included. A world calls it
/// on every rank thread; a thread that never does uses the whole pool.
pub fn share_cores(ranks: usize) {
    WIDTH.with(|w| w.set((cores() / ranks.max(1)).max(1)));
}

/// Opens a fanned-out kernel's trace span and counts its elements.
fn record(len: usize) -> coconet_trace::Span {
    coconet_trace::metrics::add_counter(coconet_trace::metrics::Counter::KernelElems, len as u64);
    coconet_trace::span(
        coconet_trace::EventKind::Kernel,
        "parallel_for",
        len as u64,
        0,
    )
}

/// How many parts a kernel over `len` elements splits into on this
/// thread: at most its width (see [`share_cores`]), each part at least
/// `min_chunk` long. One part or none means one inline call.
fn parts(len: usize, min_chunk: usize) -> usize {
    WIDTH
        .with(Cell::get)
        .min(pool_width())
        .min(len / min_chunk.max(1))
}

/// Part `i` of `0..len` cut into `parts` contiguous ranges, the first
/// `len % parts` of them one longer: the one partition every fanned-out
/// kernel uses.
fn part(len: usize, parts: usize, i: usize) -> Range<usize> {
    let (base, rem) = (len / parts, len % parts);
    let start = i * base + i.min(rem);
    start..start + base + usize::from(i < rem)
}

/// Runs `task(i, part(len, parts, i))` for every part: all but the last
/// on the pool, the last on the calling thread. A task's panic is
/// re-raised on the calling thread once every sibling has finished.
fn fan_out(len: usize, parts: usize, task: &(dyn Fn(usize, Range<usize>) + Sync)) {
    // SAFETY: the borrow of `task` is erased to 'static so boxed jobs
    // can enter the pool queue; this call blocks on the completion
    // channel below until every task has run, so `task` outlives all
    // uses.
    let task: &'static (dyn Fn(usize, Range<usize>) + Sync) = unsafe { std::mem::transmute(task) };

    let (done_tx, done_rx) = crossbeam::channel::unbounded();
    for i in 0..parts - 1 {
        let range = part(len, parts, i);
        let tx = done_tx.clone();
        let job: Job = Box::new(move || {
            let outcome = {
                // Closed before the completion is sent, so the caller
                // never returns ahead of its workers' events.
                let _job_span = coconet_trace::span(
                    coconet_trace::EventKind::Kernel,
                    "pool_job",
                    range.len() as u64,
                    i as u64,
                );
                catch_unwind(AssertUnwindSafe(|| task(i, range)))
            };
            // Receiver outlives all tasks; a send failure means the
            // caller already panicked and unwound past the recv loop.
            let _ = tx.send(outcome);
        });
        pool().send(job).expect("kernel pool workers alive");
    }
    drop(done_tx);

    let last = parts - 1;
    let caller_outcome = catch_unwind(AssertUnwindSafe(|| task(last, part(len, parts, last))));
    let mut payload_hold: Option<Box<dyn std::any::Any + Send>> = None;
    for _ in 0..last {
        if let Err(payload) = done_rx.recv().expect("kernel task reports completion") {
            payload_hold = Some(payload);
        }
    }
    if let Err(payload) = caller_outcome {
        resume_unwind(payload);
    }
    if let Some(payload) = payload_hold {
        resume_unwind(payload);
    }
}

/// Runs `f` over a partition of `0..len` into contiguous ranges, using
/// the shared worker pool when the range is worth splitting (and the
/// calling thread for one share of the work): at most the calling
/// thread's width of parts (see [`share_cores`]), each at least
/// `min_chunk` long. Falls back to a single inline call at width 1 —
/// inside a pool worker (no nested dispatch) or on a rank thread that
/// owns one core — or when `len < 2 * min_chunk`.
///
/// Tasks that panic re-raise the panic on the calling thread after all
/// sibling tasks have finished.
pub fn parallel_for<F>(len: usize, min_chunk: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    if len == 0 {
        return;
    }
    let _dispatch = record(len);
    match parts(len, min_chunk) {
        0 | 1 => f(0..len),
        parts => fan_out(len, parts, &|_, r| f(r)),
    }
}

/// [`parallel_for`] for a kernel that writes several outputs: every
/// task gets its range of `0..len` and that same window of each output
/// in `outs`, so a multi-output kernel (the runtime's block evaluator
/// stores every escaping member of a fusion group) writes without
/// sharing. The windows are split off each output with `split_at_mut`
/// and reach their one task through its own `Mutex` slot, locked once.
/// Inline below [`PAR_THRESHOLD`] like every kernel here.
///
/// # Panics
///
/// Panics when an output's length is not `len`.
pub fn parallel_for_outputs<U, F>(len: usize, outs: &mut [&mut [U]], f: F)
where
    U: Send,
    F: Fn(Range<usize>, &mut [&mut [U]]) + Sync,
{
    for out in outs.iter() {
        assert_eq!(out.len(), len, "kernel output length mismatch");
    }
    if len < PAR_THRESHOLD {
        return f(0..len, outs);
    }
    let _dispatch = record(len);
    let parts = parts(len, PAR_MIN_CHUNK);
    if parts <= 1 {
        return f(0..len, outs);
    }
    let mut windows: Vec<Vec<&mut [U]>> =
        (0..parts).map(|_| Vec::with_capacity(outs.len())).collect();
    for out in outs.iter_mut() {
        let mut rest: &mut [U] = out;
        for (i, w) in windows.iter_mut().enumerate() {
            let (window, tail) = std::mem::take(&mut rest).split_at_mut(part(len, parts, i).len());
            w.push(window);
            rest = tail;
        }
    }
    // Each slot is locked once, so no earlier panic can have poisoned
    // it; a poisoned guard would still hold the windows.
    let slots: Vec<Mutex<Vec<&mut [U]>>> = windows.into_iter().map(Mutex::new).collect();
    fan_out(len, parts, &|i, r| {
        f(
            r,
            &mut slots[i].lock().unwrap_or_else(PoisonError::into_inner),
        );
    });
}

/// Runs `f(range, window)` over `dst` cut into disjoint windows, each
/// with its range of indices: one inline call below
/// [`PAR_THRESHOLD`], a partition across the pool above it.
fn par_windows<U: Send>(dst: &mut [U], f: impl Fn(Range<usize>, &mut [U]) + Sync) {
    parallel_for_outputs(dst.len(), &mut [dst], |r, w| f(r, w[0]));
}

/// Binds `$f` to `$op`'s `f32` combine — `a + b`, `f32::min` or
/// `f32::max` — and evaluates `$body` once per arm, so every operator
/// gets its own monomorphic loop with the match hoisted out of it.
macro_rules! with_f32_op {
    ($op:expr, $f:ident => $body:expr) => {
        match $op {
            ReduceOp::Sum => {
                let $f = |a: f32, b: f32| a + b;
                $body
            }
            ReduceOp::Min => {
                let $f = f32::min;
                $body
            }
            ReduceOp::Max => {
                let $f = f32::max;
                $body
            }
        }
    };
}

/// The codec body, `dst[i] = f(&src[i])`, over equal-length slices.
#[inline(always)]
fn map_body<T, U>(src: &[T], dst: &mut [U], f: &impl Fn(&T) -> U) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d = f(s);
    }
}

/// The in-place fold body, `acc[i] = f(acc[i], inc[i])`, over
/// equal-length slices.
#[inline(always)]
fn assign_body<T: Copy>(acc: &mut [T], inc: &[T], f: &impl Fn(T, T) -> T) {
    for (a, &b) in acc.iter_mut().zip(inc) {
        *a = f(*a, b);
    }
}

/// The out-of-place fold body, `dst[i] = f(a[i], b[i])`, over
/// equal-length slices.
#[inline(always)]
fn zip_body<A: Copy, B: Copy, U>(a: &[A], b: &[B], dst: &mut [U], f: &impl Fn(A, B) -> U) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = f(x, y);
    }
}

/// Serial monomorphic `acc[i] = op(acc[i], inc[i])` over `f32` slices,
/// the operator match hoisted out of the loop, at the CPU's vector
/// tier.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32_serial(acc: &mut [f32], inc: &[f32], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    with_f32_op!(op, f => simd::dispatch!(assign_body(acc, inc, &f)));
}

/// [`reduce_f32_serial`] fanned out over the worker pool above
/// [`PAR_THRESHOLD`] elements; bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32(acc: &mut [f32], inc: &[f32], op: ReduceOp) {
    with_f32_op!(op, f => zip_assign(acc, inc, f));
}

/// Elementwise in-place fold `acc[i] = f(acc[i], inc[i])` at the CPU's
/// vector tier, fanned out over the pool above [`PAR_THRESHOLD`] — the
/// shape of every in-place reduction, such as the switch's integer
/// fold. `f` must be pure per element.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn zip_assign<T, F>(acc: &mut [T], inc: &[T], f: F)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    par_windows(acc, |r, a| simd::dispatch!(assign_body(a, &inc[r], &f)));
}

/// Out-of-place monomorphic reduce `dst[i] = op(a[i], b[i])` over
/// `f32` slices — the fused fold-into-fresh-stripe kernel of the
/// striped collectives (one write instead of fold-in-place plus a
/// later send copy) — at the CPU's vector tier. Parallel above
/// [`PAR_THRESHOLD`]; per element it applies exactly `op.apply(a, b)`,
/// so results are bit-identical to an in-place fold of `b` into a copy
/// of `a`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32_out(a: &[f32], b: &[f32], dst: &mut [f32], op: ReduceOp) {
    assert_eq!(a.len(), b.len(), "reduce kernel length mismatch");
    assert_eq!(a.len(), dst.len(), "reduce kernel length mismatch");
    with_f32_op!(op, f => par_windows(dst, |r, d| {
        simd::dispatch!(zip_body(&a[r.clone()], &b[r], d, &f));
    }));
}

/// The F16 fold body, `dst[i] = F16(f(a[i] as f32, b[i] as f32))`:
/// out of place, or in place when `a` is `None` and `dst` is the left
/// operand. Each [`F16_CHUNK`] of both operands is widened into stack
/// scratch, folded there by the `f32` loop, and narrowed back.
#[inline(always)]
fn reduce_f16_body(
    t: Tier,
    dst: &mut [F16],
    a: Option<&[F16]>,
    b: &[F16],
    f: &impl Fn(f32, f32) -> f32,
) {
    let (mut wa, mut wb) = ([0.0f32; F16_CHUNK], [0.0f32; F16_CHUNK]);
    for (k, (d, b)) in dst
        .chunks_mut(F16_CHUNK)
        .zip(b.chunks(F16_CHUNK))
        .enumerate()
    {
        let (wa, wb) = (&mut wa[..d.len()], &mut wb[..d.len()]);
        simd::widen(t, a.map_or(&*d, |a| &a[k * F16_CHUNK..][..d.len()]), wa);
        simd::widen(t, b, wb);
        assign_body(wa, wb, f);
        simd::narrow(t, wa, d);
    }
}

/// Out-of-place F16 reduce `dst[i] = F16(op(a[i] as f32, b[i] as f32))`
/// at the CPU's vector tier; bit-identical to the per-element path.
/// Parallel above [`PAR_THRESHOLD`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16_out(a: &[F16], b: &[F16], dst: &mut [F16], op: ReduceOp) {
    assert_eq!(a.len(), b.len(), "reduce kernel length mismatch");
    assert_eq!(a.len(), dst.len(), "reduce kernel length mismatch");
    with_f32_op!(op, f => par_windows(dst, |r, d| {
        simd::dispatch!(|t| reduce_f16_body(t, d, Some(&a[r.clone()]), &b[r], &f));
    }));
}

/// Per-element F16 reduce reference: widen both operands, apply, narrow
/// — exactly the pre-kernel-engine inner loop. Kept public so the
/// equivalence proptest and the throughput bench can pin the
/// block path against it.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16_per_element(acc: &mut [F16], inc: &[F16], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    for (a, &b) in acc.iter_mut().zip(inc) {
        *a = F16::from_f32(op.apply(a.to_f32(), b.to_f32()));
    }
}

/// Serial monomorphic F16 reduce at the CPU's vector tier: each
/// 256-element chunk of both operands is widened into stack scratch,
/// combined in `f32` with the operator match hoisted out of the loop,
/// and narrowed back. Each
/// element still sees exactly
/// `F16::from_f32(op(a.to_f32(), b.to_f32()))`, so the result is
/// bit-identical to [`reduce_f16_per_element`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16_serial(acc: &mut [F16], inc: &[F16], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    with_f32_op!(op, f => simd::dispatch!(|t| reduce_f16_body(t, acc, None, inc, &f)));
}

/// [`reduce_f16_serial`] fanned out over the worker pool above
/// [`PAR_THRESHOLD`] elements; bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16(acc: &mut [F16], inc: &[F16], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    with_f32_op!(op, f => par_windows(acc, |r, a| {
        simd::dispatch!(|t| reduce_f16_body(t, a, None, &inc[r], &f));
    }));
}

/// Parallel elementwise map `dst[i] = f(&src[i])` at the CPU's vector
/// tier — the shape of the Q15.16 codec. Short inputs run inline; long
/// ones fan out over the pool in disjoint ranges, so `f` must be pure
/// per element.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn par_map<T, U, F>(src: &[T], dst: &mut [U], f: F)
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    assert_eq!(src.len(), dst.len(), "map kernel length mismatch");
    par_windows(dst, |r, d| simd::dispatch!(map_body(&src[r], d, &f)));
}

/// Parallel F16 wire encode: `dst[i] = F16::from_f32(src[i])`, at the
/// CPU's vector tier.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn f16_encode(src: &[f32], dst: &mut [F16]) {
    assert_eq!(src.len(), dst.len(), "map kernel length mismatch");
    par_windows(dst, |r, d| simd::dispatch!(|t| simd::narrow(t, &src[r], d)));
}

/// Rounds every element to the nearest half and back,
/// `dst[i] = F16::from_f32(src[i]).to_f32()`: the block evaluator's
/// `RoundF16`, at the CPU's vector tier.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn round_f16(src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "map kernel length mismatch");
    par_windows(dst, |r, d| simd::dispatch!(|t| round_body(t, &src[r], d)));
}

/// The `RoundF16` body: each [`F16_CHUNK`] narrowed into stack halves
/// and widened back.
#[inline(always)]
fn round_body(t: Tier, src: &[f32], dst: &mut [f32]) {
    let mut halves = [F16::ZERO; F16_CHUNK];
    for (d, s) in dst.chunks_mut(F16_CHUNK).zip(src.chunks(F16_CHUNK)) {
        let halves = &mut halves[..d.len()];
        simd::narrow(t, s, halves);
        simd::widen(t, halves, d);
    }
}

/// Parallel F16 wire decode: `dst[i] = src[i].to_f32()`, at the CPU's
/// vector tier.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn f16_decode(src: &[F16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "map kernel length mismatch");
    par_windows(dst, |r, d| simd::dispatch!(|t| simd::widen(t, &src[r], d)));
}

/// One ring or tree hop on the FP16 wire in one kernel, the fold kept
/// in `f32` (it feeds another fold, or is the result):
/// `dst[i] = op(local[i], incoming[i].to_f32())`. No widened copy of
/// `incoming` is ever materialized beyond a chunk; per element it is
/// exactly the decode and [`ReduceOp::apply`] the separate passes
/// perform, so results are bit-identical to them. Each operator is its
/// own loop at the CPU's vector tier, parallel above
/// [`PAR_THRESHOLD`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn fold_f16_wire(local: &[f32], incoming: &[F16], op: ReduceOp, dst: &mut [f32]) {
    assert_eq!(local.len(), incoming.len(), "reduce kernel length mismatch");
    assert_eq!(local.len(), dst.len(), "reduce kernel length mismatch");
    with_f32_op!(op, f => par_windows(dst, |r, d| {
        simd::dispatch!(|t| fold_wire_body(t, &local[r.clone()], &incoming[r], d, &f));
    }));
}

/// [`fold_f16_wire`] with the fold encoded for the next hop:
/// `dst[i] = F16::from_f32(op(local[i], incoming[i].to_f32()))`, with
/// no unencoded copy of the fold beyond a chunk either.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn fold_f16_wire_encode(local: &[f32], incoming: &[F16], op: ReduceOp, dst: &mut [F16]) {
    assert_eq!(local.len(), incoming.len(), "reduce kernel length mismatch");
    assert_eq!(local.len(), dst.len(), "reduce kernel length mismatch");
    with_f32_op!(op, f => par_windows(dst, |r, d| {
        simd::dispatch!(|t| fold_wire_encode_body(t, &local[r.clone()], &incoming[r], d, &f));
    }));
}

/// The FP16 hop body, `dst[i] = f(local[i], incoming[i] as f32)`: each
/// [`F16_CHUNK`] of `incoming` is widened into `dst` and folded there.
#[inline(always)]
fn fold_wire_body(
    t: Tier,
    local: &[f32],
    incoming: &[F16],
    dst: &mut [f32],
    f: &impl Fn(f32, f32) -> f32,
) {
    for ((d, l), h) in dst
        .chunks_mut(F16_CHUNK)
        .zip(local.chunks(F16_CHUNK))
        .zip(incoming.chunks(F16_CHUNK))
    {
        simd::widen(t, h, d);
        assign_body(d, l, &|h, l| f(l, h));
    }
}

/// [`fold_wire_body`] into stack scratch, each [`F16_CHUNK`] then
/// narrowed into `dst`.
#[inline(always)]
fn fold_wire_encode_body(
    t: Tier,
    local: &[f32],
    incoming: &[F16],
    dst: &mut [F16],
    f: &impl Fn(f32, f32) -> f32,
) {
    let mut wide = [0.0f32; F16_CHUNK];
    for ((d, l), h) in dst
        .chunks_mut(F16_CHUNK)
        .zip(local.chunks(F16_CHUNK))
        .zip(incoming.chunks(F16_CHUNK))
    {
        let wide = &mut wide[..d.len()];
        fold_wire_body(t, l, h, wide, f);
        simd::narrow(t, wide, d);
    }
}

/// Serial axpy update `c[j] += a * b[j]`: one monomorphic,
/// auto-vectorized loop over plain slices for callers that scale and
/// add whole rows, such as a gradient step. [`Tensor::matmul`] does not
/// run on it; its inner loop is a register tile over packed operands.
///
/// [`Tensor::matmul`]: crate::Tensor::matmul
pub fn axpy(c: &mut [f32], b: &[f32], a: f32) {
    for (cj, &bj) in c.iter_mut().zip(b) {
        *cj += a * bj;
    }
}

/// Runs `f(first, run)` over `data` split into consecutive
/// `chunk`-element chunks (last one short), where `run` is one task's
/// contiguous run of whole chunks and `first` the index of its first
/// chunk: one call over all of `data` below [`PAR_THRESHOLD`] or at
/// width 1, the chunks partitioned across the pool otherwise. Each run
/// is a `&mut` split off `data` and handed to its one task through its
/// own `Mutex` slot, locked exactly once, so no lock is ever contended;
/// `f` must not depend on how chunks are grouped into runs.
///
/// # Panics
///
/// Panics when `chunk` is zero.
pub fn parallel_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let len = data.len();
    if len < PAR_THRESHOLD {
        return f(0, data);
    }
    let _dispatch = record(len);
    let chunks = len.div_ceil(chunk);
    let parts = parts(chunks, 1);
    if parts <= 1 {
        return f(0, data);
    }
    let mut rest = data;
    let slots: Vec<Mutex<&mut [T]>> = (0..parts)
        .map(|i| {
            let run = (part(chunks, parts, i).len() * chunk).min(rest.len());
            let (window, tail) = std::mem::take(&mut rest).split_at_mut(run);
            rest = tail;
            Mutex::new(window)
        })
        .collect();
    fan_out(chunks, parts, &|i, r| {
        // Each slot is locked once, so no earlier panic can have
        // poisoned it; a poisoned guard would still hold the run.
        f(
            r.start,
            &mut slots[i].lock().unwrap_or_else(PoisonError::into_inner),
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_for_partitions_exactly() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let hits: Vec<AtomicU64> = (0..100_000).map(|_| AtomicU64::new(0)).collect();
        parallel_for(hits.len(), 1 << 10, |r| {
            for h in &hits[r] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_outputs_hands_out_matching_windows() {
        for len in [0usize, 300, PAR_THRESHOLD + 1234] {
            let (mut a, mut b) = (vec![0.0f32; len], vec![0.0f32; len]);
            parallel_for_outputs(len, &mut [&mut a, &mut b], |r, outs| {
                let [x, y] = outs else { panic!("two outputs") };
                assert_eq!((x.len(), y.len()), (r.len(), r.len()));
                for (k, i) in r.enumerate() {
                    x[k] += i as f32;
                    y[k] -= i as f32;
                }
            });
            assert!(a.iter().enumerate().all(|(i, &v)| v == i as f32), "{len}");
            assert!(
                b.iter().enumerate().all(|(i, &v)| v == -(i as f32)),
                "{len}"
            );
        }
    }

    #[test]
    fn parallel_for_propagates_panics() {
        let outcome = std::panic::catch_unwind(|| {
            parallel_for(1 << 18, 1 << 10, |r| {
                assert!(r.start != 0, "deliberate failure in first range");
            });
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn reduce_f32_matches_apply_reference() {
        let n = (1 << 16) + 37; // above threshold, not a chunk multiple
        let a0: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        let b: Vec<f32> = (0..n).map(|i| (i as f32).cos()).collect();
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let mut reference = a0.clone();
            for (r, &bv) in reference.iter_mut().zip(&b) {
                *r = op.apply(*r, bv);
            }
            let mut parallel = a0.clone();
            reduce_f32(&mut parallel, &b, op);
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                parallel.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn reduce_f16_chunked_matches_per_element() {
        let n = (1 << 16) + F16_CHUNK / 2 + 3;
        let a0: Vec<F16> = (0..n).map(|i| F16::from_f32(i as f32 * 0.37)).collect();
        let b: Vec<F16> = (0..n)
            .map(|i| F16::from_f32(1.0 - i as f32 * 0.11))
            .collect();
        for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
            let mut reference = a0.clone();
            reduce_f16_per_element(&mut reference, &b, op);
            let mut chunked = a0.clone();
            reduce_f16(&mut chunked, &b, op);
            assert_eq!(
                reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                chunked.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn codecs_round_trip() {
        let n = (1 << 16) + 11;
        let src: Vec<f32> = (0..n).map(|i| i as f32 * 0.25 - 100.0).collect();
        let mut half = vec![F16::ZERO; n];
        f16_encode(&src, &mut half);
        let mut wide = vec![0.0f32; n];
        f16_decode(&half, &mut wide);
        for (i, (&h, &w)) in half.iter().zip(&wide).enumerate() {
            assert_eq!(F16::from_f32(src[i]).to_bits(), h.to_bits());
            assert_eq!(h.to_f32().to_bits(), w.to_bits());
        }
    }

    /// The one-pass FP16 hop equals decode, fold and encode run as
    /// separate passes, for both stores and every operator, on both
    /// sides of the parallel threshold.
    #[test]
    fn fold_f16_wire_matches_the_separate_passes() {
        for n in [1000usize, PAR_THRESHOLD + PAR_MIN_CHUNK / 2 + 5] {
            let local: Vec<f32> = (0..n).map(|i| (i as f32 * 0.731).sin() * 900.0).collect();
            let incoming: Vec<F16> = (0..n)
                .map(|i| F16::from_f32((i as f32 * 0.377).cos() * 700.0))
                .collect();
            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                let folded: Vec<f32> = local
                    .iter()
                    .zip(&incoming)
                    .map(|(&a, b)| op.apply(a, b.to_f32()))
                    .collect();

                let mut wide = vec![0.0f32; n];
                fold_f16_wire(&local, &incoming, op, &mut wide);
                assert!(wide
                    .iter()
                    .zip(&folded)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));

                let mut narrow = vec![F16::ZERO; n];
                fold_f16_wire_encode(&local, &incoming, op, &mut narrow);
                assert!(narrow
                    .iter()
                    .zip(&folded)
                    .all(|(h, &w)| *h == F16::from_f32(w)));
            }
        }
    }

    /// `f32` patterns where two vector widths could disagree — signed
    /// zeros, subnormals, the halves' rounding ties and overflow edge,
    /// ±∞, NaN payloads — then hashed bit patterns from the whole
    /// `u32` space, cycled to length `n`.
    fn edge_f32s(n: usize) -> Vec<f32> {
        let edges: [u32; 22] = [
            0,
            0x8000_0000,
            1,
            0x8000_0001,
            0x0040_0000,
            0x807F_FFFF,
            0x3300_0000, // 2^-25: the tie below the least subnormal half
            0x3340_0000,
            0x3380_0000,
            0x387F_E000, // a subnormal-half tie
            0x3880_0000,
            0x3F80_1000, // 1 + 2^-11: a tie to even
            0x3F80_3000,
            0x477F_E000, // 65504, the largest half
            0x477F_F000, // 65520, rounds to ∞
            0x7F80_0000,
            0xFF80_0000,
            0x7F80_0001,
            0x7FC0_0000,
            0xFFC0_2001,
            0x7FBF_FFFF,
            0xFFFF_FFFF,
        ];
        (0..n)
            .map(|i| {
                let hashed = (i as u32).wrapping_mul(0x9E37_79B9).rotate_left(13) ^ i as u32;
                f32::from_bits(edges.get(i % 64).copied().unwrap_or(hashed))
            })
            .collect()
    }

    /// `a` with every NaN that meets a NaN of the other operand (where
    /// `other_is_nan(i)`) replaced by a finite value. Rust leaves the
    /// payload of an operation on two NaNs unspecified — LLVM may
    /// commute the operands of an add, and does so differently per
    /// width — so only pairs with at most one NaN pin bits.
    fn no_nan_pairs(mut a: Vec<f32>, other_is_nan: impl Fn(usize) -> bool) -> Vec<f32> {
        for (i, v) in a.iter_mut().enumerate() {
            if v.is_nan() && other_is_nan(i) {
                *v = 0.75;
            }
        }
        a
    }

    /// Asserts that `body` writes the same bits under every tier this
    /// CPU supports as the public kernel wrote into `public`.
    fn assert_tiers_match<U: Copy + Default, K: PartialEq + std::fmt::Debug>(
        what: &str,
        public: &[U],
        key: impl Fn(U) -> K,
        body: impl Fn(simd::Tier, &mut [U]),
    ) {
        let want: Vec<K> = public.iter().map(|&u| key(u)).collect();
        for tier in simd::supported() {
            let mut out = vec![U::default(); public.len()];
            body(tier, &mut out);
            let got: Vec<K> = out.iter().map(|&u| key(u)).collect();
            let first = got.iter().zip(&want).position(|(g, w)| g != w);
            assert!(
                first.is_none(),
                "{what}, {tier:?}, n = {}: element {first:?}",
                public.len()
            );
        }
    }

    /// Every multiversioned body, run through the runner under every
    /// tier this CPU supports, writes the bits the public kernel built
    /// on it writes at the detected tier — inline below
    /// [`PAR_THRESHOLD`] and across the pool above it, on lengths that
    /// are not a multiple of the vector width.
    #[test]
    fn every_body_is_bit_identical_across_tiers() {
        for n in [1000 + 7, PAR_THRESHOLD + 2 * PAR_MIN_CHUNK + 5] {
            let x = edge_f32s(n);
            // Every half, then again from the start.
            let h: Vec<F16> = (0..n).map(|i| F16::from_bits(i as u16)).collect();
            let y = no_nan_pairs(x.iter().rev().copied().collect(), |i| x[i].is_nan());
            let local = no_nan_pairs(x.clone(), |i| h[i].is_nan());
            // Each half's complement: never a NaN where `h` has one.
            let hc: Vec<F16> = h.iter().map(|v| F16::from_bits(!v.to_bits())).collect();
            let (qx, qy): (Vec<i32>, Vec<i32>) = x
                .iter()
                .zip(&y)
                .map(|(a, b)| (a.to_bits() as i32, b.to_bits() as i32))
                .unzip();

            let mut public = vec![F16::ZERO; n];
            f16_encode(&x, &mut public);
            assert_tiers_match("f16_encode", &public, F16::to_bits, |t, out| {
                simd::dispatch!(at t, |t| simd::narrow(t, &x, out));
            });
            let mut public = vec![0.0f32; n];
            f16_decode(&h, &mut public);
            assert_tiers_match("f16_decode", &public, f32::to_bits, |t, out| {
                simd::dispatch!(at t, |t| simd::widen(t, &h, out));
            });
            let mut public = vec![0.0f32; n];
            round_f16(&x, &mut public);
            assert_tiers_match("round_f16", &public, f32::to_bits, |t, out| {
                simd::dispatch!(at t, |t| round_body(t, &x, out));
            });

            for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                with_f32_op!(op, f => assert_f32_folds_match(op, f, &x, &y, &local, &h));
                with_f32_op!(op, f => assert_f16_folds_match(op, f, &h, &hc));
                // The switch's integer fold.
                match op {
                    ReduceOp::Sum => assert_int_fold_matches(&qx, &qy, i32::saturating_add),
                    ReduceOp::Min => assert_int_fold_matches(&qx, &qy, i32::min),
                    ReduceOp::Max => assert_int_fold_matches(&qx, &qy, i32::max),
                }
            }
        }
    }

    /// The `f32` folds under `op`, whose combine is `f`: in place, out
    /// of place, and the FP16 hop into both stores.
    fn assert_f32_folds_match(
        op: ReduceOp,
        f: impl Fn(f32, f32) -> f32 + Sync,
        x: &[f32],
        y: &[f32],
        local: &[f32],
        h: &[F16],
    ) {
        let mut public = x.to_vec();
        reduce_f32(&mut public, y, op);
        assert_tiers_match("reduce_f32", &public, f32::to_bits, |t, out| {
            out.copy_from_slice(x);
            simd::dispatch!(at t, assign_body(out, y, &f));
        });

        let mut public = vec![0.0f32; x.len()];
        reduce_f32_out(x, y, &mut public, op);
        assert_tiers_match("reduce_f32_out", &public, f32::to_bits, |t, out| {
            simd::dispatch!(at t, zip_body(x, y, out, &f));
        });

        let mut public = vec![0.0f32; x.len()];
        fold_f16_wire(local, h, op, &mut public);
        assert_tiers_match("fold_f16_wire", &public, f32::to_bits, |t, out| {
            simd::dispatch!(at t, |t| fold_wire_body(t, local, h, out, &f));
        });

        let mut public = vec![F16::ZERO; x.len()];
        fold_f16_wire_encode(local, h, op, &mut public);
        assert_tiers_match("fold_f16_wire_encode", &public, F16::to_bits, |t, out| {
            simd::dispatch!(at t, |t| fold_wire_encode_body(t, local, h, out, &f));
        });
    }

    /// The F16 folds under `op`, whose combine is `f`: out of place and
    /// in place.
    fn assert_f16_folds_match(
        op: ReduceOp,
        f: impl Fn(f32, f32) -> f32 + Sync,
        a: &[F16],
        b: &[F16],
    ) {
        let mut public = vec![F16::ZERO; a.len()];
        reduce_f16_out(a, b, &mut public, op);
        assert_tiers_match("reduce_f16_out", &public, F16::to_bits, |t, out| {
            simd::dispatch!(at t, |t| reduce_f16_body(t, out, Some(a), b, &f));
        });

        let mut public = a.to_vec();
        reduce_f16(&mut public, b, op);
        assert_tiers_match("reduce_f16", &public, F16::to_bits, |t, out| {
            out.copy_from_slice(a);
            simd::dispatch!(at t, |t| reduce_f16_body(t, out, None, b, &f));
        });
    }

    fn assert_int_fold_matches(qx: &[i32], qy: &[i32], f: impl Fn(i32, i32) -> i32 + Sync) {
        let mut public = qx.to_vec();
        zip_assign(&mut public, qy, &f);
        assert_tiers_match(
            "zip_assign i32",
            &public,
            |q| q,
            |t, out| {
                out.copy_from_slice(qx);
                simd::dispatch!(at t, assign_body(out, qy, &f));
            },
        );
    }

    /// `f()` run on this thread at kernel width `width`.
    fn at_width<R>(width: usize, f: impl FnOnce() -> R) -> R {
        let before = WIDTH.with(|w| w.replace(width));
        let out = f();
        WIDTH.with(|w| w.set(before));
        out
    }

    /// The threads `parallel_for` ran a pooled range on at `width`.
    fn threads_at_width(width: usize) -> usize {
        let seen = Mutex::new(std::collections::HashSet::new());
        at_width(width, || {
            parallel_for(PAR_THRESHOLD, PAR_MIN_CHUNK, |_| {
                seen.lock().unwrap().insert(std::thread::current().id());
            });
        });
        seen.into_inner().unwrap().len()
    }

    /// Every pooled kernel writes the same bits whether its caller fans
    /// out across two threads or runs it alone, and the width is the
    /// number of threads it runs on.
    #[test]
    fn every_width_gives_the_same_bits() {
        assert_eq!((threads_at_width(1), threads_at_width(2)), (1, 2));
        let n = PAR_THRESHOLD + 2 * PAR_MIN_CHUNK + 5;
        let x = edge_f32s(n);
        let h: Vec<F16> = (0..n).map(|i| F16::from_bits(i as u16)).collect();
        let y = no_nan_pairs(x.iter().rev().copied().collect(), |i| x[i].is_nan());
        let local = no_nan_pairs(x.clone(), |i| h[i].is_nan());
        let (hx, hy): (Vec<F16>, Vec<F16>) = x
            .iter()
            .zip(&y)
            .map(|(&a, &b)| (F16::from_f32(a), F16::from_f32(b)))
            .unzip();
        let (qx, qy): (Vec<i32>, Vec<i32>) = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (a.to_bits() as i32, b.to_bits() as i32))
            .unzip();
        let f32_bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let f16_bits = |v: Vec<F16>| v.iter().map(|x| u32::from(x.to_bits())).collect::<Vec<_>>();
        let a = crate::Tensor::from_fn([256, 96], crate::DType::F32, |i| x[i]);
        let b = crate::Tensor::from_fn([96, 256], crate::DType::F32, |i| y[i]);
        const { assert!(256 * 256 >= PAR_THRESHOLD, "the product's rows fan out") };

        let run = |w: usize| {
            at_width(w, || {
                let mut out: Vec<(&str, Vec<u32>)> = Vec::new();
                for op in [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max] {
                    let mut acc = x.clone();
                    reduce_f32(&mut acc, &y, op);
                    out.push(("reduce_f32", f32_bits(acc)));
                    let mut dst = vec![0.0f32; n];
                    reduce_f32_out(&x, &y, &mut dst, op);
                    out.push(("reduce_f32_out", f32_bits(dst)));
                    let mut acc = hx.clone();
                    reduce_f16(&mut acc, &hy, op);
                    out.push(("reduce_f16", f16_bits(acc)));
                    let mut dst = vec![F16::ZERO; n];
                    reduce_f16_out(&hx, &hy, &mut dst, op);
                    out.push(("reduce_f16_out", f16_bits(dst)));
                    let mut dst = vec![0.0f32; n];
                    fold_f16_wire(&local, &h, op, &mut dst);
                    out.push(("fold_f16_wire", f32_bits(dst)));
                    let mut dst = vec![F16::ZERO; n];
                    fold_f16_wire_encode(&local, &h, op, &mut dst);
                    out.push(("fold_f16_wire_encode", f16_bits(dst)));
                }
                let mut acc = qx.clone();
                zip_assign(&mut acc, &qy, i32::saturating_add);
                out.push(("zip_assign", acc.iter().map(|&q| q as u32).collect()));
                let mut dst = vec![F16::ZERO; n];
                f16_encode(&x, &mut dst);
                out.push(("f16_encode", f16_bits(dst)));
                let mut dst = vec![0.0f32; n];
                f16_decode(&h, &mut dst);
                out.push(("f16_decode", f32_bits(dst)));
                let mut dst = vec![0.0f32; n];
                round_f16(&x, &mut dst);
                out.push(("round_f16", f32_bits(dst)));
                let (mut sum, mut diff) = (vec![0.0f32; n], vec![0.0f32; n]);
                parallel_for_outputs(n, &mut [&mut sum, &mut diff], |r, outs| {
                    let [s, d] = outs else { panic!("two outputs") };
                    for (k, i) in r.enumerate() {
                        (s[k], d[k]) = (x[i] + y[i], x[i] - y[i]);
                    }
                });
                out.push(("parallel_for_outputs", f32_bits(sum)));
                out.push(("parallel_for_outputs", f32_bits(diff)));
                let c = a.matmul(&b).expect("shapes agree");
                out.push(("Tensor::matmul", f32_bits(c.to_f32_vec())));
                out
            })
        };
        for ((what, one), (_, two)) in run(1).into_iter().zip(run(2)) {
            let first = one.iter().zip(&two).position(|(p, q)| p != q);
            assert!(first.is_none(), "{what}: element {first:?}");
        }
    }

    #[test]
    fn parallel_chunks_cover_all_chunks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (len, chunk) = ((1 << 16) + 123, 1000);
        for width in [1, 2] {
            let mut data = vec![0u32; len];
            let calls = AtomicUsize::new(0);
            at_width(width, || {
                parallel_chunks_mut(&mut data, chunk, |first, run| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    // Only the run holding the short last chunk ends off
                    // a chunk boundary.
                    assert!(run.len() % chunk == 0 || first * chunk + run.len() == len);
                    for (i, c) in run.chunks_mut(chunk).enumerate() {
                        c.fill((first + i) as u32 + 1);
                    }
                })
            });
            // One task per part: a single call at width 1.
            assert_eq!(calls.into_inner(), width.min(pool_width()));
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, (i / chunk) as u32 + 1);
            }
        }
    }
}
