//! Monomorphized, threshold-gated parallel inner-loop kernels.
//!
//! The collectives' hot loops — ring `reduce_assign`, F16 wire
//! encode/decode, top-k key extraction, Q15.16 quantize — all reduce to
//! tight per-element transforms. Before this module they ran through
//! per-element [`ReduceOp::apply`] enum dispatch (or worse, virtual
//! `Tensor::get` indexing); here each `ReduceOp` gets its own
//! monomorphic inner loop over plain slices that the compiler can
//! auto-vectorize, F16 paths widen a whole chunk to `f32` scratch once
//! instead of converting per element both ways, and work above
//! [`PAR_THRESHOLD`] elements fans out across a shared persistent
//! worker pool built on the vendored crossbeam MPMC channel. Small
//! tensors stay on the single-threaded path so latency-sensitive chunks
//! never pay pool overhead.
//!
//! The wire codecs are straight-line per-element functions —
//! [`F16::from_f32`] / [`F16::to_f32`] pick their special cases by
//! `select`, with no data-dependent branch or loop — so the encode and
//! decode loops here vectorize like the reductions do. On the FP16 wire
//! a ring or tree hop's decode, fold and re-encode run as one pass
//! ([`fold_f16_wire`]) with no widened copy of the incoming payload.
//!
//! Every parallel kernel is bit-identical to its serial counterpart:
//! ranges partition the index space and each element sees exactly the
//! same sequence of `f32` operations, so callers (and the striped
//! collectives built on top) can treat parallelism as a pure
//! work-saver.

use crate::ops::ReduceOp;
use crate::F16;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Element count at or above which kernels consider the worker pool.
/// Below it every kernel runs inline on the calling thread.
pub const PAR_THRESHOLD: usize = 1 << 16;

/// Smallest per-task range a parallel kernel will hand to the pool —
/// keeps per-task dispatch overhead well under the work it amortizes.
pub const PAR_MIN_CHUNK: usize = 1 << 14;

/// F16 kernels stage this many elements of widened `f32` scratch on the
/// stack per chunk (one widen and one narrow pass per chunk, with the
/// combine loop running purely in `f32`).
const F16_CHUNK: usize = 256;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Pool {
    tx: crossbeam::channel::Sender<Job>,
    workers: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set inside pool workers so nested kernels degrade to the serial
    /// path instead of deadlocking on their own queue.
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        // The caller always executes one task inline, so spawn one
        // fewer worker than the machine has cores (at least one, so
        // the dispatch path is exercised even on a single core).
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let workers = cores.saturating_sub(1).max(1);
        let (tx, rx) = crossbeam::channel::unbounded::<Job>();
        for i in 0..workers {
            let rx = rx.clone();
            std::thread::Builder::new()
                .name(format!("coconet-kernel-{i}"))
                .spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                })
                .expect("spawn kernel pool worker");
        }
        Pool { tx, workers }
    })
}

/// Number of threads the kernel pool can bring to bear on one call
/// (spawned workers plus the calling thread).
#[must_use]
pub fn pool_width() -> usize {
    pool().workers + 1
}

/// Raw mutable pointer that asserts cross-thread safety; every use
/// below hands disjoint ranges to disjoint tasks.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

// Manual impls: `derive` would add unwanted `T: Clone`/`T: Copy`
// bounds, and pointers copy regardless of the pointee.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole wrapper — edition-2021 disjoint capture would otherwise
    /// grab the bare `*mut T` field, which is neither `Send` nor
    /// `Sync`.
    fn get(self) -> *mut T {
        self.0
    }
}

/// Runs `f` over a partition of `0..len` into contiguous ranges, using
/// the shared worker pool when the range is worth splitting (and the
/// calling thread for one share of the work). Falls back to a single
/// inline call for short ranges, when called from inside a pool worker
/// (no nested dispatch), or when `len < 2 * min_chunk`.
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
    let _dispatch = coconet_trace::span(
        coconet_trace::EventKind::Kernel,
        "parallel_for",
        len as u64,
        0,
    );
    coconet_trace::metrics::add_counter(coconet_trace::metrics::Counter::KernelElems, len as u64);
    let nested = IN_WORKER.with(std::cell::Cell::get);
    let max_parts = len / min_chunk.max(1);
    let parts = if nested {
        1
    } else {
        pool_width().min(max_parts)
    };
    if parts <= 1 {
        f(0..len);
        return;
    }

    // SAFETY: the borrow of `f` is erased to 'static so boxed jobs can
    // enter the pool queue; the caller blocks on the completion channel
    // below until every task has run, so `f` outlives all uses.
    let f_ref: &(dyn Fn(Range<usize>) + Sync) = &f;
    let f_static: &'static (dyn Fn(Range<usize>) + Sync) = unsafe { std::mem::transmute(f_ref) };

    let (done_tx, done_rx) = crossbeam::channel::unbounded();
    let base = len / parts;
    let rem = len % parts;
    let mut start = 0usize;
    let mut inline_task = 0..0;
    for part in 0..parts {
        let take = base + usize::from(part < rem);
        let range = start..start + take;
        start += take;
        if part + 1 == parts {
            // The caller's own share — run it inline after dispatch.
            inline_task = range;
            break;
        }
        let tx = done_tx.clone();
        let job: Job = Box::new(move || {
            let _job_span = coconet_trace::span(
                coconet_trace::EventKind::Kernel,
                "pool_job",
                (range.end - range.start) as u64,
                part as u64,
            );
            let outcome = catch_unwind(AssertUnwindSafe(|| f_static(range)));
            // Receiver outlives all tasks; a send failure means the
            // caller already panicked and unwound past the recv loop.
            let _ = tx.send(outcome);
        });
        pool().tx.send(job).expect("kernel pool workers alive");
    }
    drop(done_tx);

    let caller_outcome = catch_unwind(AssertUnwindSafe(|| f_static(inline_task)));
    let mut payload_hold: Option<Box<dyn std::any::Any + Send>> = None;
    for _ in 0..parts - 1 {
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

/// [`parallel_for`] for a kernel that writes several outputs: every
/// task gets its range of `0..len` and that same window of each output
/// in `outs`, so a multi-output kernel (the runtime's block evaluator
/// stores every escaping member of a fusion group) writes without
/// sharing. Inline below [`PAR_THRESHOLD`] like every kernel here.
///
/// # Panics
///
/// Panics when an output's length is not `len`.
pub fn parallel_for_outputs<F>(len: usize, outs: &mut [&mut [f32]], f: F)
where
    F: Fn(Range<usize>, &mut [&mut [f32]]) + Sync,
{
    for out in outs.iter() {
        assert_eq!(out.len(), len, "kernel output length mismatch");
    }
    if len < PAR_THRESHOLD {
        return f(0..len, outs);
    }
    let ptrs: Vec<SendPtr<f32>> = outs.iter_mut().map(|o| SendPtr(o.as_mut_ptr())).collect();
    parallel_for(len, PAR_MIN_CHUNK, |r| {
        // SAFETY: parallel_for ranges partition 0..len, so tasks take
        // disjoint windows of each output (every output is `len` long,
        // checked above), and the outputs are distinct `&mut` slices,
        // so windows of different outputs never alias either.
        let mut windows: Vec<&mut [f32]> = ptrs
            .iter()
            .map(|p| unsafe { std::slice::from_raw_parts_mut(p.get().add(r.start), r.len()) })
            .collect();
        f(r, &mut windows);
    });
}

/// Serial monomorphic `acc[i] = op(acc[i], inc[i])` over `f32` slices:
/// the operator match is hoisted out of the loop so each arm is a
/// branch-free slice traversal the compiler auto-vectorizes.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32_serial(acc: &mut [f32], inc: &[f32], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    match op {
        ReduceOp::Sum => {
            for (a, &b) in acc.iter_mut().zip(inc) {
                *a += b;
            }
        }
        ReduceOp::Min => {
            for (a, &b) in acc.iter_mut().zip(inc) {
                *a = a.min(b);
            }
        }
        ReduceOp::Max => {
            for (a, &b) in acc.iter_mut().zip(inc) {
                *a = a.max(b);
            }
        }
    }
}

/// [`reduce_f32_serial`] fanned out over the worker pool above
/// [`PAR_THRESHOLD`] elements; bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32(acc: &mut [f32], inc: &[f32], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    if acc.len() < PAR_THRESHOLD {
        return reduce_f32_serial(acc, inc, op);
    }
    let ptr = SendPtr(acc.as_mut_ptr());
    parallel_for(acc.len(), PAR_MIN_CHUNK, move |r| {
        // SAFETY: parallel_for ranges partition 0..len, so tasks write
        // disjoint subslices of `acc`.
        let a = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        reduce_f32_serial(a, &inc[r], op);
    });
}

/// Out-of-place monomorphic reduce `dst[i] = op(a[i], b[i])` over
/// `f32` slices — the fused fold-into-fresh-stripe kernel of the
/// striped collectives (one write instead of fold-in-place plus a
/// later send copy). Parallel above [`PAR_THRESHOLD`]; per element it
/// applies exactly `op.apply(a, b)`, so results are bit-identical to
/// an in-place fold of `b` into a copy of `a`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f32_out(a: &[f32], b: &[f32], dst: &mut [f32], op: ReduceOp) {
    assert_eq!(a.len(), b.len(), "reduce kernel length mismatch");
    assert_eq!(a.len(), dst.len(), "reduce kernel length mismatch");
    if a.len() < PAR_THRESHOLD {
        reduce_f32_out_serial(a, b, dst, op);
        return;
    }
    let ptr = SendPtr(dst.as_mut_ptr());
    parallel_for(a.len(), PAR_MIN_CHUNK, move |r| {
        // SAFETY: disjoint ranges → disjoint subslices.
        let d = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        reduce_f32_out_serial(&a[r.clone()], &b[r], d, op);
    });
}

fn reduce_f32_out_serial(a: &[f32], b: &[f32], dst: &mut [f32], op: ReduceOp) {
    match op {
        ReduceOp::Sum => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = x + y;
            }
        }
        ReduceOp::Min => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = x.min(y);
            }
        }
        ReduceOp::Max => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = x.max(y);
            }
        }
    }
}

/// Out-of-place F16 reduce `dst[i] = F16(op(a[i] as f32, b[i] as f32))`
/// with the widen-once-per-chunk discipline of [`reduce_f16_serial`];
/// bit-identical to the per-element path. Parallel above
/// [`PAR_THRESHOLD`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16_out(a: &[F16], b: &[F16], dst: &mut [F16], op: ReduceOp) {
    assert_eq!(a.len(), b.len(), "reduce kernel length mismatch");
    assert_eq!(a.len(), dst.len(), "reduce kernel length mismatch");
    if a.len() < PAR_THRESHOLD {
        reduce_f16_out_serial(a, b, dst, op);
        return;
    }
    let ptr = SendPtr(dst.as_mut_ptr());
    parallel_for(a.len(), PAR_MIN_CHUNK, move |r| {
        // SAFETY: disjoint ranges → disjoint subslices.
        let d = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        reduce_f16_out_serial(&a[r.clone()], &b[r], d, op);
    });
}

fn reduce_f16_out_serial(a: &[F16], b: &[F16], dst: &mut [F16], op: ReduceOp) {
    let mut wa = [0.0f32; F16_CHUNK];
    let mut wb = [0.0f32; F16_CHUNK];
    for ((dc, ac), bc) in dst
        .chunks_mut(F16_CHUNK)
        .zip(a.chunks(F16_CHUNK))
        .zip(b.chunks(F16_CHUNK))
    {
        let n = dc.len();
        for (w, v) in wa[..n].iter_mut().zip(ac.iter()) {
            *w = v.to_f32();
        }
        for (w, v) in wb[..n].iter_mut().zip(bc.iter()) {
            *w = v.to_f32();
        }
        match op {
            ReduceOp::Sum => {
                for (x, &y) in wa[..n].iter_mut().zip(&wb[..n]) {
                    *x += y;
                }
            }
            ReduceOp::Min => {
                for (x, &y) in wa[..n].iter_mut().zip(&wb[..n]) {
                    *x = x.min(y);
                }
            }
            ReduceOp::Max => {
                for (x, &y) in wa[..n].iter_mut().zip(&wb[..n]) {
                    *x = x.max(y);
                }
            }
        }
        for (d, &w) in dc.iter_mut().zip(&wa[..n]) {
            *d = F16::from_f32(w);
        }
    }
}

/// Per-element F16 reduce reference: widen both operands, apply, narrow
/// — exactly the pre-kernel-engine inner loop. Kept public so the
/// equivalence proptest and the throughput bench can pin the
/// widen-once chunk path against it.
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

/// Serial monomorphic F16 reduce: widens a whole `F16_CHUNK`-element
/// chunk of both operands into stack `f32` scratch once, combines in
/// `f32` with the operator match hoisted out of the loop, and narrows
/// the chunk back once. Each element still sees exactly
/// `F16::from_f32(op(a.to_f32(), b.to_f32()))`, so the result is
/// bit-identical to [`reduce_f16_per_element`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16_serial(acc: &mut [F16], inc: &[F16], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    let mut wa = [0.0f32; F16_CHUNK];
    let mut wb = [0.0f32; F16_CHUNK];
    for (ac, ic) in acc.chunks_mut(F16_CHUNK).zip(inc.chunks(F16_CHUNK)) {
        let n = ac.len();
        for (w, a) in wa[..n].iter_mut().zip(ac.iter()) {
            *w = a.to_f32();
        }
        for (w, b) in wb[..n].iter_mut().zip(ic.iter()) {
            *w = b.to_f32();
        }
        match op {
            ReduceOp::Sum => {
                for (a, &b) in wa[..n].iter_mut().zip(&wb[..n]) {
                    *a += b;
                }
            }
            ReduceOp::Min => {
                for (a, &b) in wa[..n].iter_mut().zip(&wb[..n]) {
                    *a = a.min(b);
                }
            }
            ReduceOp::Max => {
                for (a, &b) in wa[..n].iter_mut().zip(&wb[..n]) {
                    *a = a.max(b);
                }
            }
        }
        for (a, &w) in ac.iter_mut().zip(&wa[..n]) {
            *a = F16::from_f32(w);
        }
    }
}

/// [`reduce_f16_serial`] fanned out over the worker pool above
/// [`PAR_THRESHOLD`] elements; bit-identical to the serial kernel.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn reduce_f16(acc: &mut [F16], inc: &[F16], op: ReduceOp) {
    assert_eq!(acc.len(), inc.len(), "reduce kernel length mismatch");
    if acc.len() < PAR_THRESHOLD {
        return reduce_f16_serial(acc, inc, op);
    }
    let ptr = SendPtr(acc.as_mut_ptr());
    parallel_for(acc.len(), PAR_MIN_CHUNK, move |r| {
        // SAFETY: disjoint ranges → disjoint subslices.
        let a = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        reduce_f16_serial(a, &inc[r], op);
    });
}

/// Parallel elementwise map `dst[i] = f(&src[i])` — the shape of every
/// wire codec (F16 encode/decode, Q15.16 quantize/dequantize, top-k key
/// extraction). Short inputs run inline; long ones fan out over the
/// pool in disjoint ranges, so `f` must be pure per element.
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
    if src.len() < PAR_THRESHOLD {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = f(s);
        }
        return;
    }
    let ptr = SendPtr(dst.as_mut_ptr());
    parallel_for(src.len(), PAR_MIN_CHUNK, move |r| {
        // SAFETY: disjoint ranges → disjoint subslices.
        let d = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
        for (dv, sv) in d.iter_mut().zip(&src[r]) {
            *dv = f(sv);
        }
    });
}

/// Parallel F16 wire encode: `dst[i] = F16::from_f32(src[i])`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn f16_encode(src: &[f32], dst: &mut [F16]) {
    par_map(src, dst, |&v| F16::from_f32(v));
}

/// Parallel F16 wire decode: `dst[i] = src[i].to_f32()`.
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn f16_decode(src: &[F16], dst: &mut [f32]) {
    par_map(src, dst, |v| v.to_f32());
}

/// One ring or tree hop on the FP16 wire in a single pass:
/// `dst[i] = store(op(local[i], incoming[i].to_f32()))`, where `store`
/// is the identity (the fold feeds another fold, or is the result) or
/// [`F16::from_f32`] (the fold is the next hop's payload). No widened
/// copy of `incoming` and no unencoded copy of the fold is ever
/// materialized; per element it is exactly the decode,
/// [`ReduceOp::apply`] and store the separate passes perform, so results
/// are bit-identical to them. Parallel above [`PAR_THRESHOLD`].
///
/// # Panics
///
/// Panics when the slice lengths differ.
pub fn fold_f16_wire<U, S>(local: &[f32], incoming: &[F16], op: ReduceOp, dst: &mut [U], store: S)
where
    U: Send,
    S: Fn(f32) -> U + Sync,
{
    assert_eq!(local.len(), incoming.len(), "fold kernel length mismatch");
    assert_eq!(local.len(), dst.len(), "fold kernel length mismatch");
    match op {
        ReduceOp::Sum => fold_f16_wire_with(local, incoming, dst, |a, b| store(a + b)),
        ReduceOp::Min => fold_f16_wire_with(local, incoming, dst, |a, b| store(a.min(b))),
        ReduceOp::Max => fold_f16_wire_with(local, incoming, dst, |a, b| store(a.max(b))),
    }
}

/// The monomorphic body of [`fold_f16_wire`]: each `(op, store)` pair
/// is its own straight-line loop.
#[inline(always)]
fn fold_f16_wire_with<U: Send>(
    local: &[f32],
    incoming: &[F16],
    dst: &mut [U],
    f: impl Fn(f32, f32) -> U + Sync,
) {
    parallel_chunks_mut(dst, PAR_MIN_CHUNK, |c, d| {
        let at = c * PAR_MIN_CHUNK..c * PAR_MIN_CHUNK + d.len();
        for ((o, &a), b) in d.iter_mut().zip(&local[at.clone()]).zip(&incoming[at]) {
            *o = f(a, b.to_f32());
        }
    });
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

/// Runs `f(chunk_index, chunk)` over `data` split into consecutive
/// `chunk`-element chunks (last one short), fanning chunks out across
/// the pool when `data` clears [`PAR_THRESHOLD`]. Chunks are disjoint,
/// so per-chunk writes race-free; `f` must not depend on chunk order.
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
        for (i, c) in data.chunks_mut(chunk).enumerate() {
            f(i, c);
        }
        return;
    }
    let n_chunks = len.div_ceil(chunk);
    let ptr = SendPtr(data.as_mut_ptr());
    parallel_for(n_chunks, 1, move |r| {
        for i in r {
            let start = i * chunk;
            let end = len.min(start + chunk);
            // SAFETY: chunk index ranges are disjoint across tasks, so
            // the derived element ranges are too.
            let c = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(start), end - start) };
            f(i, c);
        }
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
                fold_f16_wire(&local, &incoming, op, &mut wide, |w| w);
                assert!(wide
                    .iter()
                    .zip(&folded)
                    .all(|(a, b)| a.to_bits() == b.to_bits()));

                let mut narrow = vec![F16::ZERO; n];
                fold_f16_wire(&local, &incoming, op, &mut narrow, F16::from_f32);
                assert!(narrow
                    .iter()
                    .zip(&folded)
                    .all(|(h, &w)| *h == F16::from_f32(w)));
            }
        }
    }

    #[test]
    fn parallel_chunks_cover_all_chunks() {
        let mut data = vec![0u32; (1 << 16) + 123];
        let chunk = 1000;
        parallel_chunks_mut(&mut data, chunk, |i, c| {
            for v in c.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, (i / chunk) as u32 + 1);
        }
    }
}
