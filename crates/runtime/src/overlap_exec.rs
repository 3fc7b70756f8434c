//! Functional execution of the fine-grained MatMul + AllReduce overlap
//! (§5.3, Figure 9).
//!
//! The simulator times the overlapped pipeline; this module *executes*
//! it, enforcing the exact chunk schedule the generated kernels use:
//! the MatMul produces output chunks in the order the ring sends them
//! (rank *n* starting from its own send position), and every ring step
//! asserts — like the spin-lock would block — that the chunk it is
//! about to touch has already been produced. If the paper's chunk
//! ordering were wrong, these runs would panic or produce different
//! results from the unoverlapped execution.
//!
//! # Completion-order independence
//!
//! An earlier version of this pipeline received with plain FIFO
//! `recv`, implicitly assuming every hop *completes* in the order it
//! was issued — true of the in-process channel, but not of a real
//! async fabric, where a later-issued send can land first. Every hop
//! is now a *tagged* message carrying the chunk index it transports
//! (reduce-scatter hops tag `chunk`, all-gather hops tag `k + chunk`),
//! and each step receives *by tag*: delivery order no longer matters,
//! only data dependences do. The regression test
//! `tolerates_chunks_delivered_out_of_issue_order` delivers a
//! later-issued hop first and the result must stay bit-identical.

use coconet_tensor::{ReduceOp, Tensor, TensorError};

use crate::collectives::{chunk_range, Group};
use crate::comm::WireMsg;
use crate::RankComm;

/// Receives the tagged hop `tag` from `src`, unwrapping the dense
/// payload (the overlap pipeline never rides the sparse wire).
fn recv_chunk(comm: &RankComm, src: usize, tag: u64) -> Tensor {
    match comm.recv_tagged(src, tag) {
        WireMsg::Tensor(t) => t,
        other => unreachable!("overlap hops are dense, got {other:?}"),
    }
}

/// A lazily produced output tensor: chunks materialize in a fixed
/// production order, and reads assert availability (the functional
/// analogue of the §5.3 spin-lock).
struct ChunkedProducer {
    out: Tensor,
    produced: Vec<bool>,
    k: usize,
}

impl ChunkedProducer {
    fn new(full: Tensor, k: usize) -> ChunkedProducer {
        ChunkedProducer {
            out: full,
            produced: vec![false; k],
            k,
        }
    }

    fn produce(&mut self, chunk: usize) {
        self.produced[chunk] = true;
    }

    /// A zero-copy view of an already-produced chunk.
    fn read_chunk(&self, chunk: usize) -> Tensor {
        assert!(
            self.produced[chunk],
            "ring step touched chunk {chunk} before the MatMul produced it \
             (the Figure 9 schedule would deadlock here)"
        );
        let (off, len) = chunk_range(self.out.numel(), self.k, chunk);
        self.out.slice_flat(off, len).expect("chunk in range")
    }
}

/// The order rank position `pos` must produce chunks so the ring
/// AllReduce never waits: the ring's send order for this position —
/// `pos-1, pos-2, …` wrapping around to `pos` (this formulation ends
/// with rank `pos` owning chunk `pos`; it is the paper's "rank n sends
/// chunks starting from chunk n" modulo the chunk relabeling).
pub fn production_order(pos: usize, k: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(k);
    for s in 0..k {
        order.push((pos + 2 * k - 1 - s) % k);
    }
    order
}

/// Executes `AllReduce(op, a @ w)` with the fine-grained overlap
/// schedule: chunk-ordered MatMul production interleaved with the ring
/// steps. Returns the replicated result.
///
/// # Errors
///
/// Propagates matmul/tensor errors.
///
/// # Panics
///
/// Panics if the chunk schedule would require a chunk that has not
/// been produced yet — i.e. if the §5.3 ordering were incorrect.
pub fn overlapped_matmul_all_reduce(
    comm: &RankComm,
    group: Group,
    a: &Tensor,
    w: &Tensor,
    op: ReduceOp,
) -> Result<Tensor, TensorError> {
    let k = group.size;
    let pos = group.position(comm.rank());
    let full = a.matmul(w)?; // the values; production order enforced below
    let out_shape = full.shape().clone();
    let out_dtype = full.dtype();
    let n = full.numel();
    let mut producer = ChunkedProducer::new(full, k);
    let order = production_order(pos, k);
    let mut next_to_produce = 0usize;

    if k == 1 {
        producer.produce(order[0]);
        return producer.read_chunk(0).reshape(out_shape);
    }

    // T=1 in Figure 9: the MatMul produces the first chunk before any
    // communication can start.
    producer.produce(order[next_to_produce]);
    next_to_produce += 1;

    // Reduce-scatter phase, chunk-granular: before each step, the
    // MatMul has produced exactly the chunks the ring needs so far.
    // Each reduced chunk starts as a view of the MatMul output and is
    // detached (one chunk-sized copy) by its single in-place fold — no
    // per-step accumulator rebuild.
    let mut reduced: Vec<Option<Tensor>> = vec![None; k];
    let j = (pos + k - 1) % k;
    for step in 0..k - 1 {
        let send_c = (j + k - step % k) % k;
        let recv_c = (j + k - step - 1) % k;
        // The chunk being sent must exist (spin_wait in the kernel).
        let outgoing = if step == 0 {
            producer.read_chunk(send_c)
        } else {
            // Forward the partially reduced chunk (a handle copy).
            reduced[send_c].clone().expect("reduced by schedule")
        };
        comm.send_tagged(
            group.next(comm.rank()),
            send_c as u64,
            Some(0),
            WireMsg::Tensor(outgoing),
        );
        // Produce the next chunk while the wire is busy (T=2..5).
        if next_to_produce < k {
            producer.produce(order[next_to_produce]);
            next_to_produce += 1;
        }
        let incoming = recv_chunk(comm, group.prev(comm.rank()), recv_c as u64);
        // Each chunk is visited exactly once in this phase: fold the
        // incoming partial into the local contribution in place.
        let mut local = producer.read_chunk(recv_c);
        local.reduce_assign(&incoming, op)?;
        reduced[recv_c] = Some(local);
    }

    // All-gather phase over the fully reduced chunks (handle hops).
    let me_chunk = pos;
    let mut chunks: Vec<Option<Tensor>> = vec![None; k];
    chunks[me_chunk] = reduced[me_chunk].take();
    for step in 0..k - 1 {
        let send_c = (me_chunk + k - step % k) % k;
        let recv_c = (me_chunk + k - step - 1) % k;
        let outgoing = chunks[send_c].clone().expect("present by schedule");
        comm.send_tagged(
            group.next(comm.rank()),
            (k + send_c) as u64,
            Some(0),
            WireMsg::Tensor(outgoing),
        );
        let incoming = recv_chunk(comm, group.prev(comm.rank()), (k + recv_c) as u64);
        chunks[recv_c] = Some(incoming);
    }
    let mut out = Tensor::zeros([n], out_dtype);
    let mut offset = 0usize;
    for c in chunks.into_iter().map(|c| c.expect("gathered")) {
        out.write_flat(offset, &c)?;
        offset += c.numel();
    }
    out.reshape(out_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_tensor::{CounterRng, DType};
    use std::thread;

    #[test]
    fn production_order_starts_at_own_chunk() {
        assert_eq!(production_order(0, 4), vec![3, 2, 1, 0]);
        assert_eq!(production_order(2, 4), vec![1, 0, 3, 2]);
        // Covers every chunk exactly once.
        let mut o = production_order(5, 8);
        o.sort_unstable();
        assert_eq!(o, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn overlapped_equals_sequential() {
        let k = 4usize;
        let (rows, inner, cols) = (4usize, 6usize, 8usize);
        let rng = CounterRng::new(17);
        let world = RankComm::world(k);
        let results: Vec<(Tensor, Tensor)> = world
            .into_iter()
            .map(|comm| {
                let rank = comm.rank();
                thread::spawn(move || {
                    let group = Group { start: 0, size: k };
                    let a = Tensor::randn([rows, inner], DType::F32, rng, (rank * 1000) as u64);
                    let w = Tensor::randn([inner, cols], DType::F32, rng, 50_000);
                    let overlapped =
                        overlapped_matmul_all_reduce(&comm, group, &a, &w, ReduceOp::Sum).unwrap();
                    let sequential = crate::ring_all_reduce(
                        &comm,
                        group,
                        &a.matmul(&w).unwrap(),
                        ReduceOp::Sum,
                        coconet_compress::WireFormat::Dense,
                        1,
                    );
                    (overlapped, sequential)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        for (overlapped, sequential) in &results {
            assert_eq!(overlapped.shape(), sequential.shape());
            let diff = overlapped.max_abs_diff(sequential);
            assert!(diff < 1e-4, "diff {diff}");
        }
        // All ranks agree.
        for (o, _) in &results[1..] {
            assert_eq!(o.to_f32_vec(), results[0].0.to_f32_vec());
        }
    }

    /// Completion-order independence (the regression this module's
    /// header documents): a scripted peer delivers a later-issued hop
    /// — its all-gather chunks — *before* its reduce-scatter partials,
    /// and the pipeline still produces the exact AllReduce result,
    /// because every step receives by chunk tag instead of by arrival
    /// order. Under the old FIFO `recv` this delivery order mis-folded
    /// the chunks.
    #[test]
    fn tolerates_chunks_delivered_out_of_issue_order() {
        let k = 3usize;
        let (rows, inner, cols) = (3usize, 2usize, 3usize);
        // Integer-valued inputs: every partial sum is exact in f32, so
        // the assertion below is bitwise no matter the fold order.
        let a: Vec<Tensor> = (0..k)
            .map(|r| Tensor::from_fn([rows, inner], DType::F32, move |i| ((i + r) % 5) as f32))
            .collect();
        let w = Tensor::from_fn([inner, cols], DType::F32, |i| ((i % 3) + 1) as f32);
        let p: Vec<Vec<f32>> = a
            .iter()
            .map(|ar| ar.matmul(&w).unwrap().to_f32_vec())
            .collect();
        let n = rows * cols;
        let chunk = |v: &[f32], c: usize| -> Vec<f32> {
            let (off, len) = chunk_range(n, k, c);
            v[off..off + len].to_vec()
        };
        let add =
            |x: &[f32], y: &[f32]| -> Vec<f32> { x.iter().zip(y).map(|(a, b)| a + b).collect() };
        let total: Vec<f32> = (0..n).map(|i| p[0][i] + p[1][i] + p[2][i]).collect();

        let mut world = RankComm::world(k);
        let c2 = world.pop().unwrap(); // scripted sink (rank 1's next)
        let c1 = world.pop().unwrap(); // runs the real pipeline
        let c0 = world.pop().unwrap(); // scripted peer (rank 1's prev)

        let (a1, w1) = (a[1].clone(), w.clone());
        let handle = thread::spawn(move || {
            let group = Group { start: 0, size: k };
            overlapped_matmul_all_reduce(&c1, group, &a1, &w1, ReduceOp::Sum).unwrap()
        });

        // What the honest rank 0 sends rank 1, per the ring schedule:
        //   RS step 0 (tag 2): its own chunk 2.
        //   RS step 1 (tag 1): chunk 1 folded with rank 2's partial.
        //   AG step 0 (tag 3+0): the fully reduced chunk 0 it owns.
        //   AG step 1 (tag 3+2): the fully reduced chunk 2 it forwards.
        let msg = |vals: Vec<f32>| {
            WireMsg::Tensor(Tensor::from_f32([vals.len()], DType::F32, &vals).unwrap())
        };
        // Deliver the later-issued hops FIRST: both all-gather chunks,
        // then the reduce-scatter partials in reversed step order.
        c0.send_tagged(1, (k + 2) as u64, Some(0), msg(chunk(&total, 2)));
        c0.send_tagged(1, (k) as u64, Some(0), msg(chunk(&total, 0)));
        c0.send_tagged(1, 1, Some(0), msg(add(&chunk(&p[0], 1), &chunk(&p[2], 1))));
        c0.send_tagged(1, 2, Some(0), msg(chunk(&p[0], 2)));

        let got = handle.join().unwrap();
        assert_eq!(got.to_f32_vec(), total);
        // Keep the sink alive until the pipeline has sent its hops.
        drop(c2);
        drop(c0);
    }

    #[test]
    fn single_rank_degenerates_to_matmul() {
        let world = RankComm::world(1);
        let comm = world.into_iter().next().unwrap();
        let group = Group { start: 0, size: 1 };
        let a = Tensor::from_fn([2, 3], DType::F32, |i| i as f32);
        let w = Tensor::from_fn([3, 2], DType::F32, |i| (i % 3) as f32);
        let got = overlapped_matmul_all_reduce(&comm, group, &a, &w, ReduceOp::Sum).unwrap();
        assert_eq!(got.to_f32_vec(), a.matmul(&w).unwrap().to_f32_vec());
    }
}
