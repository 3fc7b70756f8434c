//! Functional execution of the fine-grained MatMul + AllReduce overlap
//! (§5.3, Figure 9).
//!
//! The simulator times the overlapped pipeline; this module *executes*
//! it. The paper's overlap is "the MatMul produces chunks in the order
//! the ring sends them"; here the ring *pulls* them: the AllReduce is
//! one ordinary `RingLane` under the blocking drive whose
//! `ChunkSource` is a producer — the GEMM of the row block covering
//! the chunk it is asked for — instead of a resident tensor.
//!
//! # The producer contract
//!
//! The lane calls the producer exactly once per ring chunk, at the
//! point it first reads that chunk: chunk `pos−1` for its first send,
//! then, after each step's send and before that step's blocking
//! receive, the chunk the step folds — `pos−2, …, pos`. That sequence
//! is [`production_order`]: the Figure 9 order is a fact of the one
//! ring schedule, not a second schedule checked against it, and "after
//! the send, before the receive" is where the MatMul computes its next
//! chunk while the wire is busy (T=2..5 in the figure). The product is
//! never resident whole.
//!
//! A GEMM row block is bit-identical to the same rows of the full
//! product (every element accumulates over the contraction dimension in
//! the same order), so the result is the dense one-lane ring AllReduce
//! of `a.matmul(w)` bit for bit — wire tags, ledger class and trace
//! events included.

use coconet_compress::WireFormat;
use coconet_tensor::{DType, ReduceOp, Shape, Tensor, TensorError};

use crate::collectives::{chunk_range, lane_tag, ChunkSource, Group, RingLane, RingPhase};
use crate::compressed::{all_reduce_output, run_blocking, Job};
use crate::RankComm;

/// The order rank position `pos` must produce chunks so the ring
/// AllReduce never waits: the ring's send order for this position —
/// `pos-1, pos-2, …` wrapping around to `pos` (this formulation ends
/// with rank `pos` owning chunk `pos`; it is the paper's "rank n sends
/// chunks starting from chunk n" modulo the chunk relabeling).
pub fn production_order(pos: usize, k: usize) -> Vec<usize> {
    (0..k).map(|s| (pos + 2 * k - 1 - s) % k).collect()
}

/// Executes `AllReduce(op, a @ w)` with the fine-grained overlap
/// schedule: the ring pulls each output chunk from the MatMul as it
/// first needs it (see the module docs). Returns the replicated result,
/// bit-identical to the dense one-lane ring AllReduce of `a.matmul(w)`.
///
/// # Errors
///
/// Returns [`TensorError::MatMulDims`] as [`Tensor::matmul`] does.
pub fn overlapped_matmul_all_reduce(
    comm: &RankComm,
    group: Group,
    a: &Tensor,
    w: &Tensor,
    op: ReduceOp,
) -> Result<Tensor, TensorError> {
    let (lhs, rhs) = (a.shape(), w.shape());
    if rhs.rank() != 2 || lhs.dims().last() != Some(&rhs.dim(0)) {
        return Err(TensorError::MatMulDims {
            lhs: lhs.clone(),
            rhs: rhs.clone(),
        });
    }
    let (inner, cols) = (rhs.dim(0), rhs.dim(1));
    let mut dims = lhs.dims().to_vec();
    *dims.last_mut().expect("rank >= 1") = cols;
    let shape = Shape::new(dims);
    let dtype = DType::promote(a.dtype(), w.dtype());
    let (numel, k) = (shape.numel(), group.size);
    let (a, w) = (a.clone(), w.clone());
    // The GEMM of the rows covering flat chunk `c`, cut to the chunk.
    let produce = move |c: usize| {
        let (off, len) = chunk_range(numel, k, c);
        if len == 0 {
            return Tensor::zeros([0], dtype);
        }
        let (r0, r1) = (off / cols, (off + len).div_ceil(cols));
        let rows = a
            .slice_flat(r0 * inner, (r1 - r0) * inner)
            .and_then(|rows| rows.reshape([r1 - r0, inner]))
            .expect("row block in range");
        let block = rows.matmul(&w).expect("dimensions checked above");
        block
            .slice_flat(off - r0 * cols, len)
            .expect("chunk inside its row block")
    };
    let mut lane = vec![Job::Ring(RingLane::new(
        RingPhase::AllReduce,
        lane_tag(None, 1, 0),
        None,
        group,
        ChunkSource::Produced(shape, dtype, Box::new(produce)),
        op,
        WireFormat::Dense,
        1,
        0,
    ))];
    run_blocking(comm, "ring:ar", numel, &mut lane);
    Ok(all_reduce_output(lane).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{run_ranks, Side, WireMsg};
    use crate::compressed::tests::dense_ring;
    use coconet_tensor::CounterRng;
    use std::sync::{Arc, Mutex};

    fn bits(t: &Tensor) -> Vec<u32> {
        t.to_f32_vec().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn production_order_starts_at_own_chunk() {
        assert_eq!(production_order(0, 4), vec![3, 2, 1, 0]);
        assert_eq!(production_order(2, 4), vec![1, 0, 3, 2]);
        // Covers every chunk exactly once.
        let mut o = production_order(5, 8);
        o.sort_unstable();
        assert_eq!(o, (0..8).collect::<Vec<_>>());
    }

    /// The chunk-read order is a fact of the one ring schedule: a lane
    /// over a recording producer asks for exactly
    /// `production_order(pos, k)` — each chunk once — at every position
    /// of every group size, and reduces what a whole-tensor lane does.
    #[test]
    fn the_lane_pulls_chunks_in_production_order() {
        for k in 1..=8usize {
            let n = 2 * k + 3;
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::from_fn([n], DType::F32, |i| (comm.rank() * 31 + i) as f32);
                let calls = Arc::new(Mutex::new(Vec::new()));
                let (log, whole) = (calls.clone(), input.clone());
                let produce = move |c: usize| {
                    log.lock().unwrap().push(c);
                    let (off, len) = chunk_range(n, k, c);
                    whole.slice_flat(off, len).unwrap()
                };
                let mut lane = vec![Job::Ring(RingLane::new(
                    RingPhase::AllReduce,
                    lane_tag(None, 1, 0),
                    None,
                    group,
                    ChunkSource::Produced(input.shape().clone(), DType::F32, Box::new(produce)),
                    ReduceOp::Sum,
                    WireFormat::Dense,
                    1,
                    0,
                ))];
                run_blocking(&comm, "ring:ar", n, &mut lane);
                let pulled = all_reduce_output(lane).0;
                let whole = dense_ring(&comm, group, &input, ReduceOp::Sum);
                let calls = calls.lock().unwrap().clone();
                (calls, pulled, whole)
            });
            for (pos, (calls, pulled, whole)) in results.iter().enumerate() {
                assert_eq!(calls, &production_order(pos, k), "k={k} pos={pos}");
                assert_eq!(bits(pulled), bits(whole), "k={k} pos={pos}");
            }
        }
    }

    /// Bit for bit the unoverlapped execution — including what the
    /// ledger sees: a blocking call records no priority class.
    #[test]
    fn overlapped_equals_sequential() {
        let k = 4usize;
        let (rows, inner, cols) = (4usize, 6usize, 8usize);
        let rng = CounterRng::new(17);
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let a = Tensor::randn([rows, inner], DType::F32, rng, (comm.rank() * 1000) as u64);
            let w = Tensor::randn([inner, cols], DType::F32, rng, 50_000);
            comm.reset_ledger();
            let overlapped =
                overlapped_matmul_all_reduce(&comm, group, &a, &w, ReduceOp::Sum).unwrap();
            let ledger = comm.ledger();
            let product = a.matmul(&w).unwrap();
            comm.reset_ledger();
            let sequential = dense_ring(&comm, group, &product, ReduceOp::Sum);
            (overlapped, sequential, ledger, comm.ledger())
        });
        for (overlapped, sequential, ledger, ring_ledger) in &results {
            assert_eq!(overlapped.shape(), sequential.shape());
            assert_eq!(bits(overlapped), bits(sequential));
            assert_eq!(ledger.class_bytes_sent, [0; crate::PRIORITY_CLASSES]);
            assert_eq!(
                (ledger.bytes_sent, ledger.sends),
                (ring_ledger.bytes_sent, ring_ledger.sends)
            );
        }
    }

    /// What the per-source FIFO fabric *can* do to the pipeline: the
    /// scripted peer delivers both its hops before the lane has
    /// produced its second chunk, with a foreign job's tagged chunk and
    /// a plain message interleaved. The result is exact and the foreign
    /// traffic is left for its owners.
    #[test]
    fn early_hops_and_foreign_traffic_leave_the_result_exact() {
        let (rows, inner, cols) = (3usize, 2usize, 3usize);
        let a: Vec<Tensor> = (0..2)
            .map(|r| Tensor::from_fn([rows, inner], DType::F32, move |i| ((i + r) % 5) as f32))
            .collect();
        let w = Tensor::from_fn([inner, cols], DType::F32, |i| ((i % 3) + 1) as f32);
        let p: Vec<Tensor> = a.iter().map(|ar| ar.matmul(&w).unwrap()).collect();
        let n = rows * cols;
        let chunk = |t: &Tensor, c: usize| {
            let (off, len) = chunk_range(n, 2, c);
            t.slice_flat(off, len).unwrap()
        };

        let mut world = RankComm::world(2);
        let peer = world.pop().unwrap(); // rank 1, scripted
        let me = world.pop().unwrap(); // rank 0, runs the real pipeline
        let group = Group { start: 0, size: 2 };

        // The honest rank 1 sends its own chunk 0, then the chunk 1 it
        // owns: its contribution folded with rank 0's partial.
        let tag = lane_tag(None, 1, 0);
        let foreign = Tensor::full([4], DType::F32, -1.0);
        let reduced_1 = chunk(&p[1], 1).add(&chunk(&p[0], 1)).unwrap();
        peer.send(0, foreign.clone());
        peer.send_tagged(0, 0, Some(0), WireMsg::Tensor(foreign.clone()));
        peer.send_tagged(0, tag, None, WireMsg::Tensor(chunk(&p[1], 0)));
        peer.send_tagged(0, 1, Some(0), WireMsg::Tensor(foreign.clone()));
        peer.send_tagged(0, tag, None, WireMsg::Tensor(reduced_1));

        let got = overlapped_matmul_all_reduce(&me, group, &a[0], &w, ReduceOp::Sum).unwrap();
        assert_eq!(got.shape(), p[0].shape());
        assert_eq!(bits(&got), bits(&p[0].add(&p[1]).unwrap()));
        // Nothing foreign was swallowed.
        for job in [0, 1] {
            let Some(WireMsg::Tensor(t)) = me.take(1, Some(job), Side::Worker, true) else {
                panic!("job {job}'s chunk went missing")
            };
            assert_eq!(bits(&t), bits(&foreign));
        }
        assert_eq!(bits(&me.recv(1)), bits(&foreign));
    }

    /// A zero-length contraction reduces empty sums: zeros of the
    /// output shape on every rank.
    #[test]
    fn zero_contraction_reduces_to_zeros() {
        let k = 2usize;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let a = Tensor::zeros([3, 0], DType::F32);
            let w = Tensor::zeros([0, 5], DType::F32);
            overlapped_matmul_all_reduce(&comm, group, &a, &w, ReduceOp::Sum).unwrap()
        });
        for got in &results {
            assert_eq!(got.shape(), &Shape::from([3, 5]));
            assert_eq!(bits(got), vec![0; 15]);
        }
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
