//! Tree collectives — the second logical topology NCCL builds (§5.1:
//! "NCCL creates logical topologies, such as ring and tree, over the
//! underlying interconnect network").
//!
//! Trees trade bandwidth for latency: a binomial-tree AllReduce takes
//! `2·log2(k)` hops instead of the ring's `2(k-1)` steps, which wins
//! for small messages at large rank counts — one of the effects behind
//! the paper's protocol/size crossovers. The generated kernels in the
//! paper use rings; this module is the reproduction's implementation of
//! the tree alternative, used by the ring-vs-tree ablation.

use coconet_compress::WireFormat;
use coconet_tensor::{ReduceOp, Tensor};

use crate::collectives::{
    clamp_channels, fold_hop, recv_striped, send_striped, wire_decode, wire_encode, Group,
};
use crate::RankComm;

/// Binomial-tree Reduce to group position 0, then binomial Broadcast —
/// an AllReduce in `2·ceil(log2(k))` rounds, every payload encoded per
/// `wire` and split into `channels` contiguous lane stripes.
///
/// Under FP16 each reduce-phase partial rounds to half precision as it
/// travels, and the root rounds its final value once before the
/// broadcast so every rank (the root included) returns the identical
/// decoded tensor. A fold whose result is the next payload (or the
/// root's broadcast value) writes it encoded, in one pass with the
/// decode of the incoming partial and the fold itself. Stripes are
/// zero-copy views of the encoded buffer that rejoin, still without a
/// copy, before each fold and each decode, so the wire byte total is
/// unchanged and the result bit-identical at every width;
/// `channels <= 1` sends whole payloads.
pub fn tree_all_reduce(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    wire: WireFormat,
    channels: usize,
) -> Tensor {
    let channels = clamp_channels(channels);
    let k = group.size;
    let pos = group.position(comm.rank());
    let dtype = input.dtype();
    // The partial, in the working dtype while another fold reads it;
    // the fold after which it travels writes it wire-encoded.
    let mut acc = input.clone();
    let mut encoded = false;

    // Reduce phase: at round d (1, 2, 4, ...), positions with the d bit
    // set send to (pos - d) and drop out; the rest receive and reduce.
    let mut d = 1usize;
    while d < k {
        if pos & d != 0 {
            let payload = if encoded {
                acc.clone()
            } else {
                wire_encode(&acc, wire)
            };
            send_striped(comm, group.rank_at(pos - d), payload, channels);
            break;
        } else if pos + d < k {
            let incoming = recv_striped(comm, group.rank_at(pos + d), channels);
            encoded = !folds_again(pos, k, d);
            acc = fold_hop(&acc, incoming, op, wire, encoded);
        }
        d <<= 1;
    }

    // Broadcast phase: mirror image, highest round first. The value
    // travels in wire encoding the whole way down (forwards are handle
    // copies of the encoded buffer) and every rank decodes at the end;
    // the root's once-through-the-codec round trip makes its value
    // bit-identical to everyone else's.
    if pos == 0 && !encoded {
        // A singleton group folds nothing; its value still goes
        // through the codec once.
        acc = wire_encode(&acc, wire);
    }
    let mut rounds = Vec::new();
    let mut e = 1usize;
    while e < k {
        rounds.push(e);
        e <<= 1;
    }
    for &d in rounds.iter().rev() {
        if pos & d != 0 {
            // This position received its reduced value in the reduce
            // phase partner's broadcast round.
            if pos & (d - 1) == 0 {
                acc = recv_striped(comm, group.rank_at(pos - d), channels);
            }
        } else if pos + d < k && pos & (d - 1) == 0 {
            send_striped(comm, group.rank_at(pos + d), acc.clone(), channels);
        }
    }
    wire_decode(acc, wire, dtype)
}

/// Whether position `pos` of a `k`-position binomial tree folds another
/// child's partial after round `d`'s, rather than sending its partial
/// to its parent (its next set bit) or — the root — broadcasting it.
fn folds_again(pos: usize, k: usize, d: usize) -> bool {
    let mut e = d << 1;
    while e < k && pos & e == 0 {
        if pos + e < k {
            return true;
        }
        e <<= 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_tensor::DType;
    use std::thread;

    fn run_tree(k: usize) -> Vec<Tensor> {
        let world = RankComm::world(k);
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| {
                thread::spawn(move || {
                    let group = Group { start: 0, size: k };
                    let input =
                        Tensor::from_fn([10], DType::F32, |i| ((comm.rank() + 1) * (i + 1)) as f32);
                    tree_all_reduce(&comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn tree_allreduce_matches_expected_sum() {
        for k in [1usize, 2, 3, 4, 5, 7, 8] {
            let results = run_tree(k);
            let rank_sum: usize = (1..=k).sum();
            for (r, t) in results.iter().enumerate() {
                for i in 0..10 {
                    assert_eq!(
                        t.get(i),
                        (rank_sum * (i + 1)) as f32,
                        "k={k} rank={r} elem={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn tree_matches_ring() {
        let k = 8;
        let world = RankComm::world(k);
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| {
                thread::spawn(move || {
                    let group = Group { start: 0, size: k };
                    let input =
                        Tensor::from_fn([13], DType::F32, |i| (comm.rank() * 31 + i * 7) as f32);
                    let tree =
                        tree_all_reduce(&comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1);
                    let ring = crate::ring_all_reduce(
                        &comm,
                        group,
                        &input,
                        ReduceOp::Sum,
                        WireFormat::Dense,
                        1,
                    );
                    (tree, ring)
                })
            })
            .collect();
        for h in handles {
            let (tree, ring) = h.join().unwrap();
            assert_eq!(tree.to_f32_vec(), ring.to_f32_vec());
        }
    }

    #[test]
    fn tree_min_max() {
        let k = 4;
        let world = RankComm::world(k);
        let handles: Vec<_> = world
            .into_iter()
            .map(|comm| {
                thread::spawn(move || {
                    let group = Group { start: 0, size: k };
                    let input = Tensor::full([3], DType::F32, comm.rank() as f32);
                    let mn =
                        tree_all_reduce(&comm, group, &input, ReduceOp::Min, WireFormat::Dense, 1);
                    let mx =
                        tree_all_reduce(&comm, group, &input, ReduceOp::Max, WireFormat::Dense, 1);
                    (mn, mx)
                })
            })
            .collect();
        for h in handles {
            let (mn, mx) = h.join().unwrap();
            assert_eq!(mn.get(0), 0.0);
            assert_eq!(mx.get(0), 3.0);
        }
    }
}
