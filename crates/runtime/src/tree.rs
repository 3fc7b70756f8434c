//! Tree collectives — the second logical topology NCCL builds (§5.1:
//! "NCCL creates logical topologies, such as ring and tree, over the
//! underlying interconnect network").
//!
//! Trees trade bandwidth for latency: a binomial-tree AllReduce takes
//! `2·log2(k)` hops instead of the ring's `2(k-1)` steps, which wins
//! for small messages at large rank counts — one of the effects behind
//! the paper's protocol/size crossovers. The generated kernels in the
//! paper use rings; this module is the reproduction's tree alternative,
//! one resumable job, used by the ring-vs-tree ablation.

use coconet_compress::WireFormat;
use coconet_tensor::{DType, ReduceOp, Tensor};
use coconet_trace as trace;
use coconet_trace::EventKind;

use crate::collectives::{
    fold_hop, join_stripes, lane_tag, stripes, wire_decode, wire_encode, Group,
};
use crate::comm::{RankComm, Side, WireMsg};

/// Position `pos`'s hops in a `k`-position binomial tree, as `(peer,
/// is a send)`: fold each child `pos + d` (`d` a power of two below
/// `pos`'s lowest set bit) nearest first, send up to the parent
/// `pos − lowbit(pos)`; then the mirror image, the broadcast.
fn hops(pos: usize, k: usize) -> Vec<(usize, bool)> {
    let rounds = (0..usize::BITS).map(|b| 1usize << b).take_while(|&d| d < k);
    let children: Vec<usize> = rounds
        .clone()
        .take_while(|&d| pos & d == 0)
        .filter(|&d| pos + d < k)
        .map(|d| pos + d)
        .collect();
    let parent = rounds.into_iter().find(|&d| pos & d != 0).map(|d| pos - d);
    let folds = children.iter().map(|&c| (c, false));
    let up_and_down = parent.into_iter().flat_map(|p| [(p, true), (p, false)]);
    let sends = children.iter().rev().map(|&c| (c, true));
    folds.chain(up_and_down).chain(sends).collect()
}

/// A binomial-tree AllReduce: the reduce to position 0, then the
/// broadcast, one hop per [`advance`](TreeJob::advance). A payload
/// travels encoded per `wire` as the tagged stripes of one buffer,
/// which rejoin without a copy — bytes and bits are the same at every
/// width. Under FP16 each partial rounds once as it travels (the fold
/// before writes it encoded) and the root's value once before the
/// broadcast, so every rank returns the identical decoded tensor.
#[derive(Debug)]
pub(crate) struct TreeJob {
    /// Each lane's wire tag.
    tags: Vec<u64>,
    /// Every hop instant's id: the caller's, or [`trace::JOB_NONE`].
    trace_id: u64,
    /// `Some` when scheduled, `None` for a blocking drive.
    class: Option<u8>,
    group: Group,
    op: ReduceOp,
    wire: WireFormat,
    dtype: DType,
    /// This position's [`hops`], filled on the first advance, and how
    /// many of them are done.
    hops: Vec<(usize, bool)>,
    at: usize,
    /// The partial, encoded from the hop it travels on.
    acc: Tensor,
    /// The stripes of the incoming payload taken so far.
    incoming: Vec<Tensor>,
}

impl TreeJob {
    /// A tree AllReduce of `input` over `group` on the wire tags of
    /// `job`. Performs no communication.
    pub(crate) fn new(
        job: Option<u64>,
        class: Option<u8>,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        wire: WireFormat,
        lanes: usize,
    ) -> TreeJob {
        // A singleton group folds nothing; its value still goes through
        // the codec once.
        let acc = match group.size {
            1 => wire_encode(input, wire),
            _ => input.clone(),
        };
        TreeJob {
            tags: (0..lanes).map(|lane| lane_tag(job, lanes, lane)).collect(),
            trace_id: class.map_or(trace::JOB_NONE, |_| lane_tag(job, 1, 0)),
            class,
            group,
            op,
            wire,
            dtype: input.dtype(),
            hops: Vec::new(),
            at: 0,
            acc,
            incoming: Vec::new(),
        }
    }

    /// The decoded value.
    pub(crate) fn take_result(self) -> Tensor {
        wire_decode(self.acc, self.wire, self.dtype)
    }

    pub(crate) fn advance(&mut self, comm: &RankComm, block: bool) -> bool {
        if self.is_done() {
            return false;
        }
        if self.hops.is_empty() {
            self.hops = hops(self.group.position(comm.rank()), self.group.size);
        }
        let (peer, send) = self.hops[self.at];
        let peer = self.group.rank_at(peer);
        if send {
            if self.at == 0 {
                // A leaf sends its input: the only unencoded payload.
                self.acc = wire_encode(&self.acc, self.wire);
            }
            for (lane, stripe) in stripes(&self.acc, self.tags.len()).into_iter().enumerate() {
                let (tag, bytes) = (self.tags[lane], stripe.size_bytes() as u64);
                trace::instant_lane(EventKind::Hop, "tree", lane as u32, self.trace_id, bytes);
                comm.send_tagged(peer, tag, self.class, WireMsg::Tensor(stripe));
            }
        } else {
            let taken = self.incoming.len();
            while let Some(&tag) = self.tags.get(self.incoming.len()) {
                match comm.take(peer, Some(tag), Side::Worker, block) {
                    Some(WireMsg::Tensor(stripe)) => self.incoming.push(stripe),
                    Some(msg) => unreachable!("tree jobs carry dense payloads only, got {msg:?}"),
                    None => return self.incoming.len() > taken,
                }
            }
            let incoming = join_stripes(std::mem::take(&mut self.incoming));
            self.acc = if self.hops[..self.at].iter().any(|&(_, sent)| sent) {
                // The broadcast value, encoded.
                incoming
            } else {
                // The fold after which the partial travels encodes it.
                let encode = !matches!(self.hops.get(self.at + 1), Some((_, false)));
                fold_hop(&self.acc, incoming, self.op, self.wire, encode)
            };
        }
        self.at += 1;
        true
    }

    pub(crate) fn is_done(&self) -> bool {
        self.group.size == 1 || (self.at > 0 && self.at == self.hops.len())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::all_reduce_wire_striped;
    use crate::compressed::tests::dense_ring;
    use coconet_core::CollAlgo;
    use std::thread;

    /// The blocking tree AllReduce through the dispatch: its one job
    /// under the blocking drive.
    pub(crate) fn tree_all_reduce(
        comm: &RankComm,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        wire: WireFormat,
        channels: usize,
    ) -> Tensor {
        let tree = CollAlgo::Tree;
        all_reduce_wire_striped(comm, group, input, op, tree, 0, wire, None, channels)
    }

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
                    let ring = dense_ring(&comm, group, &input, ReduceOp::Sum);
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
