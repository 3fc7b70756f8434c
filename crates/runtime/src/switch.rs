//! In-network aggregation: the emulated programmable-switch AllReduce.
//!
//! SwitchML's observation is that a programmable switch on the
//! reduction path can add quantized chunks *in flight*: every worker
//! sends its fixed-point contribution once, the switch folds the
//! streams with saturating integer adds, and multicasts the result
//! back. Per-worker wire volume is exactly `2·n` words — one copy up,
//! one copy down — **independent of the worker count**, where every
//! host-side algorithm pays a `(k−1)/k`-flavored factor per direction
//! and extra latency terms in `k`.
//!
//! The reproduction has no switch ASIC, so the group's position-0 rank
//! hosts the dataplane emulation on its own thread. Its dataplane
//! traffic is ledgered separately ([`BytesLedger::switch_bytes_sent`] /
//! [`switch_bytes_recv`]) so the per-worker `2·n` invariant is
//! assertable for *every* worker, including the host.
//!
//! Determinism contract: saturating integer addition is not
//! associative at the saturation boundary, so the dataplane waits for
//! every contribution and folds them in ascending group-position
//! order. The algorithm exists once, as the resumable `SwitchJob`:
//! [`switch_all_reduce`] parks on the channel for each leg, the
//! [`CommScheduler`](crate::CommScheduler) polls — same legs, same
//! fold, bit-identical results.
//!
//! [`BytesLedger::switch_bytes_sent`]: crate::BytesLedger::switch_bytes_sent
//! [`switch_bytes_recv`]: crate::BytesLedger::switch_bytes_recv

use coconet_compress::QuantChunk;
use coconet_tensor::{DType, ReduceOp, Shape, Tensor};
use coconet_trace as trace;
use coconet_trace::EventKind;

use crate::collectives::{lane_tag, Group};
use crate::comm::{RankComm, WireMsg};

/// Folds `contribs` in ascending position order — the one fold order
/// the switch uses, because saturating adds do not commute with
/// reassociation at the boundary.
fn fold_contributions(contribs: Vec<QuantChunk>, op: ReduceOp) -> QuantChunk {
    let _fold = trace::span(
        EventKind::CollectivePhase,
        "switch:fold",
        contribs.len() as u64,
        contribs.first().map_or(0, QuantChunk::wire_bytes),
    );
    let mut it = contribs.into_iter();
    let mut acc = it.next().expect("group has at least one worker");
    for c in it {
        acc.accumulate(&c, op);
    }
    acc
}

fn expect_quant(msg: WireMsg) -> QuantChunk {
    match msg {
        WireMsg::Quantized(c) => c,
        other => unreachable!("switch jobs carry quantized chunks only, got {other:?}"),
    }
}

/// An in-network switch AllReduce as a resumable state machine.
///
/// Every worker (the position-0 host included, via a self-send) sends
/// its quantized contribution up once; the position-0 rank's job
/// additionally runs the emulated dataplane — gathering all
/// contributions, folding them in ascending position order, and
/// multicasting the folded chunk — and every worker dequantizes the
/// multicast back into the input's dtype and shape. Worker legs are
/// ledgered worker-side (per class when scheduled); dataplane legs land
/// in the switch-attributed counters.
#[derive(Debug)]
pub(crate) struct SwitchJob {
    tag: u64,
    /// `Some` when scheduled, `None` for a blocking drive (hop
    /// instants then carry [`trace::JOB_NONE`]).
    class: Option<u8>,
    group: Group,
    op: ReduceOp,
    dtype: DType,
    shape: Shape,
    /// Quantized input awaiting its up-send.
    up: Option<QuantChunk>,
    /// Dataplane gather slots (non-empty on the position-0 host only).
    contribs: Vec<Option<QuantChunk>>,
    gathered: usize,
    multicast_done: bool,
    /// The dequantized result once the down multicast landed.
    result: Option<Tensor>,
}

impl SwitchJob {
    /// A switch AllReduce of `input` over `group`, tagged `tag` on the
    /// wire. The wire is always fixed-point `i32` — there is no
    /// [`WireFormat`](coconet_compress::WireFormat) to pass. Performs
    /// no communication.
    pub(crate) fn new(
        tag: u64,
        class: Option<u8>,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
    ) -> SwitchJob {
        let _codec = trace::span(EventKind::Codec, "q15:quantize", input.numel() as u64, tag);
        SwitchJob {
            tag,
            class,
            group,
            op,
            dtype: input.dtype(),
            shape: input.shape().clone(),
            up: Some(QuantChunk::quantize(input)),
            contribs: Vec::new(),
            gathered: 0,
            multicast_done: false,
            result: None,
        }
    }

    pub(crate) fn is_done(&self) -> bool {
        self.result.is_some()
    }

    /// Legs still ahead of this job: the up-send, the dataplane
    /// fold/multicast, and the down receive.
    pub(crate) fn remaining_hops(&self) -> usize {
        usize::from(self.up.is_some())
            + usize::from(!self.multicast_done)
            + usize::from(self.result.is_none())
    }

    pub(crate) fn take_result(self) -> Tensor {
        self.result.expect("take_result on an unfinished job")
    }

    /// Advances the job: sends the up copy if still pending, runs the
    /// dataplane gather/fold/multicast on the host, and takes the down
    /// multicast. With `block` every receive parks on the channel, so
    /// one call runs the job to completion; otherwise receives are
    /// non-blocking polls. Returns `true` if anything moved.
    pub(crate) fn advance(&mut self, comm: &RankComm, block: bool) -> bool {
        let me = self.group.position(comm.rank());
        let switch_rank = self.group.rank_at(0);
        let id = self.class.map_or(trace::JOB_NONE, |_| self.tag);
        let mut progressed = false;

        if let Some(q) = self.up.take() {
            trace::instant(EventKind::Hop, "switch:up", id, q.wire_bytes());
            comm.send_tagged(switch_rank, self.tag, self.class, WireMsg::Quantized(q));
            progressed = true;
        }

        if me == 0 && !self.multicast_done {
            if self.contribs.is_empty() {
                self.contribs = vec![None; self.group.size];
            }
            for pos in 0..self.group.size {
                if self.contribs[pos].is_none() {
                    let src = self.group.rank_at(pos);
                    let msg = if block {
                        Some(comm.recv_tagged_switch(src, self.tag))
                    } else {
                        comm.try_recv_tagged_switch(src, self.tag)
                    };
                    if let Some(msg) = msg {
                        self.contribs[pos] = Some(expect_quant(msg));
                        self.gathered += 1;
                        progressed = true;
                    }
                }
            }
            if self.gathered == self.group.size {
                let contribs = self
                    .contribs
                    .drain(..)
                    .map(|c| c.expect("all gathered"))
                    .collect();
                let folded = fold_contributions(contribs, self.op);
                for pos in 0..self.group.size {
                    trace::instant(EventKind::Hop, "switch:multicast", id, folded.wire_bytes());
                    comm.send_tagged_switch(
                        self.group.rank_at(pos),
                        self.tag,
                        WireMsg::Quantized(folded.clone()),
                    );
                }
                self.multicast_done = true;
                progressed = true;
            }
        }

        // The worker leg may only look for the down multicast once it
        // can exist — on the host rank the up copy sits in the same
        // self-channel under the same tag until the dataplane consumes
        // it, so looking earlier would swallow it.
        let down_may_exist = me != 0 || self.multicast_done;
        if self.result.is_none() && down_may_exist {
            let msg = if block {
                Some(comm.recv_tagged(switch_rank, self.tag))
            } else {
                comm.try_recv_tagged(switch_rank, self.tag)
            };
            if let Some(msg) = msg {
                let down = expect_quant(msg);
                trace::instant(EventKind::Hop, "switch:down", id, down.wire_bytes());
                let _codec = trace::span(EventKind::Codec, "q15:dequantize", down.len() as u64, id);
                let out = down
                    .dequantize(self.dtype)
                    .reshape(self.shape.clone())
                    .expect("dequantized chunk has the input's element count");
                self.result = Some(out);
                progressed = true;
            }
        }
        progressed
    }
}

/// Blocking AllReduce through the emulated aggregation switch: one
/// switch job driven to completion on the calling rank thread, parked
/// on the channel for each leg.
///
/// Wire cost per worker: `n·4` bytes sent, `n·4` bytes received — see
/// [`switch_all_reduce_wire_bytes`](crate::switch_all_reduce_wire_bytes).
/// The values carry the fixed-point round-trip error of
/// [`coconet_compress::quantize_value`] (≤ `2^-16` per contribution
/// before reduction); `Min`/`Max` are exact in ordering because the
/// quantizer is monotone.
///
/// # Panics
///
/// Panics if `comm.rank()` is not a member of `group`.
pub fn switch_all_reduce(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp) -> Tensor {
    let mut job = SwitchJob::new(lane_tag(None, 1, 0), None, group, input, op);
    job.advance(comm, true);
    job.take_result()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::ring_all_reduce;
    use coconet_compress::WireFormat;
    use coconet_tensor::DType;

    #[test]
    fn matches_ring_all_reduce_within_quantization_error() {
        for k in [2usize, 3, 5, 8] {
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::from_fn([4, 8], DType::F32, |i| {
                    ((comm.rank() * 37 + i) as f32).sin() * 3.0
                });
                let via_switch = switch_all_reduce(&comm, group, &input, ReduceOp::Sum);
                let via_ring =
                    ring_all_reduce(&comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1);
                (via_switch, via_ring)
            });
            for (rank, (s, r)) in results.iter().enumerate() {
                assert_eq!(s.shape(), r.shape(), "k={k} rank {rank}");
                for i in 0..s.numel() {
                    assert!(
                        (s.get(i) - r.get(i)).abs() < 1e-3,
                        "k={k} rank {rank} elem {i}: switch {} vs ring {}",
                        s.get(i),
                        r.get(i)
                    );
                }
            }
        }
    }

    #[test]
    fn all_workers_agree_bitwise() {
        let k = 7usize;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([32], DType::F32, |i| {
                (comm.rank() as f32 + 0.5) * (i as f32)
            });
            switch_all_reduce(&comm, group, &input, ReduceOp::Sum)
        });
        let reference = &results[0];
        for (rank, out) in results.iter().enumerate() {
            for i in 0..out.numel() {
                assert!(
                    out.get(i).to_bits() == reference.get(i).to_bits(),
                    "rank {rank} elem {i} diverges"
                );
            }
        }
    }

    #[test]
    fn min_and_max_are_exact_under_monotone_quantization() {
        let k = 4usize;
        for op in [ReduceOp::Min, ReduceOp::Max] {
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                // Values on the fixed-point lattice: exact round trips.
                let input = Tensor::from_fn([16], DType::F32, |i| {
                    (comm.rank() as f32 - 1.5) * 2.0 + i as f32
                });
                switch_all_reduce(&comm, group, &input, op)
            });
            for out in &results {
                for i in 0..out.numel() {
                    let want = (0..k).map(|r| (r as f32 - 1.5) * 2.0 + i as f32).fold(
                        if op == ReduceOp::Min {
                            f32::MAX
                        } else {
                            f32::MIN
                        },
                        |a, b| {
                            if op == ReduceOp::Min {
                                a.min(b)
                            } else {
                                a.max(b)
                            }
                        },
                    );
                    assert_eq!(out.get(i), want, "{op:?} elem {i}");
                }
            }
        }
    }

    #[test]
    fn subgroup_offsets_resolve_to_the_right_switch() {
        // Two disjoint groups of 2 inside a 4-rank world: each group's
        // position-0 rank hosts its own switch.
        let results = run_ranks(4, |comm| {
            let group = Group {
                start: (comm.rank() / 2) * 2,
                size: 2,
            };
            let input = Tensor::full([8], DType::F32, comm.rank() as f32 + 1.0);
            switch_all_reduce(&comm, group, &input, ReduceOp::Sum)
        });
        assert_eq!(results[0].get(0), 3.0); // ranks 0+1: 1+2
        assert_eq!(results[1].get(0), 3.0);
        assert_eq!(results[2].get(0), 7.0); // ranks 2+3: 3+4
        assert_eq!(results[3].get(0), 7.0);
    }
}
