//! The per-rank bytes-moved ledger.
//!
//! SparCML's observation — collective performance is governed by the
//! bytes actually moved — is the quantity this module measures. Every
//! [`RankComm`](crate::RankComm) endpoint counts the bytes and messages
//! it puts on (and takes off) the wire, and pairs them with the
//! [`coconet_tensor::alloc_stats`] counters of its rank thread, so a
//! test or bench can assert, not eyeball, that a collective moved
//! exactly its analytic wire volume and copied nothing beyond it.
//!
//! The flow is: call [`RankComm::reset_ledger`] *on the rank's own
//! thread* at the start of the region to meter, run the collective,
//! then read [`RankComm::ledger`]. Wire counters are exact from
//! construction; the allocation fields are deltas of the rank thread's
//! counters since the last reset (tensor allocations are thread-local,
//! so the baseline must be captured on the thread that will run).

use std::cell::Cell;

use coconet_tensor::{alloc_stats, AllocStats, DType};

/// One rank's data-movement measurements over a metered region.
///
/// Wire fields count logical tensor payloads (`numel × dtype size`) —
/// a handle transfer of an 8 MiB tensor is *accounted* as 8 MiB moved,
/// because that is what the modeled interconnect would carry — while
/// the allocation fields count what the rank's memory system actually
/// did. A zero-copy collective therefore shows full wire volume and
/// near-zero `cow_bytes`/`bytes_allocated`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BytesLedger {
    /// Bytes of tensor payload this rank sent.
    pub bytes_sent: u64,
    /// Messages this rank sent.
    pub sends: u64,
    /// Bytes of tensor payload this rank received.
    pub bytes_received: u64,
    /// Messages this rank received.
    pub recvs: u64,
    /// Buffer materializations on this rank's thread (fresh tensors
    /// plus copy-on-write copies).
    pub allocations: u64,
    /// Bytes of those materializations.
    pub bytes_allocated: u64,
    /// Copy-on-write materializations (shared buffer written).
    pub cow_copies: u64,
    /// Bytes copied by copy-on-write materializations.
    pub cow_bytes: u64,
    /// Bytes sent per priority class (class 0 = most urgent, consumed
    /// first by the next iteration; classes past
    /// [`PRIORITY_CLASSES`]`-1` clamp into the last bucket). Untagged
    /// traffic counts only in [`bytes_sent`](BytesLedger::bytes_sent),
    /// so these stay zero unless the priority scheduler ran — which is
    /// what lets a test assert the fabric actually reordered traffic.
    pub class_bytes_sent: [u64; PRIORITY_CLASSES],
    /// Bytes this rank moved while emulating the in-network aggregation
    /// switch's dataplane (multicasts of folded chunks). Kept out of
    /// [`bytes_sent`](BytesLedger::bytes_sent) because a real switch is
    /// not a worker: the per-worker `2·n` volume claim of
    /// `CollAlgo::Switch` must hold for the rank that hosts the
    /// emulation too.
    pub switch_bytes_sent: u64,
    /// Bytes received on the emulated switch dataplane (workers'
    /// quantized contributions), excluded from
    /// [`bytes_received`](BytesLedger::bytes_received) for the same
    /// reason.
    pub switch_bytes_recv: u64,
}

/// Number of distinct wire priority classes the ledger distinguishes.
pub const PRIORITY_CLASSES: usize = 8;

impl BytesLedger {
    pub(crate) fn from_parts(wire: WireCounters, alloc: AllocStats) -> BytesLedger {
        BytesLedger {
            bytes_sent: wire.bytes_sent,
            sends: wire.sends,
            bytes_received: wire.bytes_received,
            recvs: wire.recvs,
            allocations: alloc.allocations,
            bytes_allocated: alloc.bytes_allocated,
            cow_copies: alloc.cow_copies,
            cow_bytes: alloc.cow_bytes,
            class_bytes_sent: wire.class_bytes_sent,
            switch_bytes_sent: wire.switch_bytes_sent,
            switch_bytes_recv: wire.switch_bytes_recv,
        }
    }

    /// Bytes sent at priority classes strictly more urgent than
    /// `class` — the quantity a reordering assertion compares against
    /// a later class's progress.
    pub fn bytes_sent_before_class(&self, class: u8) -> u64 {
        self.class_bytes_sent
            .iter()
            .take((class as usize).min(PRIORITY_CLASSES))
            .sum()
    }
}

/// The analytic per-rank send volume of a ring AllReduce: ReduceScatter
/// plus AllGather each ship `(p−1)/p` of the tensor, so a rank sends
/// `2·(p−1)/p · n · dtype_size` bytes (exact when `p` divides `n`;
/// uneven chunks shift single elements between ranks). A `usize`
/// wrapper over [`coconet_compress::dense_ring_all_reduce_wire_bytes`].
pub fn ring_all_reduce_wire_bytes(n: usize, p: usize, dtype: DType) -> u64 {
    coconet_compress::dense_ring_all_reduce_wire_bytes(n as u64, p as u64, dtype)
}

/// The analytic per-rank send volume of the top-k sparse AllReduce at
/// `k_permille` density — `log2(p) · k · 8` bytes on power-of-two
/// groups (recursive doubling), `(p−1) · k · 8` on the AllGather form
/// — as the ledger measures it. A thin rank-count wrapper over
/// [`coconet_compress::sparse_all_reduce_wire_bytes`].
pub fn top_k_all_reduce_wire_bytes(n: usize, p: usize, k_permille: u16) -> u64 {
    let format = coconet_compress::WireFormat::TopK { k_permille };
    coconet_compress::sparse_all_reduce_wire_bytes(n as u64, p as u64, format.k_for(n as u64))
}

/// The analytic per-worker wire volume of the in-network switch
/// AllReduce: one quantized copy up to the switch plus one folded copy
/// back down — `2·n·4` bytes split evenly between
/// [`bytes_sent`](BytesLedger::bytes_sent) and
/// [`bytes_received`](BytesLedger::bytes_received), *independent of the
/// worker count*. A rank-geometry-free wrapper over
/// [`coconet_compress::switch_all_reduce_wire_bytes`].
pub fn switch_all_reduce_wire_bytes(n: usize) -> u64 {
    coconet_compress::switch_all_reduce_wire_bytes(n as u64)
}

/// Interior-mutable wire counters owned by a [`RankComm`]. Each rank
/// endpoint lives on exactly one thread, so plain `Cell`s suffice — no
/// atomics on the send path.
///
/// [`RankComm`]: crate::RankComm
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WireCounters {
    bytes_sent: u64,
    sends: u64,
    bytes_received: u64,
    recvs: u64,
    class_bytes_sent: [u64; PRIORITY_CLASSES],
    switch_bytes_sent: u64,
    switch_bytes_recv: u64,
}

/// The ledger state embedded in a [`RankComm`](crate::RankComm).
#[derive(Debug)]
pub(crate) struct LedgerState {
    wire: Cell<WireCounters>,
    alloc_base: Cell<AllocStats>,
}

impl WireCounters {
    fn add_send(mut self, bytes: u64) -> WireCounters {
        self.bytes_sent += bytes;
        self.sends += 1;
        self
    }

    fn add_send_class(mut self, class: u8, bytes: u64) -> WireCounters {
        self.class_bytes_sent[(class as usize).min(PRIORITY_CLASSES - 1)] += bytes;
        self.add_send(bytes)
    }

    fn add_recv(mut self, bytes: u64) -> WireCounters {
        self.bytes_received += bytes;
        self.recvs += 1;
        self
    }

    fn add_switch_send(mut self, bytes: u64) -> WireCounters {
        self.switch_bytes_sent += bytes;
        self
    }

    fn add_switch_recv(mut self, bytes: u64) -> WireCounters {
        self.switch_bytes_recv += bytes;
        self
    }
}

impl LedgerState {
    pub(crate) fn new() -> LedgerState {
        LedgerState {
            wire: Cell::new(WireCounters::default()),
            alloc_base: Cell::new(alloc_stats()),
        }
    }

    #[inline]
    pub(crate) fn record_send(&self, bytes: usize) {
        self.wire.set(self.wire.get().add_send(bytes as u64));
    }

    #[inline]
    pub(crate) fn record_send_class(&self, class: u8, bytes: usize) {
        self.wire
            .set(self.wire.get().add_send_class(class, bytes as u64));
    }

    #[inline]
    pub(crate) fn record_recv(&self, bytes: usize) {
        self.wire.set(self.wire.get().add_recv(bytes as u64));
    }

    #[inline]
    pub(crate) fn record_switch_send(&self, bytes: usize) {
        self.wire.set(self.wire.get().add_switch_send(bytes as u64));
    }

    #[inline]
    pub(crate) fn record_switch_recv(&self, bytes: usize) {
        self.wire.set(self.wire.get().add_switch_recv(bytes as u64));
    }

    pub(crate) fn reset(&self) {
        self.wire.set(WireCounters::default());
        self.alloc_base.set(alloc_stats());
    }

    pub(crate) fn snapshot(&self) -> BytesLedger {
        BytesLedger::from_parts(self.wire.get(), alloc_stats().since(self.alloc_base.get()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_counters_accumulate() {
        let state = LedgerState::new();
        state.reset();
        state.record_send(100);
        state.record_send(28);
        state.record_recv(64);
        let l = state.snapshot();
        assert_eq!(l.bytes_sent, 128);
        assert_eq!(l.sends, 2);
        assert_eq!(l.bytes_received, 64);
        assert_eq!(l.recvs, 1);
        state.reset();
        assert_eq!(state.snapshot().bytes_sent, 0);
    }

    #[test]
    fn class_counters_track_tagged_sends_only() {
        let state = LedgerState::new();
        state.reset();
        state.record_send(100); // untagged: no class bucket
        state.record_send_class(0, 8);
        state.record_send_class(2, 16);
        state.record_send_class(200, 32); // clamps into the last bucket
        let l = state.snapshot();
        assert_eq!(l.bytes_sent, 156);
        assert_eq!(l.sends, 4);
        assert_eq!(l.class_bytes_sent[0], 8);
        assert_eq!(l.class_bytes_sent[2], 16);
        assert_eq!(l.class_bytes_sent[PRIORITY_CLASSES - 1], 32);
        assert_eq!(l.class_bytes_sent.iter().sum::<u64>(), 56);
        assert_eq!(l.bytes_sent_before_class(1), 8);
        assert_eq!(l.bytes_sent_before_class(3), 24);
        assert_eq!(l.bytes_sent_before_class(255), 56);
        state.reset();
        assert_eq!(state.snapshot().class_bytes_sent, [0; PRIORITY_CLASSES]);
    }

    #[test]
    fn switch_counters_are_attributed_separately() {
        let state = LedgerState::new();
        state.reset();
        state.record_send(64); // this rank's own worker-side contribution
        state.record_switch_recv(64); // dataplane: gather k contributions
        state.record_switch_recv(64);
        state.record_switch_send(64); // dataplane: multicast the fold
        state.record_switch_send(64);
        state.record_recv(64); // worker-side folded result
        let l = state.snapshot();
        assert_eq!(l.bytes_sent, 64, "dataplane traffic must not leak in");
        assert_eq!(l.bytes_received, 64);
        assert_eq!(l.switch_bytes_sent, 128);
        assert_eq!(l.switch_bytes_recv, 128);
        state.reset();
        assert_eq!(state.snapshot().switch_bytes_sent, 0);
    }

    #[test]
    fn analytic_switch_volume_is_constant_in_worker_count() {
        let n = 1usize << 24;
        assert_eq!(switch_all_reduce_wire_bytes(n), 2 * (n as u64) * 4);
        // No rank-count parameter exists to vary — the signature itself
        // is the claim — but the ring volume it displaces grows with p.
        assert!(
            ring_all_reduce_wire_bytes(n, 2, DType::F32)
                < ring_all_reduce_wire_bytes(n, 32, DType::F32)
        );
    }

    #[test]
    fn analytic_ring_volume() {
        assert_eq!(ring_all_reduce_wire_bytes(16, 4, DType::F32), 96);
        assert_eq!(ring_all_reduce_wire_bytes(1 << 24, 8, DType::F32), {
            let n = 1u64 << 24;
            2 * 7 * (n / 8) * 4
        });
        assert_eq!(ring_all_reduce_wire_bytes(100, 1, DType::F16), 0);
    }

    #[test]
    fn alloc_delta_tracks_this_thread() {
        let state = LedgerState::new();
        state.reset();
        let _t = coconet_tensor::Tensor::zeros([64], DType::F32);
        let l = state.snapshot();
        assert_eq!(l.allocations, 1);
        assert_eq!(l.bytes_allocated, 256);
    }

    mod collective_volumes {
        use coconet_compress::WireFormat;
        use coconet_tensor::{DType, ReduceOp, Tensor};

        use crate::comm::run_ranks;
        use crate::hierarchical::hierarchical_all_reduce;
        use crate::tree::tree_all_reduce;
        use crate::{ring_all_reduce, ring_all_reduce_wire_bytes, BytesLedger, Group};

        fn metered<T: Send + 'static>(
            k: usize,
            f: impl Fn(&crate::RankComm, Group, Tensor) -> T + Send + Sync + Clone + 'static,
        ) -> Vec<(T, BytesLedger)> {
            run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::from_fn([64], DType::F32, |i| (comm.rank() * 100 + i) as f32);
                comm.reset_ledger();
                let out = f(&comm, group, input);
                (out, comm.ledger())
            })
        }

        /// The acceptance invariant: a ring AllReduce sends exactly the
        /// analytic `2·(p−1)/p·n·dtype_size` bytes per rank, and the
        /// only materializations are the `p−1` fused-fold stripes of
        /// the reduction (`(p−1)/p·n` in all) plus the final output
        /// buffer — sends are handle transfers, folds write fresh
        /// buffers, nothing is copied on write and nothing else is
        /// allocated.
        #[test]
        fn ring_all_reduce_moves_exactly_the_analytic_volume() {
            let (k, n, ds) = (4usize, 64usize, DType::F32.size_bytes());
            let results = metered(k, |comm, group, input| {
                ring_all_reduce(comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1)
            });
            let wire = ring_all_reduce_wire_bytes(n, k, DType::F32);
            assert_eq!(wire, (2 * (k - 1) * (n / k) * ds) as u64);
            for (rank, (out, l)) in results.iter().enumerate() {
                assert_eq!(out.numel(), n);
                assert_eq!(l.bytes_sent, wire, "rank {rank}");
                assert_eq!(l.bytes_received, wire, "rank {rank}");
                assert_eq!(l.sends, 2 * (k as u64 - 1), "rank {rank}");
                assert_eq!(l.cow_bytes, 0, "rank {rank}: {l:?}");
                assert_eq!(l.cow_copies, 0, "rank {rank}");
                // Each of the k-1 reduce-scatter hops folds into one
                // fresh chunk-sized buffer: (k-1)/k of the tensor.
                let folds = ((k - 1) * (n / k) * ds) as u64;
                // Plus exactly one more: the assembled output.
                assert_eq!(l.allocations, k as u64, "rank {rank}: {l:?}");
                assert_eq!(l.bytes_allocated, folds + (n * ds) as u64, "rank {rank}");
            }
        }

        /// A striped receive rejoins the stripes of the sent buffer as
        /// one view: it allocates nothing, at any width.
        #[test]
        fn striped_receive_allocates_nothing() {
            use crate::collectives::{recv_striped, send_striped};
            for channels in [1usize, 4, 5] {
                let results = metered(2, move |comm, _, input| {
                    if comm.rank() == 0 {
                        send_striped(comm, 1, input.clone(), channels);
                        input
                    } else {
                        recv_striped(comm, 0, channels)
                    }
                });
                let (received, l) = &results[1];
                assert_eq!(received.to_f32_vec(), results[0].0.to_f32_vec());
                assert_eq!(l.recvs, channels as u64);
                assert_eq!((l.allocations, l.cow_bytes), (0, 0), "c{channels}: {l:?}");
            }
        }

        /// Tree and hierarchical AllReduce materialize only their folds
        /// and their output, each element written once, at one lane and
        /// at four: striped receives rejoin without a copy, nothing is
        /// copied on write, and no buffer is zero-filled to be copied
        /// over. Per rank, in elements of the `n`-element input:
        ///
        /// * tree — the root folds its two children's partials (`2n`),
        ///   position 2 folds position 3's (`n`), the leaves fold
        ///   nothing and keep the broadcast view;
        /// * hierarchical, one rank per node — three superchunk folds
        ///   (`3n/4`) plus the output (`n`); the node partial is the
        ///   ReduceScatter's view of the input;
        /// * hierarchical, two ranks per node — the intra-node fold
        ///   (`n/2`) and the output (`n`) everywhere; a leader also
        ///   builds its node partial (`n`) and folds the other leader's
        ///   superchunk (`n/2`). At four lanes the intra-node
        ///   ReduceScatter joins its lanes' fold stripes (`n/2`).
        #[test]
        fn tree_and_hierarchical_allocate_only_folds_and_the_output() {
            let (k, n, ds) = (4usize, 64usize, DType::F32.size_bytes());
            let (op, wire) = (ReduceOp::Sum, WireFormat::Dense);
            let bytes = |elems: usize| (elems * ds) as u64;
            for channels in [1usize, 4] {
                let join = if channels > 1 { n / 2 } else { 0 };
                let tree = metered(k, move |comm, group, input| {
                    tree_all_reduce(comm, group, &input, op, wire, channels)
                });
                let flat = metered(k, move |comm, group, input| {
                    hierarchical_all_reduce(comm, group, &input, op, 1, wire, channels)
                });
                let paired = metered(k, move |comm, group, input| {
                    hierarchical_all_reduce(comm, group, &input, op, 2, wire, channels)
                });
                let cases = [
                    ("tree", tree, [2 * n, 0, n, 0]),
                    ("hier/1", flat, [7 * n / 4; 4]),
                    ("hier/2", paired, {
                        let (leader, member) = (3 * n + join, 3 * n / 2 + join);
                        [leader, member, leader, member]
                    }),
                ];
                for (algo, results, want) in cases {
                    for (rank, (out, l)) in results.iter().enumerate() {
                        assert_eq!(out.get(1), 4.0 + 600.0, "{algo} c{channels} rank {rank}");
                        assert_eq!(l.cow_bytes, 0, "{algo} c{channels} rank {rank}: {l:?}");
                        assert_eq!(
                            l.bytes_allocated,
                            bytes(want[rank]),
                            "{algo} c{channels} rank {rank}: {l:?}"
                        );
                    }
                }
            }
        }

        /// Tree AllReduce: every non-root sends its tensor once up the
        /// reduction tree, and every internal node sends once per child
        /// on the way down — `2(p−1)` tensor payloads in aggregate.
        #[test]
        fn tree_all_reduce_reports_analytic_volume() {
            let (k, n, ds) = (4usize, 64usize, DType::F32.size_bytes());
            let results = metered(k, |comm, group, input| {
                tree_all_reduce(comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1)
            });
            let total: u64 = results.iter().map(|(_, l)| l.bytes_sent).sum();
            assert_eq!(total, (2 * (k - 1) * n * ds) as u64);
            // Per-position: pos 0 (root) forwards to its log2(k)
            // subtree children; leaf pos 3 only sends its contribution.
            let payload = (n * ds) as u64;
            assert_eq!(
                results[0].1.bytes_sent,
                2 * payload,
                "root sends to 2 children"
            );
            assert_eq!(results[3].1.bytes_sent, payload, "leaf sends once");
        }

        /// Hierarchical AllReduce over 2 nodes of 2: phase-by-phase
        /// derivation for `p = 4`, `node_size = 2`, elements `n`
        /// divisible by 4 —
        ///
        /// leader (node position 0) sends, in elements:
        ///   RS: intra ring n/2, leader exchange n/2, member scatter n/4
        ///   AG: intra ring n/4, leader exchange n/2, member forward n/2
        ///   total 5n/2;
        /// member sends: intra RS n/2, chunk hand-off n/2, intra AG n/4
        ///   — total 5n/4.
        #[test]
        fn hierarchical_all_reduce_reports_analytic_volume() {
            let (k, n, ds) = (4usize, 64usize, DType::F32.size_bytes());
            let results = metered(k, |comm, group, input| {
                hierarchical_all_reduce(comm, group, &input, ReduceOp::Sum, 2, WireFormat::Dense, 1)
            });
            let leader = (5 * n / 2 * ds) as u64;
            let member = (5 * n / 4 * ds) as u64;
            for (rank, (out, l)) in results.iter().enumerate() {
                assert_eq!(out.numel(), n);
                let want = if rank % 2 == 0 { leader } else { member };
                assert_eq!(l.bytes_sent, want, "rank {rank}: {l:?}");
            }
            let total: u64 = results.iter().map(|(_, l)| l.bytes_sent).sum();
            assert_eq!(total, 2 * (leader + member));
        }

        /// The tentpole invariant: the in-network switch AllReduce
        /// moves exactly `n·4` bytes up and `n·4` bytes down per
        /// worker — *constant in the worker count* — and the rank
        /// hosting the switch emulation ledgers its dataplane traffic
        /// separately, so the `2·n` claim holds for it too.
        #[test]
        fn switch_all_reduce_moves_exactly_two_n_per_worker() {
            use crate::switch::switch_all_reduce;
            use crate::switch_all_reduce_wire_bytes;

            let n = 64usize;
            let per_worker = switch_all_reduce_wire_bytes(n);
            assert_eq!(per_worker, 2 * n as u64 * 4);
            for k in [2usize, 4, 8, 16] {
                let results = metered(k, |comm, group, input| {
                    switch_all_reduce(comm, group, &input, ReduceOp::Sum)
                });
                for (rank, (out, l)) in results.iter().enumerate() {
                    assert_eq!(out.numel(), n);
                    // Element 0 sums rank·100 over the group; the
                    // fixed-point round trip is exact on integers.
                    let want = (0..k).map(|r| (r * 100) as f32).sum::<f32>();
                    assert!((out.get(0) - want).abs() < 1e-3, "k={k} rank {rank}");
                    assert_eq!(l.bytes_sent, per_worker / 2, "k={k} rank {rank}: {l:?}");
                    assert_eq!(l.bytes_received, per_worker / 2, "k={k} rank {rank}");
                    assert_eq!(l.sends, 1, "k={k} rank {rank}");
                    assert_eq!(l.recvs, 1, "k={k} rank {rank}");
                    let dataplane = if rank == 0 {
                        k as u64 * per_worker / 2
                    } else {
                        0
                    };
                    assert_eq!(l.switch_bytes_sent, dataplane, "k={k} rank {rank}");
                    assert_eq!(l.switch_bytes_recv, dataplane, "k={k} rank {rank}");
                }
            }
        }

        /// The FP16 wire halves every collective's volume on F32
        /// payloads — ring, tree, and hierarchical AllReduce all move
        /// exactly half their dense bytes, to the byte (every payload
        /// is the same element count at two bytes per element). The
        /// switch is the exception that proves its design: its wire is
        /// always the fixed-point `i32` word, so FP16 changes nothing.
        #[test]
        fn fp16_wire_moves_exactly_half_the_dense_bytes() {
            use crate::compressed::all_reduce_wire_striped;
            use coconet_core::CollAlgo;

            let k = 4usize;
            for algo in CollAlgo::ALL {
                let results = run_ranks(k, move |comm| {
                    let group = Group { start: 0, size: k };
                    let input =
                        Tensor::from_fn([64], DType::F32, |i| (comm.rank() * 100 + i) as f32);
                    comm.reset_ledger();
                    let _ = all_reduce_wire_striped(
                        &comm,
                        group,
                        &input,
                        ReduceOp::Sum,
                        algo,
                        2,
                        WireFormat::Dense,
                        None,
                        1,
                    );
                    let dense = comm.ledger();
                    comm.reset_ledger();
                    let _ = all_reduce_wire_striped(
                        &comm,
                        group,
                        &input,
                        ReduceOp::Sum,
                        algo,
                        2,
                        WireFormat::Fp16,
                        None,
                        1,
                    );
                    (dense, comm.ledger())
                });
                for (rank, (dense, fp16)) in results.iter().enumerate() {
                    if algo == CollAlgo::Switch {
                        assert_eq!(
                            fp16.bytes_sent, dense.bytes_sent,
                            "{algo} rank {rank}: the switch wire is i32 either way"
                        );
                    } else {
                        assert_eq!(
                            2 * fp16.bytes_sent,
                            dense.bytes_sent,
                            "{algo} rank {rank}: fp16 {fp16:?} vs dense {dense:?}"
                        );
                    }
                    assert_eq!(fp16.sends, dense.sends, "{algo} rank {rank}: same messages");
                }
                // And the ring's dense reference is itself the analytic
                // volume, so fp16 == the analytic F16 formula.
                if algo == CollAlgo::Ring {
                    let (_, fp16) = results[0];
                    assert_eq!(
                        fp16.bytes_sent,
                        ring_all_reduce_wire_bytes(64, k, DType::F16)
                    );
                }
            }
        }

        /// The sparse AllReduce moves exactly its analytic volume —
        /// `log2(p) · k · 8` per rank on power-of-two groups
        /// (recursive doubling), `(p−1) · k · 8` on the AllGather form
        /// — independent of the data, because every chunk is padded to
        /// exactly `k` entries.
        #[test]
        fn top_k_all_reduce_moves_exactly_the_analytic_volume() {
            use crate::compressed::sparse_all_reduce;
            use crate::top_k_all_reduce_wire_bytes;

            let n = 1000usize;
            let k_permille = 10u16; // k = 10 entries of 8 bytes
            for p in [8usize, 6] {
                let results = run_ranks(p, move |comm| {
                    let group = Group { start: 0, size: p };
                    // Concentrated data on rank 0, spread on others —
                    // the volume must not care.
                    let input = Tensor::from_fn([n], DType::F32, |i| {
                        if comm.rank() == 0 && i < 5 {
                            1000.0
                        } else {
                            (comm.rank() * 31 + i) as f32 / 97.0
                        }
                    });
                    comm.reset_ledger();
                    let _ = sparse_all_reduce(
                        &comm,
                        group,
                        &input,
                        WireFormat::TopK { k_permille },
                        None,
                    );
                    comm.ledger()
                });
                let want = top_k_all_reduce_wire_bytes(n, p, k_permille);
                let rounds = if p.is_power_of_two() {
                    p.ilog2() as u64
                } else {
                    p as u64 - 1
                };
                assert_eq!(want, rounds * 10 * 8, "p={p}");
                for (rank, l) in results.iter().enumerate() {
                    assert_eq!(l.bytes_sent, want, "p={p} rank {rank}: {l:?}");
                    assert_eq!(l.bytes_received, want, "p={p} rank {rank}");
                    assert_eq!(l.sends, rounds, "p={p} rank {rank}");
                }
            }
        }

        /// The acceptance volumes at the criterion's own geometry
        /// (8 ranks): top-k at 10 ‰ moves under 5 % of the dense wire
        /// bytes, FP16 moves exactly half. The release-size (2^24)
        /// measurement lives in the bench trajectory; the ratios are
        /// size-independent, which this pins at test size.
        #[test]
        fn compressed_volume_acceptance_ratios() {
            use crate::top_k_all_reduce_wire_bytes;
            let (n, p) = (1 << 14, 8);
            let dense = ring_all_reduce_wire_bytes(n, p, DType::F32);
            let fp16 = ring_all_reduce_wire_bytes(n, p, DType::F16);
            let topk = top_k_all_reduce_wire_bytes(n, p, 10);
            assert_eq!(2 * fp16, dense);
            assert!(
                (topk as f64) < 0.05 * dense as f64,
                "topk {topk} vs dense {dense}"
            );
        }

        /// Metering is per region: a reset between two collectives
        /// isolates the second one's traffic.
        #[test]
        fn reset_isolates_regions() {
            let k = 2;
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::from_fn([8], DType::F32, |i| i as f32);
                comm.reset_ledger();
                let _ = ring_all_reduce(&comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1);
                let first = comm.ledger();
                comm.reset_ledger();
                let _ = ring_all_reduce(&comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1);
                (first, comm.ledger())
            });
            for (first, second) in results {
                assert_eq!(first.bytes_sent, second.bytes_sent);
                assert_eq!(
                    first.bytes_sent,
                    ring_all_reduce_wire_bytes(8, 2, DType::F32)
                );
            }
        }
    }
}
