//! Point-to-point message fabric between rank threads.
//!
//! Each simulated rank runs on its own OS thread; every ordered pair of
//! ranks gets an unbounded crossbeam channel. This is the substrate the
//! ring collectives move real tensor data over — the reproduction's
//! stand-in for NVLink/InfiniBand transports.
//!
//! The fabric is format-agnostic: a message is either a dense tensor
//! (possibly FP16-encoded by a compressed collective) or a
//! [`SparseChunk`] of a top-k sparsified stream, and the embedded
//! [`BytesLedger`] accounts each at its *wire* size — which is exactly
//! how the compression subsystem's volume claims become assertable.

use std::cell::RefCell;
use std::collections::VecDeque;

use coconet_compress::QuantChunk;
use coconet_tensor::{SparseChunk, Tensor};
use coconet_trace as trace;
use coconet_trace::metrics::Counter;
use coconet_trace::EventKind;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::ledger::{BytesLedger, LedgerState};

/// One message on the wire: a dense tensor payload, a sparse
/// `(index, value)` chunk, or a fixed-point quantized chunk bound for
/// (or folded by) the emulated aggregation switch.
#[derive(Clone, Debug)]
pub enum WireMsg {
    /// A dense tensor (a copy-on-write buffer handle).
    Tensor(Tensor),
    /// A top-k sparsified chunk.
    Sparse(SparseChunk),
    /// A fixed-point quantized chunk of the in-network switch
    /// AllReduce — `i32` words on the wire regardless of payload dtype.
    Quantized(QuantChunk),
}

impl WireMsg {
    /// The bytes this message occupies on the modeled interconnect —
    /// what the [`BytesLedger`] records.
    pub fn wire_bytes(&self) -> usize {
        match self {
            WireMsg::Tensor(t) => t.size_bytes(),
            WireMsg::Sparse(c) => c.wire_bytes(),
            WireMsg::Quantized(c) => c.wire_bytes() as usize,
        }
    }
}

/// What actually travels through a channel: either a plain
/// point-to-point message (tree and hierarchical hops, the sparse
/// exchange, pipeline sends), or a *tagged* message — one hop of a
/// ring lane or switch job, whether a blocking drive or the priority
/// scheduler runs it. Tags let a receiver pull messages for one job
/// without disturbing the FIFO stream of another, so jobs complete in
/// any order.
#[derive(Clone, Debug)]
enum Packet {
    /// An untagged message, delivered in per-source FIFO order.
    Plain(WireMsg),
    /// One chunk of job `job` (the class it was sent at is recorded in
    /// the sender's ledger; the receiver routes by job alone).
    Tagged { job: u64, msg: WireMsg },
}

/// One rank's endpoints into the world: senders to every rank and
/// receivers from every rank.
///
/// Sending a tensor transfers its copy-on-write buffer handle through
/// the channel — no element data is copied — while the embedded
/// [`BytesLedger`] accounts the logical payload as wire traffic, so
/// data movement stays measurable even though nothing is duplicated.
#[derive(Debug)]
pub struct RankComm {
    rank: usize,
    world: usize,
    to: Vec<Sender<Packet>>,
    from: Vec<Receiver<Packet>>,
    /// Per-source stash of plain messages pulled off the channel while
    /// looking for a tagged one (and vice versa). Within one source the
    /// channel is FIFO, so stashing preserves each protocol's order.
    plain_stash: Vec<RefCell<VecDeque<WireMsg>>>,
    tagged_stash: Vec<RefCell<VecDeque<(u64, WireMsg)>>>,
    ledger: LedgerState,
}

impl RankComm {
    /// Creates the full communication world for `world` ranks,
    /// returning one endpoint per rank.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    #[allow(clippy::needless_range_loop)] // (src, dst) matrix wiring
    pub fn world(world: usize) -> Vec<RankComm> {
        assert!(world > 0, "world must have at least one rank");
        // channels[src][dst]
        let mut senders: Vec<Vec<Sender<Packet>>> = Vec::with_capacity(world);
        let mut receivers: Vec<Vec<Option<Receiver<Packet>>>> = (0..world)
            .map(|_| (0..world).map(|_| None).collect())
            .collect();
        for src in 0..world {
            let mut row = Vec::with_capacity(world);
            for dst in 0..world {
                let (tx, rx) = unbounded();
                row.push(tx);
                receivers[dst][src] = Some(rx);
            }
            senders.push(row);
        }
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (to, from))| RankComm {
                rank,
                world,
                to,
                from: from.into_iter().map(|r| r.expect("filled above")).collect(),
                plain_stash: (0..world).map(|_| RefCell::new(VecDeque::new())).collect(),
                tagged_stash: (0..world).map(|_| RefCell::new(VecDeque::new())).collect(),
                ledger: LedgerState::new(),
            })
            .collect()
    }

    /// This endpoint's global rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Sends a tensor to `dst` — a buffer-handle transfer, accounted
    /// in this rank's [`BytesLedger`] at the tensor's payload size.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or the destination endpoint was
    /// dropped (a peer thread panicked).
    pub fn send(&self, dst: usize, tensor: Tensor) {
        self.send_msg(dst, WireMsg::Tensor(tensor));
    }

    /// Sends a sparse chunk to `dst`, accounted at its
    /// [`wire_bytes`](SparseChunk::wire_bytes) — the compressed size is
    /// what the modeled interconnect carries.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or the destination endpoint was
    /// dropped.
    pub fn send_sparse(&self, dst: usize, chunk: SparseChunk) {
        self.send_msg(dst, WireMsg::Sparse(chunk));
    }

    /// Sends a raw (untagged) wire message to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or the destination endpoint was
    /// dropped.
    pub fn send_msg(&self, dst: usize, msg: WireMsg) {
        let bytes = msg.wire_bytes() as u64;
        // Blocking-path hops carry no job id ([`coconet_trace::JOB_NONE`]):
        // their wall time is covered by the enclosing collective-phase span.
        trace::instant(EventKind::Hop, "send", trace::JOB_NONE, bytes);
        trace::metrics::add_counter(Counter::WireBytes, bytes);
        self.ledger.record_send(msg.wire_bytes());
        self.to[dst]
            .send(Packet::Plain(msg))
            .unwrap_or_else(|_| panic!("rank {dst} hung up"));
    }

    /// Sends one tagged chunk of job `job` to `dst`. A scheduled job
    /// passes its priority `class` (0 = most urgent): the bytes are
    /// accounted both in the aggregate wire counters and in the
    /// per-class bucket, so the ledger can later prove in which order
    /// the scheduler drained its queues. A blocking drive passes `None`:
    /// its hops are framed by tag like any lane's but ledgered as plain
    /// unclassed traffic.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or the destination endpoint was
    /// dropped.
    pub fn send_tagged(&self, dst: usize, job: u64, class: Option<u8>, msg: WireMsg) {
        // The per-hop trace instant (with lane attribution) is emitted
        // by the job state machines; only the volume counter lives here.
        trace::metrics::add_counter(Counter::WireBytes, msg.wire_bytes() as u64);
        match class {
            Some(class) => self.ledger.record_send_class(class, msg.wire_bytes()),
            None => self.ledger.record_send(msg.wire_bytes()),
        }
        self.to[dst]
            .send(Packet::Tagged { job, msg })
            .unwrap_or_else(|_| panic!("rank {dst} hung up"));
    }

    /// Sends job `job`'s folded chunk *as the emulated aggregation
    /// switch* — the multicast leg of `CollAlgo::Switch`. Accounted in
    /// the switch-attributed ledger counters
    /// ([`BytesLedger::switch_bytes_sent`]), not the worker-side ones,
    /// and at no priority class: a real switch is not a worker, so the
    /// rank hosting the emulation must still satisfy the per-worker
    /// `2·n` volume invariant.
    ///
    /// # Panics
    ///
    /// Panics if `dst` is out of range or the destination endpoint was
    /// dropped.
    pub fn send_tagged_switch(&self, dst: usize, job: u64, msg: WireMsg) {
        trace::metrics::add_counter(Counter::SwitchBytes, msg.wire_bytes() as u64);
        self.ledger.record_switch_send(msg.wire_bytes());
        self.to[dst]
            .send(Packet::Tagged { job, msg })
            .unwrap_or_else(|_| panic!("rank {dst} hung up"));
    }

    /// Receives the next tensor sent by `src` (blocking).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range, the source endpoint was
    /// dropped without sending, or the next message is a sparse chunk
    /// (a collective protocol mismatch).
    pub fn recv(&self, src: usize) -> Tensor {
        match self.recv_msg(src) {
            WireMsg::Tensor(t) => t,
            other => panic!("rank {src} sent {other:?} where a tensor was expected"),
        }
    }

    /// Receives the next sparse chunk sent by `src` (blocking).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range, the source endpoint was
    /// dropped, or the next message is a dense tensor.
    pub fn recv_sparse(&self, src: usize) -> SparseChunk {
        match self.recv_msg(src) {
            WireMsg::Sparse(c) => c,
            other => panic!("rank {src} sent {other:?} where a sparse chunk was expected"),
        }
    }

    /// Receives the next wire message sent by `src` (blocking).
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or the source endpoint was
    /// dropped without sending.
    pub fn recv_msg(&self, src: usize) -> WireMsg {
        if let Some(msg) = self.plain_stash[src].borrow_mut().pop_front() {
            return msg;
        }
        loop {
            match self.pull(src, false) {
                Packet::Plain(msg) => return msg,
                Packet::Tagged { job, msg, .. } => {
                    self.tagged_stash[src].borrow_mut().push_back((job, msg));
                }
            }
        }
    }

    /// Receives the next chunk of job `job` from `src`, parked on the
    /// channel until it arrives. Plain messages and other jobs' chunks
    /// encountered on the way are stashed, preserving their per-source
    /// FIFO order — a later-issued job can therefore complete before an
    /// earlier one without corrupting either stream.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or the source endpoint was
    /// dropped without sending.
    pub fn recv_tagged(&self, src: usize, job: u64) -> WireMsg {
        self.recv_tagged_attr(src, job, false)
    }

    /// Blocking tagged receive *as the emulated aggregation switch* —
    /// the gather leg of `CollAlgo::Switch`. The bytes land in
    /// [`BytesLedger::switch_bytes_recv`] instead of the worker-side
    /// counters. Attribution happens at pull time: a message stashed
    /// while the dataplane was draining keeps its switch attribution
    /// even if a worker-side call later consumes it.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range or the source endpoint was
    /// dropped without sending.
    pub fn recv_tagged_switch(&self, src: usize, job: u64) -> WireMsg {
        self.recv_tagged_attr(src, job, true)
    }

    fn recv_tagged_attr(&self, src: usize, job: u64, switch_side: bool) -> WireMsg {
        if let Some(msg) = self.take_stashed_tagged(src, job) {
            return msg;
        }
        loop {
            match self.pull(src, switch_side) {
                Packet::Plain(msg) => self.plain_stash[src].borrow_mut().push_back(msg),
                Packet::Tagged { job: j, msg, .. } => {
                    if j == job {
                        return msg;
                    }
                    self.tagged_stash[src].borrow_mut().push_back((j, msg));
                }
            }
        }
    }

    /// Non-blocking [`recv_tagged`](RankComm::recv_tagged): drains
    /// whatever has already arrived from `src` and returns `job`'s next
    /// chunk if it is among it.
    pub fn try_recv_tagged(&self, src: usize, job: u64) -> Option<WireMsg> {
        self.try_recv_tagged_attr(src, job, false)
    }

    /// Non-blocking [`recv_tagged_switch`](RankComm::recv_tagged_switch)
    /// — the gather leg of a scheduled switch job.
    pub fn try_recv_tagged_switch(&self, src: usize, job: u64) -> Option<WireMsg> {
        self.try_recv_tagged_attr(src, job, true)
    }

    fn try_recv_tagged_attr(&self, src: usize, job: u64, switch_side: bool) -> Option<WireMsg> {
        if let Some(msg) = self.take_stashed_tagged(src, job) {
            return Some(msg);
        }
        while let Ok(packet) = self.from[src].try_recv() {
            self.record_pulled(&packet, switch_side);
            match packet {
                Packet::Plain(msg) => self.plain_stash[src].borrow_mut().push_back(msg),
                Packet::Tagged { job: j, msg, .. } => {
                    if j == job {
                        return Some(msg);
                    }
                    self.tagged_stash[src].borrow_mut().push_back((j, msg));
                }
            }
        }
        None
    }

    /// Pulls the next packet off `src`'s channel, recording its wire
    /// bytes as received — on the worker-side or switch-side counters
    /// per `switch_side`.
    fn pull(&self, src: usize, switch_side: bool) -> Packet {
        let packet = self.from[src]
            .recv()
            .unwrap_or_else(|_| panic!("rank {src} hung up"));
        self.record_pulled(&packet, switch_side);
        packet
    }

    fn record_pulled(&self, packet: &Packet, switch_side: bool) {
        let bytes = match packet {
            Packet::Plain(m) | Packet::Tagged { msg: m, .. } => m.wire_bytes(),
        };
        if switch_side {
            self.ledger.record_switch_recv(bytes);
        } else {
            self.ledger.record_recv(bytes);
        }
    }

    /// Removes and returns `job`'s first stashed chunk from `src`.
    fn take_stashed_tagged(&self, src: usize, job: u64) -> Option<WireMsg> {
        let mut stash = self.tagged_stash[src].borrow_mut();
        let pos = stash.iter().position(|(j, _)| *j == job)?;
        Some(stash.remove(pos).expect("position just found").1)
    }

    /// Zeroes this rank's [`BytesLedger`] and re-baselines the
    /// allocation counters against the *calling thread* — call it on
    /// the rank's own thread at the start of the region to meter.
    pub fn reset_ledger(&self) {
        self.ledger.reset();
    }

    /// This rank's data-movement measurements since the last
    /// [`reset_ledger`](RankComm::reset_ledger) (or construction, for
    /// the wire counters).
    pub fn ledger(&self) -> BytesLedger {
        self.ledger.snapshot()
    }
}

/// Runs `f` on `k` rank threads over a fresh communication world and
/// returns the per-rank results in rank order — the harness the
/// collective test suites (unit and integration) drive the message
/// fabric with.
///
/// # Panics
///
/// Panics if any rank thread panics.
pub fn run_ranks<T: Send + 'static>(
    k: usize,
    f: impl Fn(RankComm) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let world = RankComm::world(k);
    let handles: Vec<_> = world
        .into_iter()
        .map(|comm| {
            let f = f.clone();
            std::thread::spawn(move || {
                // Attribute this thread's trace events to its rank so
                // the exporter renders one process per rank.
                trace::set_thread_rank(comm.rank() as u32);
                f(comm)
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank panicked"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_tensor::DType;
    use std::thread;

    #[test]
    fn pairwise_messaging() {
        let mut world = RankComm::world(3);
        let c2 = world.pop().unwrap();
        let c1 = world.pop().unwrap();
        let c0 = world.pop().unwrap();
        assert_eq!(c0.rank(), 0);
        assert_eq!(c2.world_size(), 3);

        let t = thread::spawn(move || {
            c1.send(2, Tensor::full([2], DType::F32, 1.0));
            c1.send(0, Tensor::full([2], DType::F32, 5.0));
            let from0 = c1.recv(0);
            assert_eq!(from0.get(0), 9.0);
        });
        c0.send(1, Tensor::full([2], DType::F32, 9.0));
        let from1 = c0.recv(1);
        assert_eq!(from1.get(0), 5.0);
        let from1_at_2 = c2.recv(1);
        assert_eq!(from1_at_2.get(0), 1.0);
        t.join().unwrap();
    }

    #[test]
    fn messages_from_same_source_are_ordered() {
        let mut world = RankComm::world(2);
        let c1 = world.pop().unwrap();
        let c0 = world.pop().unwrap();
        for i in 0..10 {
            c0.send(1, Tensor::full([1], DType::F32, i as f32));
        }
        for i in 0..10 {
            assert_eq!(c1.recv(0).get(0), i as f32);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn empty_world_panics() {
        RankComm::world(0);
    }

    /// Tagged jobs and the plain blocking protocol share one channel
    /// without disturbing each other: a receiver may consume them in
    /// any interleaving, each stream staying FIFO.
    #[test]
    fn tagged_and_plain_streams_are_independent() {
        let mut world = RankComm::world(2);
        let c1 = world.pop().unwrap();
        let c0 = world.pop().unwrap();
        c0.send_tagged(
            1,
            7,
            Some(0),
            WireMsg::Tensor(Tensor::full([1], DType::F32, 70.0)),
        );
        c0.send(1, Tensor::full([1], DType::F32, 1.0));
        c0.send_tagged(
            1,
            9,
            Some(3),
            WireMsg::Tensor(Tensor::full([1], DType::F32, 90.0)),
        );
        c0.send_tagged(
            1,
            7,
            Some(0),
            WireMsg::Tensor(Tensor::full([1], DType::F32, 71.0)),
        );
        c0.send(1, Tensor::full([1], DType::F32, 2.0));

        // Pull the later-issued job first: earlier traffic is stashed.
        match c1.recv_tagged(0, 9) {
            WireMsg::Tensor(t) => assert_eq!(t.get(0), 90.0),
            other => panic!("unexpected {other:?}"),
        }
        // The plain stream still arrives in order.
        assert_eq!(c1.recv(0).get(0), 1.0);
        // Job 7's chunks kept their own order.
        match c1.recv_tagged(0, 7) {
            WireMsg::Tensor(t) => assert_eq!(t.get(0), 70.0),
            other => panic!("unexpected {other:?}"),
        }
        match c1.try_recv_tagged(0, 7) {
            Some(WireMsg::Tensor(t)) => assert_eq!(t.get(0), 71.0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c1.recv(0).get(0), 2.0);
        // Nothing left of either job.
        assert!(c1.try_recv_tagged(0, 7).is_none());
        assert!(c1.try_recv_tagged(0, 9).is_none());

        // The sender's ledger split the traffic by class: job 7 (class
        // 0) sent 8 bytes, job 9 (class 3) sent 4, plain sent 8 more.
        let l = c0.ledger();
        assert_eq!(l.class_bytes_sent[0], 8);
        assert_eq!(l.class_bytes_sent[3], 4);
        assert_eq!(l.bytes_sent, 20);
        // The receiver counted every byte exactly once.
        assert_eq!(c1.ledger().bytes_received, 20);
    }
}
