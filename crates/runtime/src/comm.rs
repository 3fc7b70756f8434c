//! Point-to-point message fabric between rank threads.
//!
//! Each simulated rank runs on its own OS thread and owns one *inbox*:
//! an unbounded channel of `(src, packet)` whose sender every rank
//! holds a clone of. This is the substrate the collectives move real
//! tensor data over — the reproduction's stand-in for NVLink/InfiniBand
//! transports.
//!
//! A message belongs to one *stream* of its source: the plain stream
//! (hierarchical hops, broadcast, reduce, pipeline sends) or the tagged
//! stream of one lane of an AllReduce job — ring, tree, switch or
//! sparse exchange. One source's packets arrive in the order it sent
//! them, and a receive takes the first message of the stream it names;
//! what it pulls off the inbox on the way waits in one stash keyed by
//! `(src, stream)`, so every stream stays FIFO and jobs complete in any
//! order. Dropping an endpoint posts a *hang-up marker* to every peer,
//! behind its last message: a receive, blocking or polled, whose source
//! hung up with nothing of the stream left panics with `rank N hung up`.
//!
//! The fabric is format-agnostic: a message is a dense tensor (possibly
//! FP16-encoded by a compressed collective), a [`SparseChunk`] of a
//! top-k sparsified stream or a switch job's quantized chunk, and the
//! embedded [`BytesLedger`] accounts each at its *wire* size — which is
//! exactly how the compression subsystem's volume claims become
//! assertable. Received bytes are ledgered when a message is taken, on
//! the taker's (worker or switch) counters.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;

use coconet_compress::QuantChunk;
use coconet_tensor::{kernels, SparseChunk, Tensor};
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

/// What a source posts into an inbox.
#[derive(Debug)]
enum Packet {
    /// One message of stream `key`: `None` is the plain stream,
    /// `Some(tag)` the stream of the ring lane or switch job tagged so.
    Msg(Option<u64>, WireMsg),
    /// The source dropped its endpoint; nothing follows.
    HungUp,
}

/// Whose counters a taken message's bytes land in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Side {
    /// The rank's own worker-side counters.
    Worker,
    /// The emulated aggregation switch's gather
    /// ([`BytesLedger::switch_bytes_recv`]).
    Switch,
}

/// One rank's endpoint into the world: a sender into every rank's
/// inbox, and its own inbox.
///
/// Sending a tensor transfers its copy-on-write buffer handle through
/// the channel — no element data is copied — while the embedded
/// [`BytesLedger`] accounts the logical payload as wire traffic, so
/// data movement stays measurable even though nothing is duplicated.
#[derive(Debug)]
pub struct RankComm {
    rank: usize,
    world: usize,
    /// Senders into every rank's inbox, this rank's own included.
    to: Vec<Sender<(usize, Packet)>>,
    inbox: Receiver<(usize, Packet)>,
    /// Packets pulled off the inbox and not yet taken, in arrival
    /// order — the one stash every `(src, stream)` lookup scans.
    stash: RefCell<VecDeque<(usize, Packet)>>,
    /// Packets pulled off the inbox so far: a scheduler round that
    /// pulled none and moved no job parks.
    pulled: Cell<u64>,
    ledger: LedgerState,
}

impl RankComm {
    /// Creates the full communication world for `world` ranks,
    /// returning one endpoint per rank.
    ///
    /// # Panics
    ///
    /// Panics if `world` is zero.
    pub fn world(world: usize) -> Vec<RankComm> {
        assert!(world > 0, "world must have at least one rank");
        let (to, inboxes): (Vec<_>, Vec<_>) = (0..world).map(|_| unbounded()).unzip();
        inboxes
            .into_iter()
            .enumerate()
            .map(|(rank, inbox)| RankComm {
                rank,
                world,
                to: to.clone(),
                inbox,
                stash: RefCell::default(),
                pulled: Cell::new(0),
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
        let bytes = tensor.size_bytes();
        // Plain-stream hops carry no job id ([`coconet_trace::JOB_NONE`]):
        // their wall time is covered by the enclosing collective-phase span.
        trace::instant(EventKind::Hop, "send", trace::JOB_NONE, bytes as u64);
        trace::metrics::add_counter(Counter::WireBytes, bytes as u64);
        self.ledger.record_send(bytes);
        self.post(dst, None, WireMsg::Tensor(tensor));
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
        self.post(dst, Some(job), msg);
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
        self.post(dst, Some(job), msg);
    }

    /// Posts `msg` on stream `key` into `dst`'s inbox — every send.
    fn post(&self, dst: usize, key: Option<u64>, msg: WireMsg) {
        self.to[dst]
            .send((self.rank, Packet::Msg(key, msg)))
            .unwrap_or_else(|_| panic!("rank {dst} hung up"));
    }

    /// Receives the next tensor sent by `src` (blocking).
    ///
    /// # Panics
    ///
    /// Panics if `src` hung up with nothing left for this rank, or the
    /// next message is not a dense tensor (a collective protocol
    /// mismatch).
    pub fn recv(&self, src: usize) -> Tensor {
        match self.take(src, None, Side::Worker, true) {
            Some(WireMsg::Tensor(t)) => t,
            other => panic!("rank {src} sent {other:?} where a tensor was expected"),
        }
    }

    /// Takes the next message of stream `key` from `src`, ledgered on
    /// `side`'s counters: the stashed one if there is one, else the one
    /// pulling the inbox reaches — parked on it when `block`, `None`
    /// once it is empty otherwise. Every receive is this call.
    ///
    /// # Panics
    ///
    /// Panics if `src` hung up with nothing of the stream left.
    pub(crate) fn take(
        &self,
        src: usize,
        key: Option<u64>,
        side: Side,
        block: bool,
    ) -> Option<WireMsg> {
        loop {
            if let Some(msg) = self.stashed(src, key) {
                match side {
                    Side::Worker => self.ledger.record_recv(msg.wire_bytes()),
                    Side::Switch => self.ledger.record_switch_recv(msg.wire_bytes()),
                }
                return Some(msg);
            }
            if !self.pull(block) {
                return None;
            }
        }
    }

    /// Removes the first stashed message of stream `key` from `src`.
    /// A hang-up marker sits behind its source's last message, so
    /// meeting it first means the stream is exhausted for good.
    fn stashed(&self, src: usize, key: Option<u64>) -> Option<WireMsg> {
        let mut stash = self.stash.borrow_mut();
        let at = stash.iter().position(|(from, packet)| {
            *from == src
                && match packet {
                    Packet::Msg(k, _) => *k == key,
                    Packet::HungUp => true,
                }
        })?;
        match stash.remove(at) {
            Some((_, Packet::Msg(_, msg))) => Some(msg),
            _ => panic!("rank {src} hung up"),
        }
    }

    /// Moves the next inbox packet into the stash, parked on the inbox
    /// until one arrives when `block`; returns whether there was one.
    /// A blocking pull always finds one: the rank holds a sender to its
    /// own inbox.
    pub(crate) fn pull(&self, block: bool) -> bool {
        let next = if block {
            self.inbox.recv().ok()
        } else {
            self.inbox.try_recv().ok()
        };
        let Some(packet) = next else { return false };
        self.pulled.set(self.pulled.get() + 1);
        self.stash.borrow_mut().push_back(packet);
        true
    }

    /// How many packets this rank has pulled off its inbox.
    pub(crate) fn pulled(&self) -> u64 {
        self.pulled.get()
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

impl Drop for RankComm {
    /// Posts this rank's hang-up marker to every peer, behind its last
    /// message.
    fn drop(&mut self) {
        for to in &self.to {
            // A peer whose endpoint is gone has nothing left to tell.
            let _ = to.send((self.rank, Packet::HungUp));
        }
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
                // the exporter renders one process per rank, and give
                // its kernels the rank's share of the cores.
                trace::set_thread_rank(comm.rank() as u32);
                kernels::share_cores(k);
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
pub(crate) mod tests {
    use super::*;
    use coconet_tensor::DType;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// Runs `f` on its own thread and returns the message it panicked
    /// with (`None` if it returned) — failing instead of hanging when
    /// it does neither within ten seconds.
    pub(crate) fn panic_message(f: impl FnOnce() + Send + 'static) -> Option<String> {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(f));
            let message = outcome.err().map(|p| {
                p.downcast::<String>()
                    .map_or_else(|_| String::new(), |s| *s)
            });
            let _ = tx.send(message);
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("neither returned nor panicked within ten seconds")
    }

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

    /// A peer drops its endpoint after the first of two messages: the
    /// receiver takes that one, then panics on the second instead of
    /// waiting forever.
    #[test]
    fn a_receive_from_a_hung_up_peer_panics_after_its_last_message() {
        let mut world = RankComm::world(2);
        let c1 = world.pop().unwrap();
        let c0 = world.pop().unwrap();
        c1.send(0, Tensor::full([1], DType::F32, 1.0));
        drop(c1);
        let message = panic_message(move || {
            assert_eq!(c0.recv(1).get(0), 1.0);
            c0.recv(1);
        });
        assert_eq!(message.as_deref(), Some("rank 1 hung up"));
    }

    /// Two sources interleave in one inbox, each with tagged jobs and a
    /// plain stream: a receiver may take them in any order, every
    /// `(src, stream)` staying FIFO and every byte counted once.
    #[test]
    fn tagged_and_plain_streams_are_independent() {
        let mut world = RankComm::world(3);
        let c2 = world.pop().unwrap();
        let c1 = world.pop().unwrap();
        let c0 = world.pop().unwrap();
        let one = |v: f32| Tensor::full([1], DType::F32, v);
        let chunk = |v: f32| WireMsg::Tensor(one(v));
        c0.send_tagged(1, 7, Some(0), chunk(70.0));
        c2.send_tagged(1, 7, None, chunk(270.0));
        c0.send(1, one(1.0));
        c2.send(1, one(21.0));
        c0.send_tagged(1, 9, Some(3), chunk(90.0));
        c2.send(1, one(22.0));
        c0.send_tagged(1, 7, Some(0), chunk(71.0));
        c2.send_tagged(1, 7, None, chunk(271.0));
        c0.send(1, one(2.0));

        let take = |src: usize, job: u64, block: bool| match c1.take(
            src,
            Some(job),
            Side::Worker,
            block,
        ) {
            Some(WireMsg::Tensor(t)) => t.get(0),
            other => panic!("unexpected {other:?}"),
        };
        // Take the later-issued job first: earlier traffic is stashed.
        assert_eq!(take(0, 9, true), 90.0);
        // Rank 2's job and plain stream, ahead of rank 0's.
        assert_eq!(take(2, 7, false), 270.0);
        assert_eq!(c1.recv(2).get(0), 21.0);
        assert_eq!(c1.recv(0).get(0), 1.0);
        // Job 7 of each source kept its own order.
        assert_eq!(take(0, 7, true), 70.0);
        assert_eq!(take(2, 7, true), 271.0);
        assert_eq!(take(0, 7, false), 71.0);
        assert_eq!(c1.recv(2).get(0), 22.0);
        assert_eq!(c1.recv(0).get(0), 2.0);
        // Nothing left of any stream.
        for src in [0, 2] {
            for key in [None, Some(7), Some(9)] {
                assert!(c1.take(src, key, Side::Worker, false).is_none());
            }
        }

        // The senders' ledgers split the traffic by class: rank 0's job
        // 7 (class 0) sent 8 bytes, job 9 (class 3) 4, plain 8 more.
        let l = c0.ledger();
        assert_eq!(l.class_bytes_sent[0], 8);
        assert_eq!(l.class_bytes_sent[3], 4);
        assert_eq!(l.bytes_sent, 20);
        assert_eq!(c2.ledger().bytes_sent, 16);
        // The receiver counted every byte and message exactly once.
        let l = c1.ledger();
        assert_eq!((l.bytes_received, l.recvs), (36, 9));
    }
}
