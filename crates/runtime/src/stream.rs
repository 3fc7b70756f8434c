//! Barrier-free streaming execution: the ring and switch state
//! machines multiplexed over the tagged fabric by a priority scheduler.
//!
//! A blocking collective drives its lanes to completion before it
//! returns — a training loop built on them ends each iteration with a
//! global barrier. This module removes the barrier by *polling* the
//! very same state machines instead:
//!
//! * [`CommScheduler`] owns in-flight ring lanes
//!   (`collectives::RingLane`) and switch jobs (`switch::SwitchJob`)
//!   and services them in strict `(priority class, enqueue order)`
//!   order: each scheduling round runs one hop of the highest-priority
//!   job that can make progress. A high-priority job enqueued late
//!   preempts lower ones at the next hop boundary; a blocked
//!   high-priority job parks and lower-priority traffic fills the wire
//!   until its chunk arrives. Because a polled lane runs the same step
//!   code as a blocking one, results are bit-identical no matter how
//!   polls interleave.
//! * [`StreamExecutor`] is the barrier-free training loop: parameters
//!   carry a *ready epoch*, gradient AllReduces are enqueued with the
//!   class of the layer's position in the **next** iteration's forward
//!   order, and iteration `i+1`'s forward blocks only on the specific
//!   parameter it is about to touch. First-layer gradients overtake
//!   last-layer gradients that backprop produced earlier — exactly the
//!   reordering the per-class [`BytesLedger`](crate::BytesLedger)
//!   counters and the scheduler's completion events expose.
//!
//! Deadlock freedom: sends never block (the fabric's channels are
//! unbounded), receives are non-blocking polls, and every rank polls
//! every unfinished job each round. The globally highest-priority
//! unfinished job is therefore always serviced on every rank it
//! touches, so it completes; induction over the priority order covers
//! the rest.

use coconet_compress::{ErrorFeedback, WireFormat};
use coconet_core::{lane_count, CollAlgo, CollKind, CommConfig, CommSched, Executed, XferSched};
use coconet_tensor::{ReduceOp, Tensor};
use coconet_trace as trace;
use coconet_trace::EventKind;

use std::collections::HashMap;

use crate::collectives::{all_reduce_result, lane_tag, ChunkSource, Group, RingLane, RingPhase};
use crate::comm::RankComm;
use crate::compressed::{executed, run_all_reduce};
use crate::ledger::PRIORITY_CLASSES;
use crate::switch::SwitchJob;

/// An in-flight state machine of either algorithm.
#[derive(Debug)]
enum Job {
    Ring(RingLane),
    Switch(SwitchJob),
}

impl Job {
    fn remaining_hops(&self) -> usize {
        match self {
            Job::Ring(j) => j.remaining_hops(),
            Job::Switch(j) => j.remaining_hops(),
        }
    }

    fn poll(&mut self, comm: &RankComm) -> bool {
        match self {
            Job::Ring(j) => j.advance(comm, false),
            Job::Switch(j) => j.advance(comm, false),
        }
    }

    fn is_done(&self) -> bool {
        match self {
            Job::Ring(j) => j.is_done(),
            Job::Switch(j) => j.is_done(),
        }
    }
}

/// What the scheduler's queue holds: a job under its wire tag, the
/// logical id it belongs to, and its `(class, seq)` service key.
#[derive(Debug)]
struct Queued {
    id: u64,
    logical: u64,
    class: u8,
    seq: u64,
    job: Job,
}

/// One structured completion record of the scheduler: which physical
/// job finished, at which priority class, and when. The timestamp is
/// trace-epoch nanoseconds ([`coconet_trace::now_ns`]) so completion
/// records line up with span timestamps in an exported trace.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// The finished job's wire id: the caller's id for a one-lane job,
    /// `(id << 6) | lane` for each lane of a striped one.
    pub id: u64,
    /// The priority class the job ran at.
    pub class: u8,
    /// Completion time in trace-epoch nanoseconds.
    pub ts_ns: u64,
}

/// The priority queue in front of the comm fabric: in-flight ring
/// lanes and switch jobs serviced in strict `(class, enqueue order)`
/// order with hop-granular preemption between priority levels.
#[derive(Debug, Default)]
pub struct CommScheduler {
    /// Unfinished jobs, kept sorted by `(class, seq)`.
    jobs: Vec<Queued>,
    next_seq: u64,
    /// Cross-job transfer discipline: FIFO services strict
    /// `(class, seq)` order; Aware prefers the job with the fewest
    /// remaining hops (class and seq break ties), the
    /// shortest-remaining-work policy that stops small transfers
    /// convoying behind large ones. Either way every byte still moves
    /// through the same tagged channels, so results and per-class
    /// ledger totals are bit-identical across disciplines — the knob
    /// reorders wire traffic, never data.
    xfer: XferSched,
    /// Finished lanes of striped logical jobs whose sibling lanes are
    /// still in flight, by logical id.
    landed: HashMap<u64, Vec<RingLane>>,
    /// Finished results waiting for [`CommScheduler::wait`], by
    /// logical id.
    completed: Vec<(u64, Tensor)>,
    /// Structured completion records in the order jobs finished — the
    /// reordering witness the steady-state experiment asserts on and
    /// the overlap profiler's job end marker.
    completions: Vec<Completion>,
}

impl CommScheduler {
    /// An empty scheduler (FIFO transfer discipline).
    pub fn new() -> CommScheduler {
        CommScheduler::default()
    }

    /// Selects the cross-job transfer discipline (builder style) — the
    /// runtime counterpart of a tuned plan's
    /// [`CommConfig::xfer`](coconet_core::CommConfig).
    pub fn with_xfer(mut self, xfer: XferSched) -> CommScheduler {
        self.xfer = xfer;
        self
    }

    /// Launches a ring AllReduce of `input` at `class` (clamped to
    /// [`PRIORITY_CLASSES`]; lower classes are serviced first — tag the
    /// launch with the consuming step's position in the next
    /// iteration's forward order), striped across `channels` lanes
    /// (clamped to `1..=`[`MAX_CHANNELS`](crate::MAX_CHANNELS); a
    /// singleton group runs one). `id` must be agreed on by every rank
    /// in the group.
    ///
    /// Each lane is its own queue entry with its own `(class, seq)`, so
    /// the scheduler preempts and interleaves lanes independently at
    /// stripe granularity. One lane rides the wire tagged `id`; several
    /// ride tagged `(id << 6) | lane`, and [`wait`](CommScheduler::wait)
    /// on `id` collects them all. Results are bit-identical and byte
    /// totals equal at every width (stripe sums partition every chunk).
    ///
    /// Enqueuing performs no communication: the first chunk goes out on
    /// the first [`poll`](CommScheduler::poll) that services the job.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not fit the tag layout: `id < 2^63` for one
    /// lane, `id < 2^57` for several (the rest is lane bits and the
    /// range blocking collectives use).
    #[allow(clippy::too_many_arguments)]
    pub fn enqueue(
        &mut self,
        id: u64,
        class: u8,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        wire: WireFormat,
        channels: usize,
    ) {
        let class = class.min(PRIORITY_CLASSES as u8 - 1);
        let lanes = lane_count(group.size, channels);
        for lane in 0..lanes {
            let tag = lane_tag(Some(id), lanes, lane);
            let job = RingLane::new(
                RingPhase::AllReduce,
                tag,
                Some(class),
                group,
                ChunkSource::Whole(input.clone()),
                op,
                wire,
                lanes,
                lane,
            );
            self.admit(tag, id, class, Job::Ring(job));
        }
    }

    /// Launches an in-network switch AllReduce of `input` at `class` —
    /// the switch twin of [`enqueue`](CommScheduler::enqueue). No wire
    /// format or lane count: the switch wire is always one fixed-point
    /// `i32` stream.
    pub fn enqueue_switch(
        &mut self,
        id: u64,
        class: u8,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
    ) {
        let class = class.min(PRIORITY_CLASSES as u8 - 1);
        let tag = lane_tag(Some(id), 1, 0);
        let job = SwitchJob::new(tag, Some(class), group, input, op);
        self.admit(tag, id, class, Job::Switch(job));
    }

    /// Files `result` as job `id`, finished at enqueue time: the
    /// collective of a site with no resumable job ran as a blocking
    /// call at its enqueue point (Barriered is the identity schedule),
    /// and [`wait`](CommScheduler::wait) and the completion log treat
    /// it like every other job.
    pub(crate) fn enqueue_finished(&mut self, id: u64, class: u8, result: Tensor) {
        let class = class.min(PRIORITY_CLASSES as u8 - 1);
        self.trace_enqueue(id, class);
        self.record_completion(id, class);
        self.completed.push((id, result));
    }

    /// The single choke point every job passes through — striped
    /// lanes, switch jobs and born-finished ones included — so every
    /// enqueue event has a matching completion event with the same id.
    fn trace_enqueue(&self, id: u64, class: u8) {
        trace::instant(
            EventKind::SchedEnqueue,
            "sched:enqueue",
            id,
            u64::from(class),
        );
    }

    fn admit(&mut self, id: u64, logical: u64, class: u8, job: Job) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.trace_enqueue(id, class);
        let queued = Queued {
            id,
            logical,
            class,
            seq,
            job,
        };
        if queued.job.is_done() {
            // Single-rank ring groups finish at enqueue time.
            self.complete(queued);
            return;
        }
        let at = self
            .jobs
            .partition_point(|j| (j.class, j.seq) <= (class, seq));
        self.jobs.insert(at, queued);
    }

    /// The structured completion record (and trace instant) of job
    /// `id`. The timestamp is read unconditionally — a clock read
    /// touches no data, so disabled-tracing runs stay bit-identical.
    fn record_completion(&mut self, id: u64, class: u8) {
        let ts_ns = trace::now_ns();
        trace::instant(
            EventKind::SchedComplete,
            "sched:complete",
            id,
            u64::from(class),
        );
        self.completions.push(Completion { id, class, ts_ns });
    }

    /// Files a finished job: its completion record, then its result
    /// for [`wait`](CommScheduler::wait) — assembled as soon as the
    /// last lane of the logical job lands, so finished lanes do not pin
    /// their peers' buffers until somebody waits.
    fn complete(&mut self, done: Queued) {
        self.record_completion(done.id, done.class);
        let result = match done.job {
            Job::Switch(job) => job.take_result(),
            Job::Ring(lane) => {
                let lanes = lane.lanes();
                let landed = self.landed.entry(done.logical).or_default();
                landed.push(lane);
                if landed.len() < lanes {
                    return;
                }
                let ring = self.landed.remove(&done.logical).expect("just filled");
                all_reduce_result(&ring)
            }
        };
        self.completed.push((done.logical, result));
    }

    /// One scheduling round: runs one hop of the most-preferred job
    /// that can make progress — strict `(class, seq)` order under
    /// FIFO, shortest-remaining-hops first (class and seq breaking
    /// ties) under the contention-aware discipline. Blocked jobs park;
    /// the first runnable lower-preference job fills the gap — that is
    /// the hop-granular preemption between priority levels. Returns
    /// `true` if any job moved.
    pub fn poll(&mut self, comm: &RankComm) -> bool {
        match self.xfer {
            // `jobs` is kept sorted by (class, seq) — FIFO's service
            // order — so the busy loops that call this walk it in place.
            XferSched::Fifo => (0..self.jobs.len()).any(|i| self.service(comm, i, i)),
            // Aware re-ranks by remaining work per round (cheap:
            // in-flight job counts are small).
            XferSched::Aware => {
                let mut order: Vec<usize> = (0..self.jobs.len()).collect();
                order.sort_by_key(|&i| {
                    let j = &self.jobs[i];
                    (j.job.remaining_hops(), j.class, j.seq)
                });
                let mut ranked = order.into_iter().enumerate();
                ranked.any(|(pos, i)| self.service(comm, i, pos))
            }
        }
    }

    /// Polls `jobs[i]`, the `pos`-th preference of this round; files it
    /// if that finished it. Returns whether it moved.
    fn service(&mut self, comm: &RankComm, i: usize, pos: usize) -> bool {
        if !self.jobs[i].job.poll(comm) {
            return false;
        }
        if pos != 0 {
            // A more-preferred job was blocked on the wire and a
            // lower-preference one filled the slot — the hop-granular
            // preemption the trace exposes.
            trace::instant(
                EventKind::SchedPreempt,
                "sched:fill",
                self.jobs[i].id,
                pos as u64,
            );
        }
        if self.jobs[i].job.is_done() {
            let done = self.jobs.remove(i);
            self.complete(done);
        }
        true
    }

    /// Polls until job `id` completes and returns its result — for a
    /// striped job, once every lane has landed.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never enqueued.
    pub fn wait(&mut self, comm: &RankComm, id: u64) -> Tensor {
        loop {
            if let Some(at) = self.completed.iter().position(|(j, _)| *j == id) {
                return self.completed.swap_remove(at).1;
            }
            assert!(
                self.jobs.iter().any(|j| j.logical == id),
                "waiting on job {id} that was never enqueued"
            );
            if !self.poll(comm) {
                // Every local job is blocked on the wire; yield while
                // peers catch up.
                std::thread::yield_now();
            }
        }
    }

    /// Polls until every in-flight job completes; results stay claimable
    /// via [`wait`](CommScheduler::wait) (which no longer blocks).
    pub fn drain(&mut self, comm: &RankComm) {
        while !self.jobs.is_empty() {
            if !self.poll(comm) {
                std::thread::yield_now();
            }
        }
    }

    /// Number of unfinished jobs.
    pub fn in_flight(&self) -> usize {
        self.jobs.len()
    }

    /// Structured completion records (id, class, timestamp) in the
    /// order jobs finished — under priority scheduling the
    /// first-consumed (lowest-class) tensors appear first even when
    /// they were enqueued last.
    pub fn completion_events(&self) -> &[Completion] {
        &self.completions
    }
}

/// One parameter of the streaming training loop: the tensor plus the
/// readiness bookkeeping that replaces the global barrier.
#[derive(Debug)]
struct StreamParam {
    value: Tensor,
    /// Last iteration whose gradient has been applied to `value`.
    ready_epoch: u64,
    /// The in-flight gradient job that must land before the *next*
    /// forward may touch this parameter.
    pending: Option<u64>,
    /// What the top-k wire has dropped of this layer's gradients so
    /// far, re-injected into the next one (unread by other formats).
    feedback: ErrorFeedback,
}

/// The barrier-free multi-iteration executor: a data-parallel training
/// loop whose per-layer parameters are gated by ready-epochs instead of
/// an end-of-iteration barrier.
///
/// Per iteration: the forward walks layers first to last, blocking only
/// on the parameter it is about to touch (waiting applies the pending
/// reduced gradient and bumps the ready-epoch); the backward walks last
/// to first, enqueuing each layer's gradient AllReduce with priority
/// class = the layer's position in the next forward (clamped to
/// [`PRIORITY_CLASSES`]). Layer 0's gradient — produced *last* by
/// backprop — therefore overtakes layer L−1's on the wire, and the next
/// iteration's first layers unblock while later gradients still drain.
///
/// Under [`CommSched::Barriered`] the same loop drains every gradient
/// and applies every update at each iteration's end — the classic
/// barrier, kept as the baseline the steady-state experiment measures
/// against.
///
/// What each layer's AllReduce runs as is
/// [`CommConfig::executed_as`]'s answer for the configured algorithm,
/// format and channels at that layer's size (a group without node
/// geometry, so the hierarchical algorithm *is* the ring). A
/// `streamable` site rides the scheduler; any other — the tree, an
/// active top-k — runs the *requested* algorithm's blocking collective
/// at the enqueue point and is filed as a finished job. Every layer
/// keeps its own persistent [`ErrorFeedback`] residual across
/// iterations, so an active top-k stream re-injects what it dropped
/// exactly as a blocking loop holding one residual per tensor does:
/// Barriered is the identity schedule for every algorithm and format,
/// and parameters match that blocking loop bit for bit.
#[derive(Debug)]
pub struct StreamExecutor {
    group: Group,
    /// The requested `sched`, `algo`, `format` and `channels`.
    config: CommConfig,
    scheduler: CommScheduler,
    params: Vec<StreamParam>,
    /// Iterations fully applied to every parameter.
    epoch: u64,
}

impl StreamExecutor {
    /// A streaming executor over `params` (one tensor per layer, in
    /// forward order) for the group `comm` belongs to.
    pub fn new(group: Group, params: Vec<Tensor>, sched: CommSched, wire: WireFormat) -> Self {
        let config = CommConfig {
            sched,
            format: wire,
            channels: 1,
            ..CommConfig::default()
        };
        StreamExecutor {
            group,
            config,
            scheduler: CommScheduler::new(),
            params: params
                .into_iter()
                .map(|value| StreamParam {
                    value,
                    ready_epoch: 0,
                    pending: None,
                    feedback: ErrorFeedback::new(),
                })
                .collect(),
            epoch: 0,
        }
    }

    /// Routes gradient AllReduces through `algo`. Whatever runs matches
    /// the *blocking* collective of that algorithm bit for bit (the
    /// switch carries its quantization error versus the ring).
    pub fn with_algo(mut self, algo: CollAlgo) -> Self {
        self.config.algo = algo;
        self
    }

    /// Stripes every gradient AllReduce across `channels` lanes — each
    /// lane an independently preemptible sub-job of the scheduler (see
    /// [`CommScheduler::enqueue`]). Parameters are
    /// bit-identical at every width; the switch algorithm's fixed-point
    /// wire stays single-lane. Clamped into
    /// `1..=`[`MAX_CHANNELS`](crate::MAX_CHANNELS).
    pub fn with_channels(mut self, channels: usize) -> Self {
        self.config.channels = channels;
        self
    }

    /// Selects the scheduler's cross-job transfer discipline. Outputs
    /// are bit-identical under either (see
    /// [`CommScheduler::with_xfer`]); only wire-service order moves.
    pub fn with_xfer(mut self, xfer: XferSched) -> Self {
        self.scheduler.xfer = xfer;
        self
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.params.len()
    }

    /// The scheduler's structured completion records (one-lane job id
    /// = `iter * L + layer`).
    pub fn completion_events(&self) -> &[Completion] {
        self.scheduler.completion_events()
    }

    /// The wire tag of iteration `iter`'s layer-`layer` gradient job.
    /// Deterministic and rank-independent, as the fabric requires.
    pub fn job_id(&self, iter: u64, layer: usize) -> u64 {
        iter * self.params.len() as u64 + layer as u64
    }

    /// Blocks until `layer`'s parameter is up to date with every
    /// iteration whose gradient job was enqueued, applying the pending
    /// update through `apply`. This is the *only* wait the barrier-free
    /// forward performs — one parameter, not the world.
    fn ensure_ready(
        &mut self,
        comm: &RankComm,
        layer: usize,
        apply: &mut impl FnMut(usize, &mut Tensor, &Tensor),
    ) {
        if let Some(job) = self.params[layer].pending.take() {
            let reduced = {
                let _wait = trace::span(EventKind::ReadyWait, "ready_wait", job, layer as u64);
                self.scheduler.wait(comm, job)
            };
            {
                let _apply = trace::span(EventKind::Compute, "apply", layer as u64, job);
                apply(layer, &mut self.params[layer].value, &reduced);
            }
            self.params[layer].ready_epoch += 1;
        }
    }

    /// Progress tick at a kernel boundary: under the barrier-free
    /// schedule, drive every runnable chunk hop forward between two
    /// compute steps. This is what hides communication under compute —
    /// the gradients still draining from iteration `i` advance while
    /// iteration `i+1`'s forward runs, in strict priority order. The
    /// barriered schedule deliberately skips the tick: its fabric only
    /// moves inside the end-of-iteration drain, which is exactly the
    /// serialization the steady-state experiment measures against.
    fn tick(&mut self, comm: &RankComm) {
        if self.config.sched == CommSched::Priority {
            while self.scheduler.poll(comm) {}
        }
    }

    /// Runs `iters` iterations of the forward/backward/update loop.
    ///
    /// * `forward(layer, iter, param)` — the layer's forward compute
    ///   (called with the parameter guaranteed ready for `iter`).
    /// * `grad(layer, iter, param)` — produces this rank's local
    ///   gradient for the layer (called in reverse layer order).
    /// * `apply(layer, param, reduced)` — folds the group-reduced
    ///   gradient into the parameter.
    ///
    /// On return every enqueued gradient has been applied: the stream
    /// ends with one drain instead of `iters` barriers. Outputs are
    /// bit-identical to the barriered schedule — the scheduler reorders
    /// *wire traffic*, never the read-after-write order of parameters.
    pub fn run_iterations(
        &mut self,
        comm: &RankComm,
        iters: u64,
        mut forward: impl FnMut(usize, u64, &Tensor),
        mut grad: impl FnMut(usize, u64, &Tensor) -> Tensor,
        mut apply: impl FnMut(usize, &mut Tensor, &Tensor),
    ) {
        let layers = self.params.len();
        // What each layer's AllReduce runs as — resolved once per run,
        // never per hop; gradients have their parameter's size and type.
        let sum = ReduceOp::Sum;
        let resolve = |p: &StreamParam| {
            executed(
                self.config,
                CollKind::AllReduce,
                sum,
                &p.value,
                self.group,
                0,
            )
        };
        let runs: Vec<Executed> = self.params.iter().map(resolve).collect();
        for _ in 0..iters {
            let iter = self.epoch;
            // Forward: first layers first, each gated on its own
            // ready-epoch only.
            for l in 0..layers {
                self.ensure_ready(comm, l, &mut apply);
                debug_assert_eq!(self.params[l].ready_epoch, iter);
                {
                    let _fwd = trace::span(EventKind::Compute, "forward", l as u64, iter);
                    forward(l, iter, &self.params[l].value);
                }
                // Later layers' gradients drain while this layer's
                // forward just ran; the next ensure_ready usually
                // finds its job already complete.
                self.tick(comm);
            }
            // Backward: gradients appear last layer first; each is
            // launched at the priority of its consumption point in the
            // next forward.
            for l in (0..layers).rev() {
                let g = {
                    let _bwd = trace::span(EventKind::Compute, "grad", l as u64, iter);
                    grad(l, iter, &self.params[l].value)
                };
                let id = self.job_id(iter, l);
                let class = l.min(PRIORITY_CLASSES - 1) as u8;
                let run = runs[l];
                if !run.streamable {
                    let feedback = Some(&mut self.params[l].feedback);
                    let reduced = run_all_reduce(comm, self.group, &g, sum, run, 0, feedback);
                    self.scheduler.enqueue_finished(id, class, reduced);
                } else if run.algo == CollAlgo::Switch {
                    self.scheduler
                        .enqueue_switch(id, class, self.group, &g, sum);
                } else {
                    self.scheduler
                        .enqueue(id, class, self.group, &g, sum, run.format, run.lanes);
                }
                self.params[l].pending = Some(id);
            }
            if self.config.sched == CommSched::Barriered {
                // The classic end-of-iteration barrier: drain the
                // fabric and update every parameter before the next
                // forward may start.
                self.scheduler.drain(comm);
                for l in 0..layers {
                    self.ensure_ready(comm, l, &mut apply);
                }
            }
            self.epoch += 1;
        }
        // End of stream: settle outstanding updates so callers observe
        // the same final parameters as the barriered schedule.
        self.scheduler.drain(comm);
        for l in 0..layers {
            self.ensure_ready(comm, l, &mut apply);
        }
    }

    /// The parameter tensors, in layer order.
    pub fn params(&self) -> Vec<Tensor> {
        self.params.iter().map(|p| p.value.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::ring_all_reduce;
    use crate::comm::{run_ranks, WireMsg};
    use coconet_tensor::{CounterRng, DType};

    fn group_of(k: usize) -> Group {
        Group { start: 0, size: k }
    }

    /// Job ids in completion order.
    fn completed_ids(events: &[Completion]) -> Vec<u64> {
        events.iter().map(|c| c.id).collect()
    }

    /// Ring and switch jobs share one scheduler: the urgent switch job
    /// completes before the earlier-enqueued low-priority ring job,
    /// and both match their blocking references.
    #[test]
    fn switch_and_ring_jobs_compose_under_priority() {
        use crate::switch::switch_all_reduce;
        let k = 4usize;
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(7);
            let late = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10) as u64);
            let urgent = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10 + 5) as u64);
            let ref_late = ring_all_reduce(
                &comm,
                group_of(k),
                &late,
                ReduceOp::Sum,
                WireFormat::Dense,
                1,
            );
            let ref_urgent = switch_all_reduce(&comm, group_of(k), &urgent, ReduceOp::Sum);
            let mut sched = CommScheduler::new();
            sched.enqueue(
                100,
                5,
                group_of(k),
                &late,
                ReduceOp::Sum,
                WireFormat::Dense,
                1,
            );
            sched.enqueue_switch(200, 0, group_of(k), &urgent, ReduceOp::Sum);
            sched.drain(&comm);
            let log = completed_ids(sched.completion_events());
            let got_urgent = sched.wait(&comm, 200);
            let got_late = sched.wait(&comm, 100);
            (log, got_urgent, ref_urgent, got_late, ref_late)
        });
        for (log, got_urgent, ref_urgent, got_late, ref_late) in results {
            assert_eq!(log, vec![200, 100], "class 0 must finish first");
            assert_eq!(got_urgent.to_f32_vec(), ref_urgent.to_f32_vec());
            assert_eq!(got_late.to_f32_vec(), ref_late.to_f32_vec());
        }
    }

    /// A [`StreamExecutor`] of one `n`-element layer under `sched`,
    /// routed through `algo` on `wire`, produces the same parameters as
    /// a loop calling `blocking` — that configuration's blocking
    /// AllReduce, handed one persistent residual — once per iteration,
    /// bit for bit.
    fn assert_stream_matches_blocking_loop(
        sched: CommSched,
        algo: CollAlgo,
        wire: WireFormat,
        n: usize,
        blocking: fn(&RankComm, Group, &Tensor, &mut ErrorFeedback) -> Tensor,
    ) {
        let k = 4usize;
        let iters = 6u64;
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(23);
            let init = Tensor::randn([n], DType::F32, rng, 1);
            let rank = comm.rank();

            // Streamed.
            let mut exec =
                StreamExecutor::new(group_of(k), vec![init.clone()], sched, wire).with_algo(algo);
            exec.run_iterations(
                &comm,
                iters,
                |_, _, _| {},
                move |_, iter, p| {
                    let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
                    Tensor::from_fn([n], DType::F32, |i| p.get(i) * scale + i as f32 * 0.1)
                },
                |_, p, g| {
                    let step = Tensor::from_fn([n], DType::F32, |i| p.get(i) - 0.05 * g.get(i));
                    *p = step;
                },
            );
            let streamed = exec.params().swap_remove(0);

            // Blocking reference: same recurrence, blocking collective.
            let mut w = init;
            let mut feedback = ErrorFeedback::new();
            for iter in 0..iters {
                let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
                let g = Tensor::from_fn([n], DType::F32, |i| w.get(i) * scale + i as f32 * 0.1);
                let reduced = blocking(&comm, group_of(k), &g, &mut feedback);
                w = Tensor::from_fn([n], DType::F32, |i| w.get(i) - 0.05 * reduced.get(i));
            }
            (streamed, w)
        });
        for (streamed, blocking) in results {
            assert_eq!(
                streamed.to_f32_vec(),
                blocking.to_f32_vec(),
                "{sched} {algo} {wire}"
            );
        }
    }

    /// The streaming switch loop matches the blocking switch loop.
    #[test]
    fn stream_executor_switch_matches_blocking_switch_loop() {
        assert_stream_matches_blocking_loop(
            CommSched::Priority,
            CollAlgo::Switch,
            WireFormat::Dense,
            6,
            |comm, group, g, _| crate::switch::switch_all_reduce(comm, group, g, ReduceOp::Sum),
        );
    }

    /// The tree has no resumable job: under a [`StreamExecutor`] it
    /// runs as the blocking tree at the enqueue point — never as the
    /// ring, whose fold order (and so whose bits) differ.
    #[test]
    fn stream_executor_tree_matches_blocking_tree_loop() {
        assert_stream_matches_blocking_loop(
            CommSched::Priority,
            CollAlgo::Tree,
            WireFormat::Dense,
            6,
            |comm, group, g, _| {
                crate::tree::tree_all_reduce(comm, group, g, ReduceOp::Sum, WireFormat::Dense, 1)
            },
        );
    }

    /// An active top-k is not streamable either, and its sparse
    /// exchange carries state across iterations: the executor keeps one
    /// error-feedback residual per layer, so under either schedule it
    /// equals the blocking dispatch loop holding one persistent
    /// residual — what the wire dropped in iteration `i` is re-injected
    /// in iteration `i+1`.
    #[test]
    fn stream_executor_top_k_keeps_its_error_feedback_residual() {
        const TOP_K: WireFormat = WireFormat::TopK { k_permille: 100 };
        for sched in CommSched::ALL {
            assert_stream_matches_blocking_loop(
                sched,
                CollAlgo::Ring,
                TOP_K,
                64,
                |c, group, g, ef| {
                    let (sum, ring) = (ReduceOp::Sum, CollAlgo::Ring);
                    crate::all_reduce_wire_striped(c, group, g, sum, ring, 0, TOP_K, Some(ef), 1)
                },
            );
        }
    }

    /// The blocking overlapped MatMul+AllReduce runs under the blocking
    /// tags, not under tags `0..2k` that alias
    /// [`StreamExecutor::job_id`]`(0, layer)`: with gradient jobs
    /// `0..L` in flight — rank 0 has every job's first chunk on the
    /// wire, rank 1 has consumed none — the call takes only its own
    /// chunks, and both it and the jobs finish exact.
    #[test]
    fn overlapped_call_shares_no_tag_with_in_flight_gradient_jobs() {
        let k = 2usize;
        let layers = 4usize;
        let gate = std::sync::Arc::new(std::sync::Barrier::new(k));
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(5);
            let rank = comm.rank() as u64;
            let (sum, dense) = (ReduceOp::Sum, WireFormat::Dense);
            let a = Tensor::randn([3, 2], DType::F32, rng, 100 + rank);
            let w = Tensor::randn([2, 5], DType::F32, rng, 200 + rank);
            let grads: Vec<Tensor> = (0..layers as u64)
                .map(|l| Tensor::randn([6], DType::F32, rng, 10 * rank + l))
                .collect();
            let mut want: Vec<Tensor> = grads
                .iter()
                .map(|g| ring_all_reduce(&comm, group_of(k), g, sum, dense, 1))
                .collect();
            want.push(ring_all_reduce(
                &comm,
                group_of(k),
                &a.matmul(&w).unwrap(),
                sum,
                dense,
                1,
            ));

            let mut sched = CommScheduler::new();
            for (l, g) in grads.iter().enumerate().rev() {
                sched.enqueue(l as u64, l as u8, group_of(k), g, sum, dense, 1);
            }
            if rank == 0 {
                while sched.poll(&comm) {}
            }
            gate.wait();
            let product =
                crate::overlapped_matmul_all_reduce(&comm, group_of(k), &a, &w, sum).unwrap();
            let mut got: Vec<Tensor> = (0..layers as u64).map(|l| sched.wait(&comm, l)).collect();
            got.push(product);
            (got, want)
        });
        for (got, want) in results {
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_f32_vec(), w.to_f32_vec());
            }
        }
    }

    /// A blocking overlapped MatMul+AllReduce issued from a `forward`
    /// callback while the previous iteration's gradient jobs `0..L` are
    /// still in flight shares no wire tag with them (it runs under the
    /// blocking tags, not under tags `0..2k`): its result and the
    /// trained parameters are what each produces alone.
    #[test]
    fn overlapped_call_inside_forward_does_not_meet_gradient_jobs() {
        use crate::overlapped_matmul_all_reduce;
        let k = 2usize;
        let layers = 4usize;
        let run = move |overlap: bool| {
            run_ranks(k, move |comm| {
                let rng = CounterRng::new(5);
                let rank = comm.rank();
                let a = Tensor::randn([3, 2], DType::F32, rng, 100 + rank as u64);
                let w = Tensor::randn([2, 5], DType::F32, rng, 200 + rank as u64);
                let params: Vec<Tensor> = (0..layers)
                    .map(|l| Tensor::randn([6], DType::F32, rng, l as u64))
                    .collect();
                let mut products = Vec::new();
                let mut exec = StreamExecutor::new(
                    group_of(k),
                    params,
                    CommSched::Priority,
                    WireFormat::Dense,
                );
                exec.run_iterations(
                    &comm,
                    3,
                    |_, _, _| {
                        if overlap {
                            let sum = ReduceOp::Sum;
                            let c = overlapped_matmul_all_reduce(&comm, group_of(k), &a, &w, sum);
                            products.push(c.unwrap().to_f32_vec());
                        }
                    },
                    move |l, iter, p| {
                        let scale = (rank + l + 1) as f32 * 0.01 + iter as f32 * 0.001;
                        Tensor::from_fn([6], DType::F32, |i| p.get(i) * scale + i as f32 * 0.1)
                    },
                    |_, p, g| *p = p.sub(g).unwrap(),
                );
                let product = a.matmul(&w).unwrap();
                let alone = ring_all_reduce(
                    &comm,
                    group_of(k),
                    &product,
                    ReduceOp::Sum,
                    WireFormat::Dense,
                    1,
                );
                (exec.params(), products, alone.to_f32_vec())
            })
        };
        let (with, without) = (run(true), run(false));
        for ((params, products, alone), (quiet_params, _, _)) in with.iter().zip(&without) {
            assert_eq!(products.len(), 3 * layers);
            assert!(products.iter().all(|c| c == alone));
            for (p, q) in params.iter().zip(quiet_params) {
                assert_eq!(p.to_f32_vec(), q.to_f32_vec());
            }
        }
    }

    /// Two concurrent jobs of different classes complete in *priority*
    /// order even though the low-priority one was enqueued first, and
    /// both match the blocking reference.
    #[test]
    fn scheduler_reorders_completion_to_priority_order() {
        let k = 4usize;
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(7);
            let late = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10) as u64);
            let urgent = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10 + 5) as u64);
            let ref_late = ring_all_reduce(
                &comm,
                group_of(k),
                &late,
                ReduceOp::Sum,
                WireFormat::Dense,
                1,
            );
            let ref_urgent = ring_all_reduce(
                &comm,
                group_of(k),
                &urgent,
                ReduceOp::Sum,
                WireFormat::Dense,
                1,
            );
            let mut sched = CommScheduler::new();
            // Enqueue order is backprop order: the last-consumed tensor
            // appears first.
            sched.enqueue(
                100,
                5,
                group_of(k),
                &late,
                ReduceOp::Sum,
                WireFormat::Dense,
                1,
            );
            sched.enqueue(
                200,
                0,
                group_of(k),
                &urgent,
                ReduceOp::Sum,
                WireFormat::Dense,
                1,
            );
            sched.drain(&comm);
            let log = completed_ids(sched.completion_events());
            let got_urgent = sched.wait(&comm, 200);
            let got_late = sched.wait(&comm, 100);
            (log, got_urgent, ref_urgent, got_late, ref_late)
        });
        for (log, got_urgent, ref_urgent, got_late, ref_late) in results {
            assert_eq!(log, vec![200, 100], "class 0 must finish first");
            assert_eq!(got_urgent.to_f32_vec(), ref_urgent.to_f32_vec());
            assert_eq!(got_late.to_f32_vec(), ref_late.to_f32_vec());
        }
    }

    /// Deterministic preemption proof against a scripted peer: a
    /// low-class job whose peer chunks are withheld parks, the
    /// high-class-number job enqueued *after* it cannot overtake it,
    /// and the per-class ledger shows class-0 traffic fully drained
    /// while class-5 traffic is still partial.
    #[test]
    fn priority_traffic_drains_before_low_priority_traffic() {
        let k = 2usize;
        let n = 8usize; // per-rank elements; k=2 -> two 4-element chunks
        let mut world = RankComm::world(k);
        let peer = world.pop().unwrap(); // rank 1, scripted
        let me = world.pop().unwrap(); // rank 0, runs the scheduler

        let urgent_in = Tensor::from_fn([n], DType::F32, |i| i as f32);
        let low_in = Tensor::from_fn([n], DType::F32, |i| (i * 10) as f32);
        let mut sched = CommScheduler::new();
        // Backprop order: the low-priority (last-consumed) gradient is
        // produced and enqueued first.
        sched.enqueue(
            1,
            5,
            group_of(k),
            &low_in,
            ReduceOp::Sum,
            WireFormat::Dense,
            1,
        );
        sched.enqueue(
            2,
            0,
            group_of(k),
            &urgent_in,
            ReduceOp::Sum,
            WireFormat::Dense,
            1,
        );

        // Round 1: the class-0 job is serviced first — its RS chunk
        // goes out before the earlier-enqueued class-5 job's.
        assert!(sched.poll(&me));
        let after_first_send = me.ledger();
        assert_eq!(after_first_send.class_bytes_sent[0], 16, "4 f32 chunk");
        assert_eq!(
            after_first_send.class_bytes_sent[5], 0,
            "class 5 parked behind class 0"
        );

        // The scripted peer answers job 2 (urgent) promptly — its RS
        // partial, then its fully reduced gather chunk — but withholds
        // job 1 entirely; rank 0's scheduler must drive the urgent job
        // to completion with the low job parked on the wire.
        let peer_rs = Tensor::from_fn([4], DType::F32, |i| 100.0 + i as f32);
        let peer_ag = Tensor::from_fn([4], DType::F32, |i| 200.0 + i as f32);
        peer.send_tagged(0, 2, Some(0), WireMsg::Tensor(peer_rs));
        peer.send_tagged(0, 2, Some(0), WireMsg::Tensor(peer_ag));
        let urgent = sched.wait(&me, 2);
        // Chunk 0 is the local [0..4] folded with the peer's partial;
        // chunk 1 arrived verbatim from the peer's gather hop.
        assert_eq!(
            urgent.to_f32_vec(),
            vec![100.0, 102.0, 104.0, 106.0, 200.0, 201.0, 202.0, 203.0]
        );

        let ledger = me.ledger();
        let full_volume = 2 * 16u64; // one RS + one AG chunk of 4 f32
        assert_eq!(
            ledger.class_bytes_sent[0], full_volume,
            "urgent job fully drained"
        );
        assert!(
            ledger.class_bytes_sent[5] < full_volume,
            "low-priority job still partial: {} bytes",
            ledger.class_bytes_sent[5]
        );
        assert_eq!(sched.in_flight(), 1, "low job still in flight");
        assert_eq!(completed_ids(sched.completion_events()), [2]);

        // Unblock the peer side (its RS partial, then its gather chunk)
        // so the low job can finish too.
        peer.send_tagged(
            0,
            1,
            Some(5),
            WireMsg::Tensor(Tensor::zeros([4], DType::F32)),
        );
        peer.send_tagged(
            0,
            1,
            Some(5),
            WireMsg::Tensor(Tensor::zeros([4], DType::F32)),
        );
        sched.drain(&me);
        assert_eq!(completed_ids(sched.completion_events()), [2, 1]);
        assert_eq!(me.ledger().class_bytes_sent[5], full_volume);
        // The scripted peer leaves its incoming chunks unread; that is
        // fine — channels are unbounded and the test owns both ends.
    }

    /// The transfer discipline only reorders wire service: an N-job
    /// mixed ring/switch workload produces bit-identical results and
    /// identical per-class ledger byte totals under FIFO and under the
    /// contention-aware scheduler, on every rank — the determinism
    /// contract that makes `xfer` a pure performance knob.
    #[test]
    fn aware_discipline_is_bit_identical_to_fifo() {
        use crate::ledger::BytesLedger;
        let k = 4usize;
        let run = move |xfer: XferSched| -> Vec<(Vec<Vec<u32>>, BytesLedger)> {
            run_ranks(k, move |comm| {
                let rng = CounterRng::new(17);
                // Mixed sizes and classes: the big low-priority ring
                // job convoys the small ones under FIFO, and the Aware
                // policy reorders them — results must not move.
                let big = Tensor::randn([64], DType::F32, rng, (comm.rank() * 7) as u64);
                let mid = Tensor::randn([16], DType::F32, rng, (comm.rank() * 7 + 1) as u64);
                let tiny = Tensor::randn([4], DType::F32, rng, (comm.rank() * 7 + 2) as u64);
                let quant = Tensor::randn([8], DType::F32, rng, (comm.rank() * 7 + 3) as u64);
                let mut sched = CommScheduler::new().with_xfer(xfer);
                sched.enqueue(1, 1, group_of(k), &big, ReduceOp::Sum, WireFormat::Dense, 1);
                sched.enqueue(2, 3, group_of(k), &mid, ReduceOp::Sum, WireFormat::Fp16, 1);
                sched.enqueue(
                    3,
                    2,
                    group_of(k),
                    &tiny,
                    ReduceOp::Max,
                    WireFormat::Dense,
                    1,
                );
                sched.enqueue_switch(4, 0, group_of(k), &quant, ReduceOp::Sum);
                sched.drain(&comm);
                let outs: Vec<Vec<u32>> = (1..=4)
                    .map(|id| {
                        sched
                            .wait(&comm, id)
                            .to_f32_vec()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect()
                    })
                    .collect();
                (outs, comm.ledger())
            })
        };
        let fifo = run(XferSched::Fifo);
        let aware = run(XferSched::Aware);
        for (rank, ((fo, fl), (ao, al))) in fifo.iter().zip(aware.iter()).enumerate() {
            assert_eq!(fo, ao, "rank {rank}: outputs diverged across disciplines");
            assert_eq!(
                fl.class_bytes_sent, al.class_bytes_sent,
                "rank {rank}: per-class ledger diverged"
            );
        }
        // And the Aware run itself is reproducible poll-for-poll.
        let again = run(XferSched::Aware);
        for ((ao, al), (bo, bl)) in aware.iter().zip(again.iter()) {
            assert_eq!(ao, bo);
            assert_eq!(al.class_bytes_sent, bl.class_bytes_sent);
        }
    }

    /// The streaming training loop is bit-identical across channel
    /// widths: lanes change the wire framing, never the parameters.
    #[test]
    fn stream_executor_channels_are_bit_identical() {
        let k = 4usize;
        let layers = 3usize;
        let iters = 3u64;
        let run = move |channels: usize| {
            run_ranks(k, move |comm| {
                let rng = CounterRng::new(11);
                let params: Vec<Tensor> = (0..layers)
                    .map(|l| Tensor::randn([6], DType::F32, rng, l as u64))
                    .collect();
                let mut exec = StreamExecutor::new(
                    group_of(k),
                    params,
                    CommSched::Priority,
                    WireFormat::Dense,
                )
                .with_channels(channels);
                let rank = comm.rank();
                exec.run_iterations(
                    &comm,
                    iters,
                    |_, _, _| {},
                    move |l, iter, p| {
                        let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
                        let lf = l as f32;
                        Tensor::from_fn([6], DType::F32, |i| p.get(i) * scale + lf + i as f32 * 0.1)
                    },
                    |_, p, g| {
                        let step = Tensor::from_fn([6], DType::F32, |i| p.get(i) - 0.05 * g.get(i));
                        *p = step;
                    },
                );
                exec.params()
            })
        };
        let single = run(1);
        for channels in [2usize, 4] {
            let striped = run(channels);
            for (rank, (sp, cp)) in single.iter().zip(striped.iter()).enumerate() {
                for (a, b) in sp.iter().zip(cp.iter()) {
                    assert_eq!(
                        a.to_f32_vec(),
                        b.to_f32_vec(),
                        "C={channels} rank={rank}: params diverged"
                    );
                }
            }
        }
    }

    /// The streaming loop produces bit-identical parameters to the
    /// barriered loop — whatever order peers' chunks complete in: every
    /// `forward` and `grad` sleeps a seeded pseudo-random time keyed by
    /// `(rank, iter, layer)`, so ranks drift apart differently at every
    /// step — while its completion log proves first-consumed gradients
    /// synchronized first.
    #[test]
    fn stream_executor_matches_barriered_and_reorders() {
        let k = 4usize;
        let layers = 3usize;
        let iters = 5u64;
        // Up to 40 µs, from the counter RNG's stream.
        let delay = |salt: u64, rank: usize, iter: u64, l: usize| {
            let key = (salt << 40) | ((rank as u64) << 32) | (iter << 8) | l as u64;
            let ns = CounterRng::new(0x5eed).u64_at(key) % 40_000;
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        };
        let run = move |sched_kind: CommSched| {
            run_ranks(k, move |comm| {
                let rng = CounterRng::new(11);
                let params: Vec<Tensor> = (0..layers)
                    .map(|l| Tensor::randn([6], DType::F32, rng, l as u64))
                    .collect();
                let mut exec =
                    StreamExecutor::new(group_of(k), params, sched_kind, WireFormat::Dense);
                let rank = comm.rank();
                exec.run_iterations(
                    &comm,
                    iters,
                    move |l, iter, _| delay(0, rank, iter, l),
                    move |l, iter, p| {
                        delay(1, rank, iter, l);
                        // Rank- and iteration-dependent local gradient.
                        let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
                        let lf = l as f32;
                        Tensor::from_fn([6], DType::F32, |i| p.get(i) * scale + lf + i as f32 * 0.1)
                    },
                    |_, p, g| {
                        let lr = 0.05f32;
                        let step = Tensor::from_fn([6], DType::F32, |i| p.get(i) - lr * g.get(i));
                        *p = step;
                    },
                );
                (exec.params(), completed_ids(exec.completion_events()))
            })
        };
        let barriered = run(CommSched::Barriered);
        let streamed = run(CommSched::Priority);
        for ((bp, _), (sp, log)) in barriered.iter().zip(streamed.iter()) {
            for (b, s) in bp.iter().zip(sp.iter()) {
                assert_eq!(b.to_f32_vec(), s.to_f32_vec(), "params diverge");
            }
            // Within each iteration the layer-0 job (enqueued last)
            // completes before the layer-2 job (enqueued first).
            for it in 0..iters {
                let pos = |l: usize| {
                    log.iter()
                        .position(|&j| j == it * layers as u64 + l as u64)
                        .expect("job completed")
                };
                assert!(
                    pos(0) < pos(layers - 1),
                    "iter {it}: first-consumed gradient must land first"
                );
            }
        }
    }
}
