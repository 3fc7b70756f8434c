//! Barrier-free streaming execution: the AllReduce state machines
//! multiplexed over the tagged fabric by a priority scheduler.
//!
//! A blocking collective drives its jobs to completion before it
//! returns — a training loop built on them ends each iteration with a
//! global barrier. This module removes the barrier by *polling* the
//! very same state machines instead:
//!
//! * [`CommScheduler`] owns in-flight AllReduce jobs of every
//!   algorithm, built where the blocking dispatch builds its own
//!   (`compressed::collective_jobs`), and services them in strict
//!   `(priority class, enqueue order)`
//!   order: each scheduling round runs one hop of the highest-priority
//!   job that can make progress. A high-priority job enqueued late
//!   preempts lower ones at the next hop boundary; a blocked
//!   high-priority job parks and lower-priority traffic fills the wire
//!   until its chunk arrives. Because a polled job runs the same step
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
//! Deadlock freedom: sends never block (every inbox is unbounded), a
//! job's receives are non-blocking polls, and every rank polls every
//! unfinished job each round. A rank parks on its inbox only after a
//! round that neither moved a job nor pulled a packet — then every job
//! it holds waits on a packet its peers have not sent yet, and the next
//! one wakes it. The globally highest-priority unfinished job is
//! therefore serviced on every rank it touches whenever its next chunk
//! exists, so it completes; induction over the priority order covers
//! the rest. A peer that hangs up instead surfaces as a panic.

use coconet_compress::{ErrorFeedback, WireFormat};
use coconet_core::{CollAlgo, CollKind, CommConfig, CommSched, Executed};
use coconet_tensor::{ReduceOp, Tensor};
use coconet_trace as trace;
use coconet_trace::EventKind;

use std::collections::HashMap;

use crate::collectives::{lane_tag, Group, RingPhase};
use crate::comm::RankComm;
use crate::compressed::{all_reduce_output, collective_jobs, executed, Job};
use crate::ledger::PRIORITY_CLASSES;

/// A queued job: its wire id, the AllReduce it is one of `parts` jobs
/// of, and its `(class, seq)` service key.
#[derive(Debug)]
struct Queued {
    id: u64,
    logical: u64,
    parts: usize,
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
    /// The finished job's id: the caller's id for an AllReduce that is
    /// one job (a one-lane ring, a tree, a switch or a sparse
    /// exchange), `2^62 | (id << 6) | lane` for each lane of a striped
    /// ring.
    pub id: u64,
    /// The priority class the job ran at.
    pub class: u8,
    /// Completion time in trace-epoch nanoseconds.
    pub ts_ns: u64,
}

/// The priority queue in front of the comm fabric: in-flight AllReduce
/// jobs of every algorithm serviced in strict `(class, enqueue order)`
/// order with hop-granular preemption between priority levels.
#[derive(Debug, Default)]
pub struct CommScheduler {
    /// Unfinished jobs, kept sorted by `(class, seq)`.
    jobs: Vec<Queued>,
    next_seq: u64,
    /// Finished lanes of AllReduces whose siblings are still in flight.
    landed: HashMap<u64, Vec<Job>>,
    /// Results (and a sparse job's residual) waiting for
    /// [`CommScheduler::wait`], by logical id.
    completed: Vec<(u64, (Tensor, Option<ErrorFeedback>))>,
    /// Structured completion records in the order jobs finished — the
    /// reordering witness the steady-state experiment asserts on and
    /// the overlap profiler's job end marker.
    completions: Vec<Completion>,
}

impl CommScheduler {
    /// An empty scheduler.
    pub fn new() -> CommScheduler {
        CommScheduler::default()
    }

    /// Launches the AllReduce of `input` that `run` names — what
    /// [`CommConfig::executed_as`] resolved for the site — at `class`
    /// (clamped to [`PRIORITY_CLASSES`]; lower classes are serviced
    /// first: tag the launch with the consuming step's position in the
    /// next iteration's forward order). `id` must be agreed on by every
    /// rank in the group. An active top-k exchange runs without error
    /// feedback. Performs no communication; bits and byte totals are the
    /// blocking call's.
    ///
    /// Each lane of a striped ring is its own queue entry, preempted and
    /// interleaved independently, riding the wire tagged
    /// `2^62 | (id << 6) | lane`; a one-lane ring, the tree (whose lanes are
    /// stripes of each payload), the switch and the sparse exchange are
    /// one entry each. [`wait`](CommScheduler::wait) on `id` collects
    /// the whole AllReduce.
    ///
    /// # Panics
    ///
    /// Panics if `run` is the hierarchical algorithm, or if `id` does
    /// not fit the tag layout: `id < 2^62` for one lane, `id < 2^56` for
    /// several (the rest is lane bits and the striped and blocking
    /// ranges, which keep one-lane, striped and blocking tags apart).
    pub fn enqueue(
        &mut self,
        id: u64,
        class: u8,
        group: Group,
        input: &Tensor,
        op: ReduceOp,
        run: Executed,
    ) {
        let class = class.min(PRIORITY_CLASSES as u8 - 1);
        let (job, phase) = (Some(id), RingPhase::AllReduce);
        let jobs = collective_jobs(job, Some(class), phase, group, input, op, run, None);
        self.admit(id, class, jobs);
    }

    /// Queues the `jobs` of AllReduce `logical` at `class` — the one
    /// choke point every job passes through, so every enqueue event has
    /// a matching completion event with the same id.
    fn admit(&mut self, logical: u64, class: u8, jobs: Vec<Job>) {
        let parts = jobs.len();
        for (lane, job) in jobs.into_iter().enumerate() {
            let (id, seq) = (lane_tag(Some(logical), parts, lane), self.next_seq);
            self.next_seq += 1;
            let arg = u64::from(class);
            trace::instant(EventKind::SchedEnqueue, "sched:enqueue", id, arg);
            let queued = Queued {
                id,
                logical,
                parts,
                class,
                seq,
                job,
            };
            if queued.job.is_done() {
                // Single-rank groups finish at enqueue time.
                self.complete(queued);
                continue;
            }
            let at = self
                .jobs
                .partition_point(|j| (j.class, j.seq) <= (class, seq));
            self.jobs.insert(at, queued);
        }
    }

    /// The structured completion record (and trace instant) of job
    /// `id`. The timestamp is read unconditionally — a clock read
    /// touches no data, so disabled-tracing runs stay bit-identical.
    fn record_completion(&mut self, id: u64, class: u8) {
        let (ts_ns, arg) = (trace::now_ns(), u64::from(class));
        trace::instant(EventKind::SchedComplete, "sched:complete", id, arg);
        self.completions.push(Completion { id, class, ts_ns });
    }

    /// Files a finished job: its completion record, then — once the
    /// AllReduce's last job lands, so finished lanes do not pin their
    /// peers' buffers until somebody waits — its result.
    fn complete(&mut self, done: Queued) {
        self.record_completion(done.id, done.class);
        let landed = self.landed.entry(done.logical).or_default();
        landed.push(done.job);
        if landed.len() < done.parts {
            return;
        }
        let jobs = self.landed.remove(&done.logical).expect("just filled");
        self.completed.push((done.logical, all_reduce_output(jobs)));
    }

    /// One scheduling round: runs one hop of the first job, in strict
    /// `(class, seq)` order, that can make progress. Blocked jobs park;
    /// the first runnable lower-preference job fills the gap — that is
    /// the hop-granular preemption between priority levels. Returns
    /// `true` if any job moved.
    pub fn poll(&mut self, comm: &RankComm) -> bool {
        // `jobs` is kept sorted by (class, seq), so the busy loops that
        // call this walk it in place.
        (0..self.jobs.len()).any(|i| self.service(comm, i))
    }

    /// Polls `jobs[i]`, the `i`-th preference of this round; files it
    /// if that finished it. Returns whether it moved.
    fn service(&mut self, comm: &RankComm, i: usize) -> bool {
        if !self.jobs[i].job.advance(comm, false) {
            return false;
        }
        if i != 0 {
            // A more-preferred job was blocked on the wire and a
            // lower-preference one filled the slot — the hop-granular
            // preemption the trace exposes.
            let id = self.jobs[i].id;
            trace::instant(EventKind::SchedPreempt, "sched:fill", id, i as u64);
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
        self.wait_with_residual(comm, id).0
    }

    /// [`wait`](CommScheduler::wait), plus a sparse job's residual.
    fn wait_with_residual(&mut self, comm: &RankComm, id: u64) -> (Tensor, Option<ErrorFeedback>) {
        loop {
            if let Some(at) = self.completed.iter().position(|(j, _)| *j == id) {
                return self.completed.swap_remove(at).1;
            }
            assert!(
                self.jobs.iter().any(|j| j.logical == id),
                "waiting on job {id} that was never enqueued"
            );
            self.round(comm);
        }
    }

    /// Polls until every in-flight job completes; results stay claimable
    /// via [`wait`](CommScheduler::wait) (which no longer blocks).
    pub fn drain(&mut self, comm: &RankComm) {
        while !self.jobs.is_empty() {
            self.round(comm);
        }
    }

    /// One [`poll`](CommScheduler::poll) that parks on the inbox when
    /// it moved no job and pulled no packet: every job then waits on a
    /// packet not yet sent. A round that pulled polls again instead —
    /// one job's poll may have stashed what an earlier job waits for.
    fn round(&mut self, comm: &RankComm) {
        let pulled = comm.pulled();
        if !self.poll(comm) && comm.pulled() == pulled {
            comm.pull(true);
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
    /// far, re-injected into the next one. An in-flight sparse job
    /// holds it until `ensure_ready` waits on the job, which is before
    /// the layer's next gradient is enqueued.
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
/// Each layer's AllReduce runs as [`CommConfig::executed_as`] answers
/// for the configured algorithm, format and channels at its size (a
/// group without node geometry, so the hierarchical algorithm *is* the
/// ring), as jobs riding the scheduler at the layer's class. Every
/// layer keeps its own [`ErrorFeedback`] residual, so an active top-k
/// stream re-injects what it dropped exactly as a blocking loop holding
/// one residual per tensor does: under both schedules parameters match
/// that loop bit for bit.
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
            let (reduced, residual) = {
                let _wait = trace::span(EventKind::ReadyWait, "ready_wait", job, layer as u64);
                self.scheduler.wait_with_residual(comm, job)
            };
            if let Some(residual) = residual {
                self.params[layer].feedback = residual;
            }
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
        let (sum, kind) = (ReduceOp::Sum, CollKind::AllReduce);
        let resolve = |p: &StreamParam| executed(self.config, kind, sum, &p.value, self.group, 0);
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
                let (id, run) = (self.job_id(iter, l), runs[l]);
                let class = l.min(PRIORITY_CLASSES - 1) as u8;
                let feedback = run
                    .is_sparse()
                    .then(|| std::mem::take(&mut self.params[l].feedback));
                let (job, phase) = (Some(id), RingPhase::AllReduce);
                let jobs =
                    collective_jobs(job, Some(class), phase, self.group, &g, sum, run, feedback);
                self.scheduler.admit(id, class, jobs);
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
    use crate::comm::tests::panic_message;
    use crate::comm::{run_ranks, WireMsg};
    use crate::compressed::tests::dense_ring;
    use crate::BytesLedger;
    use coconet_tensor::{CounterRng, DType};

    fn group_of(k: usize) -> Group {
        Group { start: 0, size: k }
    }

    /// Job ids in completion order.
    fn completed_ids(events: &[Completion]) -> Vec<u64> {
        events.iter().map(|c| c.id).collect()
    }

    /// What runs for a ring AllReduce on `wire` over `lanes` lanes.
    fn ring(wire: WireFormat, lanes: usize) -> Executed {
        let algo = CollAlgo::Ring;
        Executed {
            algo,
            format: wire,
            lanes,
        }
    }

    /// What runs for a switch AllReduce.
    const SWITCH: Executed = Executed {
        algo: CollAlgo::Switch,
        format: WireFormat::Dense,
        lanes: 1,
    };

    /// Ring and switch jobs share one scheduler: the urgent switch job
    /// completes before the earlier-enqueued low-priority ring job,
    /// and both match their blocking references.
    #[test]
    fn switch_and_ring_jobs_compose_under_priority() {
        let k = 4usize;
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(7);
            let late = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10) as u64);
            let urgent = Tensor::randn([11], DType::F32, rng, (comm.rank() * 10 + 5) as u64);
            let ref_late = dense_ring(&comm, group_of(k), &late, ReduceOp::Sum);
            let (sum, switch, dense) = (ReduceOp::Sum, CollAlgo::Switch, WireFormat::Dense);
            let ref_urgent = crate::all_reduce_wire_striped(
                &comm,
                group_of(k),
                &urgent,
                sum,
                switch,
                0,
                dense,
                None,
                1,
            );
            let mut sched = CommScheduler::new();
            sched.enqueue(
                100,
                5,
                group_of(k),
                &late,
                ReduceOp::Sum,
                ring(WireFormat::Dense, 1),
            );
            sched.enqueue(200, 0, group_of(k), &urgent, ReduceOp::Sum, SWITCH);
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

    /// A [`StreamExecutor`] of one layer per entry of `sizes` under
    /// `sched`, routed through `algo` on `wire` over `channels`,
    /// produces the same parameters as a loop calling that
    /// configuration's blocking AllReduce — handed one persistent
    /// residual per layer — once per layer and iteration, bit for bit.
    fn assert_stream_matches_blocking_loop(
        sched: CommSched,
        algo: CollAlgo,
        wire: WireFormat,
        channels: usize,
        sizes: &'static [usize],
    ) {
        let k = 4usize;
        let iters = 6u64;
        let grad = |rank: usize, iter: u64, p: &Tensor| {
            let scale = (rank + 1) as f32 * 0.01 + iter as f32 * 0.001;
            Tensor::from_fn(p.shape().clone(), DType::F32, |i| {
                p.get(i) * scale + i as f32 * 0.1
            })
        };
        let step = |p: &Tensor, g: &Tensor| {
            Tensor::from_fn(p.shape().clone(), DType::F32, |i| {
                p.get(i) - 0.05 * g.get(i)
            })
        };
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(23);
            let init: Vec<Tensor> = (0..sizes.len())
                .map(|l| Tensor::randn([sizes[l]], DType::F32, rng, 1 + l as u64))
                .collect();
            let rank = comm.rank();

            // Streamed.
            let mut exec = StreamExecutor::new(group_of(k), init.clone(), sched, wire)
                .with_algo(algo)
                .with_channels(channels);
            exec.run_iterations(
                &comm,
                iters,
                |_, _, _| {},
                move |_, iter, p| grad(rank, iter, p),
                |_, p, g| *p = step(p, g),
            );
            let streamed = exec.params();

            // Blocking reference: same recurrence, blocking collective.
            let mut w = init;
            let mut feedback: Vec<ErrorFeedback> =
                sizes.iter().map(|_| ErrorFeedback::new()).collect();
            for iter in 0..iters {
                for (w, ef) in w.iter_mut().zip(&mut feedback) {
                    let (group, sum) = (group_of(k), ReduceOp::Sum);
                    let g = grad(rank, iter, w);
                    let reduced = crate::all_reduce_wire_striped(
                        &comm,
                        group,
                        &g,
                        sum,
                        algo,
                        0,
                        wire,
                        Some(ef),
                        channels,
                    );
                    *w = step(w, &reduced);
                }
            }
            (streamed, w)
        });
        for (streamed, blocking) in results {
            for (s, b) in streamed.iter().zip(&blocking) {
                assert_eq!(
                    s.to_f32_vec(),
                    b.to_f32_vec(),
                    "{sched} {algo} {wire} C={channels} {sizes:?}"
                );
            }
        }
    }

    /// The streaming switch loop matches the blocking switch loop.
    #[test]
    fn stream_executor_switch_matches_blocking_switch_loop() {
        assert_stream_matches_blocking_loop(
            CommSched::Priority,
            CollAlgo::Switch,
            WireFormat::Dense,
            1,
            &[6],
        );
    }

    /// The tree is one resumable job: under a [`StreamExecutor`] it
    /// rides the scheduler at the layer's class, under either schedule
    /// and at every width, and equals the blocking tree bit for bit —
    /// never the ring, whose fold order (and so whose bits) differ.
    #[test]
    fn stream_executor_tree_matches_blocking_tree_loop() {
        for sched in CommSched::ALL {
            for channels in [1, 3] {
                let (tree, dense) = (CollAlgo::Tree, WireFormat::Dense);
                assert_stream_matches_blocking_loop(sched, tree, dense, channels, &[6]);
            }
        }
    }

    /// An active top-k's sparse exchange is a job too, and it carries
    /// state across iterations: the executor keeps one error-feedback
    /// residual per layer, lent to each in-flight job and handed back
    /// when the job is waited on, so under either schedule it equals
    /// the blocking dispatch loop holding one persistent residual —
    /// what the wire dropped in iteration `i` is re-injected in
    /// iteration `i+1`.
    #[test]
    fn stream_executor_top_k_keeps_its_error_feedback_residual() {
        const TOP_K: WireFormat = WireFormat::TopK { k_permille: 100 };
        for sched in CommSched::ALL {
            assert_stream_matches_blocking_loop(sched, CollAlgo::Ring, TOP_K, 1, &[64]);
            // A scalar layer falls back to the dense ring on three
            // lanes, in flight beside the other layer's one-lane sparse
            // job: their wire tags must not meet.
            assert_stream_matches_blocking_loop(sched, CollAlgo::Ring, TOP_K, 3, &[1, 256]);
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
                .map(|g| dense_ring(&comm, group_of(k), g, sum))
                .collect();
            want.push(dense_ring(&comm, group_of(k), &a.matmul(&w).unwrap(), sum));

            let mut sched = CommScheduler::new();
            for (l, g) in grads.iter().enumerate().rev() {
                sched.enqueue(l as u64, l as u8, group_of(k), g, sum, ring(dense, 1));
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
                let alone = dense_ring(&comm, group_of(k), &product, ReduceOp::Sum);
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
            let ref_late = dense_ring(&comm, group_of(k), &late, ReduceOp::Sum);
            let ref_urgent = dense_ring(&comm, group_of(k), &urgent, ReduceOp::Sum);
            let mut sched = CommScheduler::new();
            // Enqueue order is backprop order: the last-consumed tensor
            // appears first.
            sched.enqueue(
                100,
                5,
                group_of(k),
                &late,
                ReduceOp::Sum,
                ring(WireFormat::Dense, 1),
            );
            sched.enqueue(
                200,
                0,
                group_of(k),
                &urgent,
                ReduceOp::Sum,
                ring(WireFormat::Dense, 1),
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
            ring(WireFormat::Dense, 1),
        );
        sched.enqueue(
            2,
            0,
            group_of(k),
            &urgent_in,
            ReduceOp::Sum,
            ring(WireFormat::Dense, 1),
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
        // fine — inboxes are unbounded and the test owns both ends.
    }

    /// A ring job whose peer hangs up after the job's first send: the
    /// waiting scheduler panics with the peer's hang-up rather than
    /// waiting for a chunk that will never come.
    #[test]
    fn waiting_on_a_hung_up_peer_panics() {
        let mut world = RankComm::world(2);
        let peer = world.pop().unwrap();
        let me = world.pop().unwrap();
        let input = Tensor::from_fn([8], DType::F32, |i| i as f32);
        let mut sched = CommScheduler::new();
        sched.enqueue(
            1,
            0,
            group_of(2),
            &input,
            ReduceOp::Sum,
            ring(WireFormat::Dense, 1),
        );
        assert!(sched.poll(&me), "the first chunk goes out");
        drop(peer);
        let message = panic_message(move || {
            sched.wait(&me, 1);
        });
        assert_eq!(message.as_deref(), Some("rank 1 hung up"));
    }

    /// Six queued jobs of mixed size, class, format, op and algorithm
    /// (dense ring, FP16 ring, `Max` ring, switch, 3-lane FP16 tree,
    /// active top-k) drain on one scheduler. Each equals its blocking
    /// collective bit for bit, its class bucket holds exactly the bytes
    /// that call sends, and the drain moves as many bytes and messages
    /// as the six calls together.
    #[test]
    fn mixed_jobs_drain_to_their_blocking_results() {
        let k = 4usize;
        let results = run_ranks(k, move |comm| {
            let rng = CounterRng::new(17);
            let seed = (comm.rank() * 7) as u64;
            let group = group_of(k);
            let (sum, max) = (ReduceOp::Sum, ReduceOp::Max);
            let (dense, fp16) = (WireFormat::Dense, WireFormat::Fp16);
            let top_k = WireFormat::TopK { k_permille: 100 };
            let input = |n: usize, salt: u64| Tensor::randn([n], DType::F32, rng, seed + salt);
            let striped_tree = CommConfig {
                algo: CollAlgo::Tree,
                format: fp16,
                channels: 3,
                ..CommConfig::default()
            };
            let sparse = CommConfig::default().with_format(top_k);
            let (tree_in, sparse_in) = (input(24, 4), input(256, 5));
            let tree_run = executed(striped_tree, CollKind::AllReduce, sum, &tree_in, group, 0);
            let sparse_run = executed(sparse, CollKind::AllReduce, sum, &sparse_in, group, 0);
            assert_eq!((tree_run.lanes, sparse_run.is_sparse()), (3, true));
            // (class, input, op, what runs)
            let jobs = [
                (1, input(64, 0), sum, ring(dense, 1)),
                (3, input(16, 1), sum, ring(fp16, 1)),
                (2, input(4, 2), max, ring(dense, 1)),
                (0, input(8, 3), sum, SWITCH),
                (4, tree_in, sum, tree_run),
                (5, sparse_in, sum, sparse_run),
            ];
            let blocking = |t: &Tensor, op, run: Executed| {
                let (algo, format, lanes) = (run.algo, run.format, run.lanes);
                crate::all_reduce_wire_striped(&comm, group, t, op, algo, 0, format, None, lanes)
            };
            let want: Vec<(Tensor, BytesLedger)> = jobs
                .iter()
                .map(|(_, t, op, run)| {
                    comm.reset_ledger();
                    (blocking(t, *op, *run), comm.ledger())
                })
                .collect();
            comm.reset_ledger();
            let mut sched = CommScheduler::new();
            for (id, (class, t, op, run)) in jobs.iter().enumerate() {
                sched.enqueue(id as u64, *class, group, t, *op, *run);
            }
            sched.drain(&comm);
            let got: Vec<Tensor> = (0..jobs.len() as u64)
                .map(|id| sched.wait(&comm, id))
                .collect();
            let classes: Vec<u8> = jobs.iter().map(|j| j.0).collect();
            (got, want, comm.ledger(), classes)
        });
        let bits =
            |t: &Tensor| -> Vec<u32> { t.to_f32_vec().iter().map(|v| v.to_bits()).collect() };
        for (rank, (got, want, drained, classes)) in results.iter().enumerate() {
            let mut total = (0, 0, 0, 0);
            for (job, (g, (w, l))) in got.iter().zip(want).enumerate() {
                assert_eq!(bits(g), bits(w), "rank {rank}, job {job}");
                let bucket = drained.class_bytes_sent[classes[job] as usize];
                assert_eq!(bucket, l.bytes_sent, "rank {rank}, job {job}: {l:?}");
                total.0 += l.bytes_sent;
                total.1 += l.sends;
                total.2 += l.bytes_received;
                total.3 += l.recvs;
            }
            let moved = (drained.bytes_sent, drained.sends);
            let taken = (drained.bytes_received, drained.recvs);
            assert_eq!(
                (moved, taken),
                ((total.0, total.1), (total.2, total.3)),
                "rank {rank}"
            );
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
