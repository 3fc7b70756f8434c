//! Functional ring collectives over the message fabric.
//!
//! These are NCCL's ring algorithms with real data movement: the same
//! chunk ordering (rank *i* owns chunk *i* after a ReduceScatter — the
//! property the paper's overlapped MatMul schedules against, §5.3),
//! with reductions accumulated in `f32` like the generated mixed-
//! precision kernels.
//!
//! The ring exists once, as the resumable `RingLane` state machine:
//! wire format and channel count are parameters of it, one builder
//! (`compressed::collective_jobs`) makes every blocking collective's
//! and every scheduled AllReduce's lanes, and blocking versus scheduled
//! execution is only a choice of who waits for the next hop (the one
//! blocking drive `compressed::run_blocking`, or the
//! [`CommScheduler`](crate::CommScheduler)). The public way in is the
//! dispatch ([`all_reduce_wire_striped`](crate::all_reduce_wire_striped)
//! and its ReduceScatter and AllGather siblings), which resolves every
//! call through [`CommConfig::executed_as`](coconet_core::CommConfig::executed_as).
//!
//! Data movement is minimal by construction: chunks travel as
//! copy-on-write buffer handles (a send copies nothing, and the stripes
//! of one payload rejoin as the view covering them), every fold is one
//! fused out-of-place kernel writing a fresh stripe, and the only other
//! materialization is the output, each element written once — never a
//! zero-filled buffer copied over. The [`BytesLedger`](crate::BytesLedger)
//! suite asserts the exact bytes.

use coconet_compress::WireFormat;
use coconet_core::{CollAlgo, Executed};
use coconet_tensor::{kernels, DType, ReduceOp, Shape, Tensor, F16};
use coconet_trace as trace;
use coconet_trace::metrics::Counter;
use coconet_trace::EventKind;

use crate::comm::{Side, WireMsg};
use crate::compressed::{all_reduce_wire_striped, collective_jobs, run_blocking, Job};
use crate::RankComm;

pub use coconet_core::MAX_CHANNELS;

/// The `lanes` contiguous stripes of a payload — zero-copy views of
/// exactly its bytes; `lanes <= 1` is the payload whole.
pub(crate) fn stripes(payload: &Tensor, lanes: usize) -> Vec<Tensor> {
    if lanes <= 1 {
        return vec![payload.clone()];
    }
    let n = payload.numel();
    (0..lanes)
        .map(|s| match chunk_range(n, lanes, s) {
            (_, 0) => payload.slice_flat(0, 0).expect("empty view"),
            (off, len) => payload.slice_flat(off, len).expect("in range"),
        })
        .collect()
}

/// Sends an (already wire-encoded) payload on the plain stream as its
/// `channels` [`stripes`].
pub(crate) fn send_striped(comm: &RankComm, dst: usize, payload: Tensor, channels: usize) {
    for stripe in stripes(&payload, channels) {
        comm.send(dst, stripe);
    }
}

/// Receives the `channels` lane stripes of one logical payload (in
/// lane order — the fabric is per-source FIFO) and rejoins them as the
/// view of the sent buffer covering them, copying nothing. The inverse
/// of [`send_striped`]; `channels <= 1` is a plain [`RankComm::recv`].
pub(crate) fn recv_striped(comm: &RankComm, src: usize, channels: usize) -> Tensor {
    join_stripes((0..channels.max(1)).map(|_| comm.recv(src)).collect())
}

/// Encodes a tensor for the wire: a handle copy for the dense wire, an
/// FP16 rounding for [`WireFormat::Fp16`]. The top-k format never
/// reaches the dense collectives' send path (its AllReduce is the
/// sparse exchange; everything else resolves to dense), so it encodes
/// as dense here.
pub(crate) fn wire_encode(t: &Tensor, wire: WireFormat) -> Tensor {
    match wire {
        WireFormat::Fp16 => {
            let _codec = trace::span(EventKind::Codec, "fp16:encode", t.numel() as u64, 0);
            let out = t.cast(DType::F16);
            trace::metrics::add_counter(Counter::CodecBytes, out.size_bytes() as u64);
            out
        }
        WireFormat::Dense | WireFormat::TopK { .. } => t.clone(),
    }
}

/// Decodes a received wire payload back to the collective's working
/// element type (a no-op on the dense wire, a widening for FP16).
pub(crate) fn wire_decode(t: Tensor, wire: WireFormat, dtype: DType) -> Tensor {
    match wire {
        WireFormat::Fp16 => {
            let _codec = trace::span(EventKind::Codec, "fp16:decode", t.numel() as u64, 0);
            trace::metrics::add_counter(Counter::CodecBytes, t.size_bytes() as u64);
            t.cast(dtype)
        }
        WireFormat::Dense | WireFormat::TopK { .. } => t,
    }
}

/// A group of consecutive ranks participating in a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Group {
    /// First (global) rank of the group.
    pub start: usize,
    /// Number of ranks.
    pub size: usize,
}

impl Group {
    /// The position of a global rank within the group.
    ///
    /// # Panics
    ///
    /// Panics if the rank is not a member.
    pub fn position(&self, rank: usize) -> usize {
        assert!(
            rank >= self.start && rank < self.start + self.size,
            "rank {rank} not in group [{}, {})",
            self.start,
            self.start + self.size
        );
        rank - self.start
    }

    /// The global rank at a group position.
    pub fn rank_at(&self, pos: usize) -> usize {
        self.start + pos % self.size
    }

    /// The ring successor of `rank`.
    pub fn next(&self, rank: usize) -> usize {
        self.rank_at(self.position(rank) + 1)
    }

    /// The ring predecessor of `rank`.
    pub fn prev(&self, rank: usize) -> usize {
        self.rank_at(self.position(rank) + self.size - 1)
    }
}

/// The flat element range of chunk `c` when `numel` elements are split
/// into `k` ring chunks (uneven remainders go to the leading chunks).
pub fn chunk_range(numel: usize, k: usize, c: usize) -> (usize, usize) {
    let base = numel / k;
    let rem = numel % k;
    let start = c * base + c.min(rem);
    let len = base + usize::from(c < rem);
    (start, len)
}

/// Bits a striped scheduler job's wire tag reserves for the lane index
/// — [`MAX_CHANNELS`] lanes fit exactly.
const LANE_BITS: u32 = MAX_CHANNELS.trailing_zeros();

/// Every wire tag with this bit set belongs to a blocking drive; no
/// scheduler job may carry it, so a blocking collective running while
/// scheduled jobs are in flight (the loss [`all_reduce_scalar`] that
/// `coconet_models::train_data_parallel` runs inside its `grad`
/// callback, an
/// [`overlapped_matmul_all_reduce`](crate::overlapped_matmul_all_reduce)
/// inside a `forward`) can never swallow their chunks, nor they its.
const BLOCKING_TAGS: u64 = 1 << 63;

/// The range of striped scheduler jobs' lanes; one-lane job ids stay
/// below it, so a one-lane and a striped job never share a tag.
const STRIPED_TAGS: u64 = 1 << 62;

/// The single owner of the wire-tag layout of lane `lane` of `lanes`.
///
/// * `job = None` — a blocking drive: `BLOCKING_TAGS | lane`. Every
///   blocking collective reuses these tags; per-source FIFO delivery
///   plus SPMD program order keep consecutive drives apart.
/// * `job = Some(id)`, one lane — the caller's id, untouched, so a
///   one-lane job's [`Completion`](crate::Completion) carries the
///   logical id.
/// * `job = Some(id)`, several lanes — `STRIPED_TAGS | (id << 6) | lane`.
///
/// # Panics
///
/// Panics (in every build profile) if `lane` is out of range or `id`
/// would reach into the lane bits or the striped or blocking range.
pub(crate) fn lane_tag(job: Option<u64>, lanes: usize, lane: usize) -> u64 {
    assert!(
        lane < lanes && lanes <= MAX_CHANNELS,
        "lane {lane} of {lanes} is outside the {MAX_CHANNELS}-lane tag space"
    );
    match job {
        None => BLOCKING_TAGS | lane as u64,
        Some(id) if lanes == 1 => {
            assert!(
                id < STRIPED_TAGS,
                "job id {id} is in the blocking tag range or the striped one"
            );
            id
        }
        Some(id) => {
            assert!(
                id < STRIPED_TAGS >> LANE_BITS,
                "striped job id {id} overflows the lane-tagged id space"
            );
            STRIPED_TAGS | (id << LANE_BITS) | lane as u64
        }
    }
}

/// Element-type plumbing for the ring lane's fold: the two working
/// dtypes share one generic data path, each monomorphized over its
/// fused out-of-place reduce kernel.
trait StripeElem: Copy + Send + Sync + 'static {
    /// The fill for the freshly allocated fold output (every element is
    /// overwritten before it is read).
    const ZERO: Self;
    /// The contiguous storage slice of a tensor of this element type.
    fn slice(t: &Tensor) -> &[Self];
    /// `dst[i] = op(a[i], b[i])` through the kernel engine.
    fn reduce_out(a: &[Self], b: &[Self], dst: &mut [Self], op: ReduceOp);
    /// Adopts an owned vector as a flat tensor without a copy.
    fn tensor_from(data: Vec<Self>) -> Tensor;
}

impl StripeElem for f32 {
    const ZERO: f32 = 0.0;
    fn slice(t: &Tensor) -> &[f32] {
        t.as_f32_slice().expect("working dtype is F32")
    }
    fn reduce_out(a: &[f32], b: &[f32], dst: &mut [f32], op: ReduceOp) {
        kernels::reduce_f32_out(a, b, dst, op);
    }
    fn tensor_from(data: Vec<f32>) -> Tensor {
        Tensor::from_f32_vec([data.len()], DType::F32, data).expect("length matches shape")
    }
}

impl StripeElem for F16 {
    const ZERO: F16 = F16::ZERO;
    fn slice(t: &Tensor) -> &[F16] {
        t.as_f16_slice().expect("working dtype is F16")
    }
    fn reduce_out(a: &[F16], b: &[F16], dst: &mut [F16], op: ReduceOp) {
        kernels::reduce_f16_out(a, b, dst, op);
    }
    fn tensor_from(data: Vec<F16>) -> Tensor {
        Tensor::from_f16_vec([data.len()], data).expect("length matches shape")
    }
}

/// The one fold: `local ∘ incoming` written to a fresh owned buffer of
/// `local`'s shape by the fused out-of-place kernel — no copy-on-write
/// detach, and the operand order every element of every width sees.
fn fold(local: &Tensor, incoming: &Tensor, op: ReduceOp) -> Tensor {
    fn typed<E: StripeElem>(local: &Tensor, incoming: &Tensor, op: ReduceOp) -> Tensor {
        let mut out = vec![E::ZERO; local.numel()];
        E::reduce_out(E::slice(local), E::slice(incoming), &mut out, op);
        E::tensor_from(out)
    }
    let out = match local.dtype() {
        DType::F32 => typed::<f32>(local, incoming, op),
        DType::F16 => typed::<F16>(local, incoming, op),
    };
    out.reshape(local.shape().clone()).expect("same numel")
}

/// One hop's `local ∘ decode(incoming)`, wire-encoded when `encode` (the
/// fold is the next payload) and in the working dtype otherwise (another
/// fold reads it, or the caller). The values are exactly those of
/// decoding, [`fold`] and encoding in turn — the encode points do not
/// move. On the FP16 wire over an F32 working dtype the three are one
/// kernel pass ([`kernels::fold_f16_wire`] /
/// [`kernels::fold_f16_wire_encode`]) with no widened copy of the
/// payload; elsewhere the codec is a handle copy or a no-op cast.
pub(crate) fn fold_hop(
    local: &Tensor,
    incoming: Tensor,
    op: ReduceOp,
    wire: WireFormat,
    encode: bool,
) -> Tensor {
    let (dtype, shape) = (local.dtype(), local.shape().clone());
    if wire != WireFormat::Fp16 || dtype != DType::F32 {
        let folded = fold(local, &wire_decode(incoming, wire, dtype), op);
        return if encode {
            wire_encode(&folded, wire)
        } else {
            folded
        };
    }
    let _codec = trace::span(EventKind::Codec, "fp16:fold", local.numel() as u64, 0);
    trace::metrics::add_counter(Counter::CodecBytes, incoming.size_bytes() as u64);
    let loc = local.as_f32_slice().expect("working dtype is F32");
    let inc = incoming.as_f16_slice().expect("an FP16 payload");
    let out = if encode {
        let mut h = vec![F16::ZERO; loc.len()];
        kernels::fold_f16_wire_encode(loc, inc, op, &mut h);
        trace::metrics::add_counter(Counter::CodecBytes, 2 * h.len() as u64);
        Tensor::from_f16_vec(shape, h)
    } else {
        let mut w = vec![0.0f32; loc.len()];
        kernels::fold_f16_wire(loc, inc, op, &mut w);
        Tensor::from_f32_vec(shape, DType::F32, w)
    };
    out.expect("length matches shape")
}

/// The ring chunk schedule: the `(send, receive)` chunk indices of
/// `step` for virtual position `j` of `k`. AllGather runs it at
/// `j = me`; ReduceScatter at `j = me − 1`, which shifts the textbook
/// schedule so position `i` ends owning chunk `i`.
pub(crate) fn ring_schedule(j: usize, k: usize, step: usize) -> (usize, usize) {
    ((j + k - step % k) % k, (j + k - step - 1) % k)
}

/// Which ring collective a [`RingLane`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RingPhase {
    /// `k−1` folding hops; the lane ends holding its stripe of the
    /// fully reduced chunk `me`.
    ReduceScatter,
    /// `k−1` forwarding hops over every position's chunk.
    AllGather,
    /// ReduceScatter, then AllGather seeded with the owned stripe.
    AllReduce,
}

/// Where a [`RingLane`] reads its local chunks from.
pub(crate) enum ChunkSource {
    /// The whole local tensor: every read is a zero-copy stripe view.
    Whole(Tensor),
    /// A producer of the flat ring chunks of a tensor of this shape and
    /// type that is never resident whole: the lane calls it exactly
    /// once per chunk, at the point it first reads that chunk.
    Produced(Shape, DType, Box<dyn FnMut(usize) -> Tensor + Send>),
}

impl std::fmt::Debug for ChunkSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkSource::Whole(t) => f.debug_tuple("Whole").field(t).finish(),
            ChunkSource::Produced(shape, ..) => f.debug_tuple("Produced").field(shape).finish(),
        }
    }
}

/// One lane of a ring collective: a resumable state machine moving
/// stripe `chunk_range(chunk_len, lanes, lane)` of *every* ring chunk,
/// one hop per step. It is the only ring implementation in the crate —
/// a blocking collective parks on its inbox for each hop
/// (`run_blocking`), the [`CommScheduler`](crate::CommScheduler) polls;
/// both run [`advance`](RingLane::advance).
///
/// The invariants that make results bit-identical at every width,
/// under every schedule, live here and nowhere else:
///
/// * **fold order** — chunk `c` accumulates as `in[c] ∘ (in[c−1] ∘ (…
///   ∘ in[c+1]))`: every ReduceScatter hop computes `local ∘ incoming`
///   (`fold`) along the `ring_schedule`, and a lane only ever
///   touches its own stripe, so striping never regroups operands;
/// * **encode points** — a ReduceScatter payload is encoded when it is
///   sent (under FP16: one half-precision rounding per hop) and decoded
///   before its fold; the owned stripe is encoded once as the AllGather
///   starts, travels the ring as that encoded handle, and every rank —
///   its owner included — keeps the decoding of the same encoded
///   buffer, so all ranks hold identical bits. A fold whose result is
///   the next payload writes it encoded, in the same pass as the
///   decode and the fold (`fold_hop`); the value is the same;
/// * **chunk-read order** — position `me` reads each local chunk of its
///   [`ChunkSource`] exactly once: chunk `me−1` for its first send,
///   then `me−2, …, me` for its `k−1` folds — the order the §5.3
///   overlapped MatMul must produce chunks in
///   ([`production_order`](crate::production_order)). A fold's local
///   chunk is read *after* that step's send and *before* its receive,
///   so a producer computes it while the wire is busy.
#[derive(Debug)]
pub(crate) struct RingLane {
    phase: RingPhase,
    tag: u64,
    /// `Some` when scheduled (hops ledgered at the class and traced
    /// under the tag), `None` for a blocking drive (no class, hop
    /// instants carry [`trace::JOB_NONE`]).
    class: Option<u8>,
    lane: usize,
    lanes: usize,
    group: Group,
    op: ReduceOp,
    wire: WireFormat,
    dtype: DType,
    /// Shape of the source tensor — an AllReduce's result shape.
    shape: Shape,
    /// The local contribution, held while ReduceScatter hops read it.
    source: Option<ChunkSource>,
    step: usize,
    sent: bool,
    /// This step's fold operand, read from the source once its send is
    /// on the wire.
    local: Option<Tensor>,
    /// The next outgoing stripe, wire-encoded (a ReduceScatter fold
    /// writes it so), or an AllGather's owned chunk before its first
    /// send, or a ReduceScatter's result (working dtype).
    carry: Option<Tensor>,
    /// Chunk stripes by position as they travel, wire-encoded
    /// (AllGather / AllReduce): each is decoded once, straight into the
    /// result it lands in (`all_reduce_result`).
    stripes: Vec<Option<Tensor>>,
}

impl RingLane {
    /// Lane `lane` of a `lanes`-wide ring collective over `group`.
    /// `source` is the local input (the owned chunk, whole, for
    /// [`RingPhase::AllGather`], which ignores `op`); `tag` comes from
    /// [`lane_tag`]. Performs no communication.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        phase: RingPhase,
        tag: u64,
        class: Option<u8>,
        group: Group,
        source: ChunkSource,
        op: ReduceOp,
        wire: WireFormat,
        lanes: usize,
        lane: usize,
    ) -> RingLane {
        let (shape, dtype) = match &source {
            ChunkSource::Whole(t) => (t.shape().clone(), t.dtype()),
            ChunkSource::Produced(shape, dtype, _) => (shape.clone(), *dtype),
        };
        let mut l = RingLane {
            phase,
            tag,
            class,
            lane,
            lanes,
            group,
            op,
            wire,
            dtype,
            shape,
            source: Some(source),
            step: 0,
            sent: false,
            local: None,
            carry: None,
            stripes: vec![None; group.size],
        };
        if phase == RingPhase::AllGather {
            // The source is the owned chunk itself; one lane forwards it
            // whole, shape and all.
            let Some(ChunkSource::Whole(chunk)) = l.source.take() else {
                unreachable!("an AllGather forwards a resident chunk")
            };
            let (off, len) = chunk_range(chunk.numel(), lanes, lane);
            l.carry = Some(match lanes {
                1 => chunk,
                _ => chunk.slice_flat(off, len).expect("in range"),
            });
        }
        if group.size == 1 {
            // No hops: the lane is born finished, its stripe untouched
            // by the codec.
            let own = l.carry.take().unwrap_or_else(|| l.chunk_stripe(0));
            match phase {
                RingPhase::ReduceScatter => l.carry = Some(own),
                _ => l.stripes[0] = Some(own),
            }
            l.source = None;
        }
        l
    }

    /// This lane's stripe of ring chunk `c` of the source — the one
    /// place a ReduceScatter's source is read.
    fn chunk_stripe(&mut self, c: usize) -> Tensor {
        let (off, len) = chunk_range(self.shape.numel(), self.group.size, c);
        let (s_off, s_len) = chunk_range(len, self.lanes, self.lane);
        let stripe = match self.source.as_mut().expect("source held while it is read") {
            ChunkSource::Whole(t) => t.slice_flat(off + s_off, s_len),
            ChunkSource::Produced(.., produce) => {
                let chunk = produce(c);
                assert_eq!(chunk.numel(), len, "producer returned another chunk");
                chunk.slice_flat(s_off, s_len)
            }
        };
        stripe.expect("in range")
    }

    /// The gathered (wire-encoded) stripe of chunk `c`.
    fn gathered(&self, c: usize) -> &Tensor {
        self.stripes[c].as_ref().expect("all chunks gathered")
    }

    /// Folding hops ahead of the forwarding ones.
    fn rs_hops(&self) -> usize {
        match self.phase {
            RingPhase::AllGather => 0,
            _ => self.group.size - 1,
        }
    }

    fn hops(&self) -> usize {
        match self.phase {
            RingPhase::AllReduce => 2 * (self.group.size - 1),
            _ => self.group.size - 1,
        }
    }

    /// Consumes this step's incoming stripe: fold it (ReduceScatter
    /// hop) or keep and forward it (AllGather hop).
    fn recv_step(&mut self, me: usize, incoming: Tensor) {
        let k = self.group.size;
        if self.step < self.rs_hops() {
            let local = self.local.take().expect("read before the receive");
            // The turn (an AllReduce's last fold) is the owned stripe
            // the AllGather starts with: encoded like every payload.
            let last = self.step + 1 == self.rs_hops();
            let encode = !(last && self.phase == RingPhase::ReduceScatter);
            let carry = fold_hop(&local, incoming, self.op, self.wire, encode);
            if last && self.phase == RingPhase::AllReduce {
                self.stripes[me] = Some(carry.clone());
            }
            self.carry = Some(carry);
        } else {
            let (_, recv_c) = ring_schedule(me, k, self.step - self.rs_hops());
            self.stripes[recv_c] = Some(incoming.clone());
            self.carry = Some(incoming);
        }
        self.step += 1;
        self.sent = false;
    }
    /// Advances by at most one hop: sends this step's stripe if it is
    /// not on the wire yet, reads the local chunk of the coming fold,
    /// then takes the incoming stripe — parked on the inbox when
    /// `block`, a non-blocking poll otherwise. Returns whether anything
    /// moved.
    pub(crate) fn advance(&mut self, comm: &RankComm, block: bool) -> bool {
        if self.is_done() {
            return false;
        }
        let sent = self.send(comm);
        let (k, me) = (self.group.size, self.group.position(comm.rank()));
        if self.local.is_none() && self.step < self.rs_hops() {
            let (_, recv_c) = ring_schedule((me + k - 1) % k, k, self.step);
            self.local = Some(self.chunk_stripe(recv_c));
            if self.step + 1 == self.rs_hops() {
                // That was the last local read.
                self.source = None;
            }
        }
        let prev = self.group.prev(comm.rank());
        let Some(msg) = comm.take(prev, Some(self.tag), Side::Worker, block) else {
            return sent;
        };
        let WireMsg::Tensor(incoming) = msg else {
            unreachable!("ring lanes carry dense payloads only, got {msg:?}")
        };
        self.recv_step(me, incoming);
        true
    }

    pub(crate) fn is_done(&self) -> bool {
        self.step == self.hops()
    }

    /// Puts this step's stripe on the wire unless it already is — the
    /// blocking drive's first pass, which keeps the lanes of one
    /// collective in lockstep. Returns whether it sent.
    pub(crate) fn send(&mut self, comm: &RankComm) -> bool {
        if self.sent || self.is_done() {
            return false;
        }
        let k = self.group.size;
        let me = self.group.position(comm.rank());
        let (payload, label) = if self.step < self.rs_hops() {
            let out = match self.carry.take() {
                // A fold writes its result already encoded.
                Some(encoded) => encoded,
                // First hop: the pristine input stripe, a zero-copy view.
                None => {
                    let first = self.chunk_stripe(ring_schedule((me + k - 1) % k, k, 0).0);
                    wire_encode(&first, self.wire)
                }
            };
            (out, "ring:rs")
        } else {
            let mut out = self.carry.take().expect("stripe to forward by schedule");
            if self.phase == RingPhase::AllGather && self.step == 0 {
                // An AllReduce's last fold encoded its stripe at the
                // turn; an AllGather's owned chunk is encoded here.
                out = wire_encode(&out, self.wire);
                self.stripes[me] = Some(out.clone());
            }
            (out, "ring:ag")
        };
        let id = self.class.map_or(trace::JOB_NONE, |_| self.tag);
        let bytes = payload.size_bytes() as u64;
        trace::instant_lane(EventKind::Hop, label, self.lane as u32, id, bytes);
        let next = self.group.next(comm.rank());
        comm.send_tagged(next, self.tag, self.class, WireMsg::Tensor(payload));
        self.sent = true;
        true
    }
}

/// Concatenates one payload's lane stripes. A single lane's stripe *is*
/// the payload, and the stripes of one sent buffer rejoin as the view
/// covering them, so a striped receive copies nothing.
pub(crate) fn join_stripes(mut stripes: Vec<Tensor>) -> Tensor {
    if stripes.len() == 1 {
        return stripes.remove(0);
    }
    let parts: Vec<&Tensor> = stripes.iter().collect();
    Tensor::concat(&parts, 0).expect("stripes share one dtype")
}

/// The replicated result of all the finished [`RingPhase::AllReduce`]
/// lanes of one collective (in any order), in the input's shape. Every
/// gathered stripe is written once: dense stripes are concatenated in
/// offset order (chunk-major, then lane); FP16 wire stripes decode
/// straight into their windows of one landing buffer — the one decoding
/// every rank, the stripe's owner included, keeps of the same encoded
/// buffer.
pub(crate) fn all_reduce_result(lanes: &[RingLane]) -> Tensor {
    let first = &lanes[0];
    let (shape, k) = (first.shape.clone(), first.group.size);
    if first.gathered(0).dtype() == first.dtype {
        let mut by_lane: Vec<&RingLane> = lanes.iter().collect();
        by_lane.sort_by_key(|l| l.lane);
        let parts: Vec<&Tensor> = (0..k)
            .flat_map(|c| by_lane.iter().map(move |l| l.gathered(c)))
            .collect();
        let joined = Tensor::concat(&parts, 0).expect("stripes share one dtype");
        return joined.reshape(shape).expect("stripes tile the tensor");
    }
    let n = shape.numel();
    let mut out = Tensor::zeros(shape, first.dtype);
    let dst = out.as_f32_slice_mut().expect("the FP16 wire lands in F32");
    for lane in lanes {
        for c in 0..k {
            let (c_off, c_len) = chunk_range(n, k, c);
            let (s_off, _) = chunk_range(c_len, lane.lanes, lane.lane);
            let stripe = lane.gathered(c);
            let encoded = stripe.as_f16_slice().expect("an FP16 wire stripe");
            let _codec = trace::span(EventKind::Codec, "fp16:decode", encoded.len() as u64, 0);
            trace::metrics::add_counter(Counter::CodecBytes, stripe.size_bytes() as u64);
            let at = c_off + s_off;
            kernels::f16_decode(encoded, &mut dst[at..at + encoded.len()]);
        }
    }
    out
}

/// The ring lanes of a finished blocking ring collective, in lane order.
fn ring_lanes(jobs: Vec<Job>) -> impl Iterator<Item = RingLane> {
    jobs.into_iter().map(|job| match job {
        Job::Ring(lane) => lane,
        _ => unreachable!("a ring collective runs ring lanes only"),
    })
}

/// Ring ReduceScatter, the ring `run` of
/// [`reduce_scatter_wire_striped`](crate::reduce_scatter_wire_striped):
/// every rank contributes its full local tensor; the rank at group
/// position `i` returns the fully reduced chunk `i` (flat element range
/// `chunk_range(numel, k, i)`) — the ownership the paper's overlapped
/// MatMul schedules against (§5.3). The shared builder's lanes under the
/// blocking drive.
pub(crate) fn reduce_scatter_ring(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    run: Executed,
) -> Tensor {
    let phase = RingPhase::ReduceScatter;
    let mut jobs = collective_jobs(None, None, phase, group, input, op, run, None);
    run_blocking(comm, "ring:rs", input.numel(), &mut jobs);
    let own = |l: RingLane| l.carry.expect("reduce-scatter ends owning its stripe");
    join_stripes(ring_lanes(jobs).map(own).collect())
}

/// Ring AllGather, the ring `run` of
/// [`all_gather_wire_striped`](crate::all_gather_wire_striped): position
/// `i` contributes chunk `i`; returns all `k` chunks in position order,
/// each decoded once from the one encoded buffer its owner sent.
pub(crate) fn all_gather_ring(
    comm: &RankComm,
    group: Group,
    chunk: &Tensor,
    run: Executed,
) -> Vec<Tensor> {
    // The gather folds nothing; the op is never read.
    let (phase, op) = (RingPhase::AllGather, ReduceOp::Sum);
    let mut jobs = collective_jobs(None, None, phase, group, chunk, op, run, None);
    run_blocking(comm, "ring:ag", chunk.numel(), &mut jobs);
    let mut lanes: Vec<RingLane> = ring_lanes(jobs).collect();
    (0..group.size)
        .map(|c| {
            let stripe = |l: &mut RingLane| l.stripes[c].take().expect("all chunks gathered");
            let encoded = join_stripes(lanes.iter_mut().map(stripe).collect());
            wire_decode(encoded, run.format, chunk.dtype())
        })
        .collect()
}

/// Broadcast from the group-relative `root` position. The root fans
/// out one shared buffer handle per peer — the value itself is never
/// duplicated, no matter the group size.
pub fn broadcast(comm: &RankComm, group: Group, value: Option<&Tensor>, root: usize) -> Tensor {
    let me = group.position(comm.rank());
    if me == root {
        let v = value.expect("root must provide the value");
        for pos in 0..group.size {
            if pos != root {
                comm.send(group.rank_at(pos), v.clone());
            }
        }
        v.clone()
    } else {
        comm.recv(group.rank_at(root))
    }
}

/// Reduce to the group-relative `root` position; non-roots return their
/// own contribution unchanged (the result is only meaningful on root).
pub fn reduce(comm: &RankComm, group: Group, input: &Tensor, op: ReduceOp, root: usize) -> Tensor {
    let me = group.position(comm.rank());
    if me == root {
        // Every fold writes a fresh buffer in one pass; the input is
        // never detached. Deterministic order: ascending positions.
        let mut acc = input.clone();
        for pos in 0..group.size {
            if pos != root {
                acc = fold(&acc, &comm.recv(group.rank_at(pos)), op);
            }
        }
        acc
    } else {
        comm.send(group.rank_at(root), input.clone());
        input.clone()
    }
}

/// AllReduce of a single scalar (the embedded reduction of §5.2).
/// Sums ship a two-float (hi, lo) representation to keep `f64`-ish
/// precision for norms; min/max ship one value.
pub fn all_reduce_scalar(comm: &RankComm, group: Group, value: f64, op: ReduceOp) -> f64 {
    let (ring, dense) = (CollAlgo::Ring, WireFormat::Dense);
    let dense_ring =
        |t: &Tensor| all_reduce_wire_striped(comm, group, t, op, ring, 0, dense, None, 1);
    match op {
        ReduceOp::Sum => {
            let hi = value as f32;
            let lo = (value - f64::from(hi)) as f32;
            let t =
                Tensor::from_f32([2], coconet_tensor::DType::F32, &[hi, lo]).expect("two elements");
            let reduced = dense_ring(&t);
            f64::from(reduced.get(0)) + f64::from(reduced.get(1))
        }
        ReduceOp::Min | ReduceOp::Max => {
            let t = Tensor::from_f32([1], coconet_tensor::DType::F32, &[value as f32])
                .expect("one element");
            f64::from(dense_ring(&t).get(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::compressed::tests::dense_ring;
    use crate::{all_gather_wire_striped, reduce_scatter_wire_striped};
    use coconet_tensor::DType;

    /// The dense one-lane ring ReduceScatter (sum) through the dispatch.
    fn dense_reduce_scatter(comm: &RankComm, group: Group, input: &Tensor) -> Tensor {
        let (sum, ring, dense) = (ReduceOp::Sum, CollAlgo::Ring, WireFormat::Dense);
        reduce_scatter_wire_striped(comm, group, input, sum, ring, 0, dense, 1)
    }

    /// The dense one-lane ring AllGather through the dispatch.
    fn dense_all_gather(comm: &RankComm, group: Group, chunk: &Tensor) -> Vec<Tensor> {
        all_gather_wire_striped(comm, group, chunk, CollAlgo::Ring, 0, WireFormat::Dense, 1)
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for (n, k) in [(16, 4), (17, 4), (5, 8), (0, 3), (64, 5)] {
            let mut total = 0;
            let mut next = 0;
            for c in 0..k {
                let (off, len) = chunk_range(n, k, c);
                assert_eq!(off, next);
                next = off + len;
                total += len;
            }
            assert_eq!(total, n, "n={n} k={k}");
        }
    }

    #[test]
    fn chunk_range_with_more_chunks_than_elements() {
        // k > numel: the first `numel` chunks get one element each,
        // the trailing chunks are empty — and the ranges still tile.
        for (n, k) in [(3usize, 8usize), (1, 4), (0, 5), (7, 16)] {
            let mut next = 0;
            for c in 0..k {
                let (off, len) = chunk_range(n, k, c);
                assert_eq!(off, next, "n={n} k={k} c={c}");
                assert!(len <= 1, "n={n} k={k} c={c}: len {len}");
                assert_eq!(len, usize::from(c < n), "n={n} k={k} c={c}");
                next = off + len;
            }
            assert_eq!(next, n);
        }
        // Trailing empty chunks have in-bounds offsets (== numel).
        assert_eq!(chunk_range(3, 8, 7), (3, 0));
    }

    /// Regression: the ring collectives must survive degenerate
    /// chunking (`numel < k`, empty trailing chunks) without panicking
    /// and still produce the exact reduction/gather.
    #[test]
    fn ring_collectives_handle_degenerate_chunking() {
        let k = 6;
        for n in [0usize, 1, 3, 5] {
            let results = run_ranks(k, move |comm| {
                let group = Group { start: 0, size: k };
                let input = Tensor::from_fn([n], DType::F32, |i| (comm.rank() * 10 + i) as f32);
                let ar = dense_ring(&comm, group, &input, ReduceOp::Sum);
                let chunk = dense_reduce_scatter(&comm, group, &input);
                let gathered = dense_all_gather(&comm, group, &chunk);
                (ar, chunk, gathered)
            });
            // Column sums over ranks: sum_r (10r + i) = 150 + 6i.
            for (r, (ar, chunk, gathered)) in results.iter().enumerate() {
                assert_eq!(ar.numel(), n);
                for i in 0..n {
                    assert_eq!(ar.get(i), (150 + 6 * i) as f32, "n={n} rank={r}");
                }
                let (_, len) = chunk_range(n, k, r);
                assert_eq!(chunk.numel(), len, "n={n} rank={r}");
                let total: usize = gathered.iter().map(Tensor::numel).sum();
                assert_eq!(total, n, "n={n} rank={r}");
                let flat: Vec<f32> = gathered.iter().flat_map(|c| c.to_f32_vec()).collect();
                assert_eq!(flat, ar.to_f32_vec(), "n={n} rank={r}");
            }
        }
    }

    #[test]
    fn all_reduce_sums_across_ranks() {
        let k = 4;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([10], DType::F32, |i| (comm.rank() * 100 + i) as f32);
            dense_ring(&comm, group, &input, ReduceOp::Sum)
        });
        // Expected: sum over ranks of (100r + i) = 600 + 4i.
        for t in &results {
            for i in 0..10 {
                assert_eq!(t.get(i), (600 + 4 * i) as f32);
            }
        }
        // All ranks agree exactly.
        for t in &results[1..] {
            assert_eq!(t.to_f32_vec(), results[0].to_f32_vec());
        }
    }

    #[test]
    fn reduce_scatter_owns_chunk_i() {
        let k = 4;
        let n = 16;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([n], DType::F32, |i| i as f32);
            dense_reduce_scatter(&comm, group, &input)
        });
        for (r, t) in results.iter().enumerate() {
            let (off, len) = chunk_range(n, k, r);
            assert_eq!(t.numel(), len);
            for i in 0..len {
                assert_eq!(t.get(i), (k * (off + i)) as f32, "rank {r} elem {i}");
            }
        }
    }

    #[test]
    fn all_gather_reassembles() {
        let k = 3;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let chunk = Tensor::from_fn([4], DType::F32, |i| (me * 4 + i) as f32);
            dense_all_gather(&comm, group, &chunk)
        });
        for chunks in &results {
            let flat: Vec<f32> = chunks.iter().flat_map(|c| c.to_f32_vec()).collect();
            assert_eq!(flat, (0..12).map(|i| i as f32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rs_then_ag_equals_allreduce() {
        let k = 4;
        let n = 21; // uneven on purpose
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([n], DType::F32, |i| ((comm.rank() + 1) * (i + 1)) as f32);
            let direct = dense_ring(&comm, group, &input, ReduceOp::Sum);
            let chunk = dense_reduce_scatter(&comm, group, &input);
            let gathered = dense_all_gather(&comm, group, &chunk);
            let mut composed = Tensor::zeros([n], DType::F32);
            let mut off = 0;
            for c in gathered {
                composed.write_flat(off, &c).unwrap();
                off += c.numel();
            }
            (direct, composed)
        });
        for (direct, composed) in &results {
            assert_eq!(direct.to_f32_vec(), composed.to_f32_vec());
        }
    }

    #[test]
    fn subgroup_collectives_are_independent() {
        // Two groups of 2 within a 4-rank world.
        let results = run_ranks(4, move |comm| {
            let g = if comm.rank() < 2 {
                Group { start: 0, size: 2 }
            } else {
                Group { start: 2, size: 2 }
            };
            let input = Tensor::full([4], DType::F32, (comm.rank() + 1) as f32);
            dense_ring(&comm, g, &input, ReduceOp::Sum)
        });
        assert_eq!(results[0].get(0), 3.0); // 1 + 2
        assert_eq!(results[1].get(0), 3.0);
        assert_eq!(results[2].get(0), 7.0); // 3 + 4
        assert_eq!(results[3].get(0), 7.0);
    }

    #[test]
    fn broadcast_and_reduce() {
        let k = 3;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let me = comm.rank();
            let bcast = broadcast(
                &comm,
                group,
                (me == 1)
                    .then(|| Tensor::full([2], DType::F32, 42.0))
                    .as_ref(),
                1,
            );
            let contrib = Tensor::full([2], DType::F32, (me + 1) as f32);
            let red = reduce(&comm, group, &contrib, ReduceOp::Sum, 0);
            (bcast, red)
        });
        for (b, _) in &results {
            assert_eq!(b.get(0), 42.0);
        }
        assert_eq!(results[0].1.get(0), 6.0, "root holds the reduction");
    }

    #[test]
    fn min_max_reductions() {
        let k = 3;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::full([2], DType::F32, comm.rank() as f32);
            let mn = dense_ring(&comm, group, &input, ReduceOp::Min);
            let mx = dense_ring(&comm, group, &input, ReduceOp::Max);
            (mn, mx)
        });
        for (mn, mx) in &results {
            assert_eq!(mn.get(0), 0.0);
            assert_eq!(mx.get(0), 2.0);
        }
    }

    #[test]
    fn scalar_allreduce() {
        let k = 4;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            all_reduce_scalar(&comm, group, (comm.rank() + 1) as f64, ReduceOp::Sum)
        });
        for v in results {
            assert!((v - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn group_ring_neighbors() {
        let g = Group { start: 4, size: 4 };
        assert_eq!(g.next(7), 4);
        assert_eq!(g.prev(4), 7);
        assert_eq!(g.position(6), 2);
    }

    /// A requested width clamps into `1..=`[`MAX_CHANNELS`] lanes
    /// (`executed_as` rule 7): a ring AllReduce over two ranks sends
    /// two stripes per lane.
    #[test]
    fn channels_clamp_to_the_wire_tag_range() {
        for (channels, lanes) in [(0, 1), (1, 1), (8, 8), (MAX_CHANNELS + 9, MAX_CHANNELS)] {
            let sends = run_ranks(2, move |comm| {
                let (group, input) = (
                    Group { start: 0, size: 2 },
                    Tensor::zeros([256], DType::F32),
                );
                let (sum, ring, dense) = (ReduceOp::Sum, CollAlgo::Ring, WireFormat::Dense);
                comm.reset_ledger();
                all_reduce_wire_striped(&comm, group, &input, sum, ring, 0, dense, None, channels);
                comm.ledger().sends
            });
            assert_eq!(sends, vec![2 * lanes as u64; 2], "channels {channels}");
        }
    }

    /// One function owns the tag layout: scheduler ids that would reach
    /// into the lane bits, the striped range or the blocking range are
    /// rejected in every build profile, no scheduler tag can meet a
    /// blocking one, and no one-lane job's tag can meet a striped one's.
    #[test]
    fn lane_tags_keep_blocking_and_scheduled_ranges_apart() {
        let widest_striped = (1u64 << 56) - 1;
        let widest_single = (1u64 << 62) - 1;
        for lanes in [1usize, 2, MAX_CHANNELS] {
            for lane in [0, lanes - 1] {
                let blocking = lane_tag(None, lanes, lane);
                assert_eq!(blocking >> 63, 1, "blocking tags own the top bit");
                assert_eq!(blocking & 63, lane as u64);
                for id in [0, 1, widest_striped] {
                    let striped = u64::from(lanes > 1);
                    assert_eq!(lane_tag(Some(id), lanes, lane) >> 62, striped);
                }
                let id = if lanes == 1 {
                    widest_single
                } else {
                    widest_striped
                };
                assert_eq!(lane_tag(Some(id), lanes, lane) >> 63, 0);
            }
        }
        // One lane keeps the caller's id; several shift it past the lane
        // into the striped range.
        assert_eq!(lane_tag(Some(41), 1, 0), 41);
        assert_eq!(lane_tag(Some(41), 4, 3), (1 << 62) | (41 << 6) | 3);
        // Distinct (id, lane) pairs of one width never share a tag, nor
        // a one-lane job a lane of a striped one with a smaller id.
        assert_ne!(lane_tag(Some(1), 64, 0), lane_tag(Some(0), 64, 63));
        assert_ne!(lane_tag(Some(1), 1, 0), lane_tag(Some(0), 3, 1));
    }

    #[test]
    #[should_panic(expected = "overflows the lane-tagged id space")]
    fn striped_job_id_overflow_panics() {
        lane_tag(Some(1 << 57), 2, 0);
    }

    #[test]
    #[should_panic(expected = "is in the blocking tag range")]
    fn single_lane_job_id_in_blocking_range_panics() {
        lane_tag(Some(1 << 63), 1, 0);
    }

    #[test]
    #[should_panic(expected = "outside the 64-lane tag space")]
    fn lane_beyond_the_width_panics() {
        lane_tag(None, 4, 4);
    }
}
