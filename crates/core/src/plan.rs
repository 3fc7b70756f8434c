//! The executable plan: what a scheduled program lowers to.
//!
//! A plan is a sequence of device *steps* — kernel launches, NCCL-style
//! collective calls, fused-collective kernels, P2P transfers, and
//! overlapped pipelines of those. The performance simulator
//! (`coconet-sim`) costs each step against a machine model; the code
//! generator emits CUDA-like source for each step.

use std::fmt;

use coconet_compress::{sparse_beats_dense, WireFormat};
use coconet_tensor::{DType, ReduceOp};

/// NCCL communication protocol (§5.1). Protocols trade latency for
/// bandwidth: `LL` (low latency) sends 8-byte packs with inline flags
/// at half line rate; `LL128` stages through shared memory reaching
/// ~95 % of line rate; `Simple` reaches full line rate with the
/// highest synchronization latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Low-latency 8-byte packs (flag per 4 bytes), ~50 % bandwidth.
    LL,
    /// 128-byte shared-memory staging, ~95 % bandwidth.
    LL128,
    /// Full-bandwidth protocol with chunk-granularity synchronization.
    Simple,
}

impl Protocol {
    /// All protocols, for autotuner sweeps.
    pub const ALL: [Protocol; 3] = [Protocol::LL, Protocol::LL128, Protocol::Simple];
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::LL => write!(f, "LL"),
            Protocol::LL128 => write!(f, "LL128"),
            Protocol::Simple => write!(f, "Simple"),
        }
    }
}

/// Collective algorithm — the logical topology a collective runs over
/// (§5.1: "NCCL creates logical topologies, such as ring and tree,
/// over the underlying interconnect network"). Like the protocol, the
/// algorithm is a tuned schedule dimension: rings win bandwidth-bound
/// large messages, trees win latency-bound small ones, and the
/// two-level hierarchical variant splits the work into intra-node
/// NVLink rings plus an inter-node exchange across node leaders.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollAlgo {
    /// Flat ring over all ranks: `2(k−1)` steps, `2(k−1)/k` volume for
    /// an AllReduce — the bandwidth-optimal choice.
    Ring,
    /// Binomial tree (reduce + broadcast): `2·log2(k)` rounds moving
    /// the full payload each — the latency-optimal choice.
    Tree,
    /// Two-level: intra-node ring over NVLink, inter-node exchange
    /// across node leaders over InfiniBand (the DGX-2 shape).
    Hierarchical,
    /// In-network aggregation (SwitchML-style): every worker streams
    /// fixed-point-quantized chunks to a programmable switch that
    /// aggregates them in flight and multicasts the result back.
    /// Per-worker AllReduce volume is exactly `2·n` wire words — two
    /// hops, *constant in the number of workers* — at the price of an
    /// integer-quantized wire.
    Switch,
}

impl CollAlgo {
    /// All algorithms, for autotuner sweeps.
    pub const ALL: [CollAlgo; 4] = [
        CollAlgo::Ring,
        CollAlgo::Tree,
        CollAlgo::Hierarchical,
        CollAlgo::Switch,
    ];

    /// Position of this algorithm in [`CollAlgo::ALL`] (for
    /// per-algorithm lookup tables).
    pub fn index(self) -> usize {
        match self {
            CollAlgo::Ring => 0,
            CollAlgo::Tree => 1,
            CollAlgo::Hierarchical => 2,
            CollAlgo::Switch => 3,
        }
    }
}

impl fmt::Display for CollAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollAlgo::Ring => write!(f, "Ring"),
            CollAlgo::Tree => write!(f, "Tree"),
            CollAlgo::Hierarchical => write!(f, "Hier"),
            CollAlgo::Switch => write!(f, "Switch"),
        }
    }
}

/// How iteration boundaries are scheduled onto the communication
/// fabric — the steady-state dimension (ROADMAP item 1, BytePS's
/// "cross global barrier"). Like the algorithm and protocol, the
/// scheduling discipline is a tuned dimension: the barriered loop
/// drains every collective before the next iteration starts, while
/// the priority scheduler keeps iteration *i*'s gradient collectives
/// draining under iteration *i+1*'s forward pass, servicing the
/// earliest-consumed tensors first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CommSched {
    /// Global barrier between iterations: all collectives drain before
    /// the next iteration's first kernel.
    Barriered,
    /// Barrier-free streaming: collectives are tagged with the
    /// consuming step's position in the next iteration's forward order
    /// and the fabric services the highest-priority (earliest-consumed)
    /// tensors first, preempting between chunks.
    Priority,
}

impl CommSched {
    /// All scheduling disciplines, for autotuner sweeps. `Barriered`
    /// comes first so a tie (any comm-free plan) deterministically
    /// keeps the simpler discipline.
    pub const ALL: [CommSched; 2] = [CommSched::Barriered, CommSched::Priority];

    /// Position of this discipline in [`CommSched::ALL`].
    pub fn index(self) -> usize {
        match self {
            CommSched::Barriered => 0,
            CommSched::Priority => 1,
        }
    }
}

impl fmt::Display for CommSched {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommSched::Barriered => write!(f, "Barriered"),
            CommSched::Priority => write!(f, "Priority"),
        }
    }
}

/// Communication configuration for a plan: collective algorithm,
/// protocol, channel count (each NCCL channel is one thread block
/// bound to one NIC/ring copy), the payload's wire format
/// (dense / FP16 / top-k sparsified — the `coconet-compress`
/// dimension), and the iteration-scheduling discipline
/// (barriered / priority-streamed — the steady-state dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CommConfig {
    /// Collective algorithm (logical topology).
    pub algo: CollAlgo,
    /// Wire protocol.
    pub protocol: Protocol,
    /// Number of channels (2–64 in the paper's autotuner sweep).
    pub channels: usize,
    /// Payload representation on the wire.
    pub format: WireFormat,
    /// Iteration-boundary scheduling discipline.
    pub sched: CommSched,
}

impl CommConfig {
    /// The same configuration under a different algorithm.
    pub fn with_algo(self, algo: CollAlgo) -> CommConfig {
        CommConfig { algo, ..self }
    }

    /// The same configuration under a different wire format.
    pub fn with_format(self, format: WireFormat) -> CommConfig {
        CommConfig { format, ..self }
    }

    /// The same configuration under a different scheduling discipline.
    pub fn with_sched(self, sched: CommSched) -> CommConfig {
        CommConfig { sched, ..self }
    }

    /// What this configuration really runs as at `site` — the single
    /// owner of every "the requested cell executes as another one"
    /// rule. The cost model prices the result and the runtime
    /// dispatches on it, so a tuned winner names what executes. It is
    /// per site, not per program: one program runs its AllReduce on the
    /// tree and its ReduceScatter on the ring.
    ///
    /// 1. Broadcast/Reduce have one root-based implementation: ring,
    ///    dense, one lane.
    /// 2. There is no tree or switch ReduceScatter/AllGather (NCCL
    ///    builds no such tree; a switch folds and multicasts, it cannot
    ///    scatter): both run the ring.
    /// 3. The hierarchical algorithm on a single node *is* the ring.
    /// 4. Top-k runs only for a non-fused sum AllReduce of a non-empty
    ///    tensor whose sparse exchange [`sparse_beats_dense`] (a
    ///    dropped entry is additively neutral only; a fused kernel
    ///    computes between two halves the exchange does not have);
    ///    everywhere else it runs dense.
    /// 5. An active top-k replaces the algorithm with the one-lane
    ///    sparse exchange (reported as `Ring` + `TopK`).
    /// 6. A switch AllReduce ships fixed-point words whatever the
    ///    format, on one in-network lane (reported as `Dense`).
    /// 7. Lanes clamp into `1..=`[`MAX_CHANNELS`]; a singleton group
    ///    runs one ([`lane_count`]).
    ///
    /// `protocol` and `sched` never enter: they change how a plan is
    /// priced and how jobs are serviced, not what a site runs.
    pub fn executed_as(&self, site: &CollSite) -> Executed {
        let one_lane = |algo, format| Executed {
            algo,
            format,
            lanes: 1,
        };
        if matches!(site.kind, CollKind::Broadcast | CollKind::Reduce) {
            return one_lane(CollAlgo::Ring, WireFormat::Dense);
        }
        let all_reduce = site.kind == CollKind::AllReduce;
        let top_k = matches!(self.format, WireFormat::TopK { .. });
        if top_k
            && all_reduce
            && !site.fused
            && site.op == ReduceOp::Sum
            && site.elems > 0
            && sparse_beats_dense(
                site.elems,
                site.group_size as u64,
                self.format.k_for(site.elems),
                site.dtype,
            )
        {
            return one_lane(CollAlgo::Ring, self.format);
        }
        let format = if top_k {
            WireFormat::Dense
        } else {
            self.format
        };
        let algo = match self.algo {
            CollAlgo::Tree | CollAlgo::Switch if !all_reduce => CollAlgo::Ring,
            CollAlgo::Hierarchical if site.nodes_spanned <= 1 => CollAlgo::Ring,
            algo => algo,
        };
        if algo == CollAlgo::Switch {
            return one_lane(algo, WireFormat::Dense);
        }
        Executed {
            algo,
            format,
            lanes: lane_count(site.group_size, self.channels),
        }
    }
}

impl Default for CommConfig {
    fn default() -> CommConfig {
        CommConfig {
            algo: CollAlgo::Ring,
            protocol: Protocol::Simple,
            channels: 16,
            format: WireFormat::Dense,
            sched: CommSched::Barriered,
        }
    }
}

impl fmt::Display for CommConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}ch/{}",
            self.algo, self.protocol, self.channels, self.format
        )?;
        // The default discipline is elided, keeping single-iteration
        // plan displays (and their pinned test strings) unchanged.
        if self.sched != CommSched::Barriered {
            write!(f, "/{}", self.sched)?;
        }
        Ok(())
    }
}

/// Which collective a communication step performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CollKind {
    /// AllReduce (ring: 2(k−1)/k data volume per rank).
    AllReduce,
    /// ReduceScatter ((k−1)/k volume).
    ReduceScatter,
    /// AllGather ((k−1)/k volume).
    AllGather,
    /// Broadcast from a root.
    Broadcast,
    /// Reduce to a root.
    Reduce,
}

impl fmt::Display for CollKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollKind::AllReduce => write!(f, "AllReduce"),
            CollKind::ReduceScatter => write!(f, "ReduceScatter"),
            CollKind::AllGather => write!(f, "AllGather"),
            CollKind::Broadcast => write!(f, "Broadcast"),
            CollKind::Reduce => write!(f, "Reduce"),
        }
    }
}

/// The most lanes a collective stripes across: wire tags reserve six
/// bits for the lane index, and the autotuner's grid tops out here too.
pub const MAX_CHANNELS: usize = 64;

/// Lanes a striped collective over `group_size` ranks runs under a
/// requested channel count: clamped into `1..=`[`MAX_CHANNELS`], except
/// that a singleton group (no hops to stripe) stays whole.
pub fn lane_count(group_size: usize, channels: usize) -> usize {
    if group_size <= 1 {
        1
    } else {
        channels.clamp(1, MAX_CHANNELS)
    }
}

/// Nodes a group of `group_size` consecutive ranks spans when
/// `ranks_per_node` of them share a node. `0` means "no node geometry":
/// the whole group is one node.
pub fn nodes_spanned(group_size: usize, ranks_per_node: usize) -> usize {
    if ranks_per_node == 0 {
        1
    } else {
        group_size.div_ceil(ranks_per_node).max(1)
    }
}

/// One collective site: everything [`CommConfig::executed_as`] needs to
/// know about *where* a configuration is asked to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CollSite {
    /// Which collective runs here.
    pub kind: CollKind,
    /// Its reduction operator (`Sum` for the kinds that fold nothing).
    pub op: ReduceOp,
    /// Global element count of the communicated tensor.
    pub elems: u64,
    /// Element type of the payload.
    pub dtype: DType,
    /// Ranks in the process group.
    pub group_size: usize,
    /// Distinct nodes the group spans (see [`nodes_spanned`]).
    pub nodes_spanned: usize,
    /// Whether computation is fused between the collective's
    /// ReduceScatter and AllGather halves (§5.2).
    pub fused: bool,
}

impl CollSite {
    /// A plain (non-fused) collective site.
    pub fn new(
        kind: CollKind,
        op: ReduceOp,
        elems: u64,
        dtype: DType,
        group_size: usize,
        nodes_spanned: usize,
    ) -> CollSite {
        CollSite {
            kind,
            op,
            elems,
            dtype,
            group_size,
            nodes_spanned,
            fused: false,
        }
    }

    /// The same site with computation fused into the collective.
    pub fn fused(self) -> CollSite {
        CollSite {
            fused: true,
            ..self
        }
    }
}

/// What really runs at a [`CollSite`] under a [`CommConfig`]. Two
/// configurations with equal `Executed` at a site are indistinguishable
/// there: same output bits, same bytes, same messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Executed {
    /// The algorithm that runs ([`CollAlgo::Ring`] carries the sparse
    /// exchange when `format` is top-k).
    pub algo: CollAlgo,
    /// The wire format that runs. [`WireFormat::TopK`] here means the
    /// sparse exchange *is* active — see [`Executed::is_sparse`].
    pub format: WireFormat,
    /// Lanes every hop is striped across.
    pub lanes: usize,
}

impl Executed {
    /// Whether the one-lane sparse top-k exchange runs here.
    pub fn is_sparse(&self) -> bool {
        matches!(self.format, WireFormat::TopK { .. })
    }
}

/// A fused pointwise kernel launch.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelStep {
    /// Human-readable label (op names).
    pub label: String,
    /// Bytes read from device memory (per rank).
    pub bytes_read: u64,
    /// Bytes written to device memory (per rank).
    pub bytes_written: u64,
    /// Floating-point operations (per rank).
    pub flops: u64,
    /// Number of DSL operations fused into this kernel.
    pub n_ops: usize,
}

/// A GEMM launch with per-rank dimensions `[m, k] x [k, n]`.
#[derive(Clone, Debug, PartialEq)]
pub struct MatMulStep {
    /// Human-readable label.
    pub label: String,
    /// Rows of the left operand (per rank).
    pub m: u64,
    /// Contraction dimension (per rank).
    pub k: u64,
    /// Columns of the right operand (per rank).
    pub n: u64,
    /// Element type.
    pub dtype: DType,
}

impl MatMulStep {
    /// Total floating-point operations (2·m·k·n).
    pub fn flops(&self) -> u64 {
        2 * self.m * self.k * self.n
    }

    /// Bytes touched (A + B read, C written).
    pub fn bytes(&self) -> u64 {
        let e = self.dtype.size_bytes() as u64;
        (self.m * self.k + self.k * self.n + self.m * self.n) * e
    }
}

/// A plain collective call (one NCCL kernel launch).
#[derive(Clone, Debug, PartialEq)]
pub struct CollectiveStep {
    /// Human-readable label.
    pub label: String,
    /// Collective kind.
    pub kind: CollKind,
    /// The reduction operator, for the reducing kinds (`Sum` for the
    /// gather/broadcast kinds, where it is unused). The cost model
    /// needs it because the sparse top-k wire exists only for *sum*
    /// AllReduces — a Min/Max AllReduce must be priced on the wire the
    /// runtime will actually run.
    pub op: ReduceOp,
    /// Collective algorithm, stamped by lowering from the plan's
    /// [`CommConfig`].
    pub algo: CollAlgo,
    /// Global element count of the communicated tensor.
    pub elems: u64,
    /// Element type.
    pub dtype: DType,
}

/// A fused collective kernel: AllReduce-volume communication with
/// computation applied in registers between the ReduceScatter and
/// AllGather phases (§5.2).
#[derive(Clone, Debug, PartialEq)]
pub struct FusedCollectiveStep {
    /// Human-readable label.
    pub label: String,
    /// Collective algorithm, stamped by lowering from the plan's
    /// [`CommConfig`].
    pub algo: CollAlgo,
    /// Global element count of the reduced tensor.
    pub elems: u64,
    /// Element type of the communicated data.
    pub dtype: DType,
    /// Extra device-memory bytes read by the fused computation
    /// (optimizer state, residuals — per rank).
    pub extra_bytes_read: u64,
    /// Extra device-memory bytes written by the fused computation
    /// (state updates — per rank).
    pub extra_bytes_written: u64,
    /// Floating-point operations of the fused computation (per rank).
    pub flops: u64,
    /// Scalar AllReduces embedded for sliced tensor reductions
    /// (LAMB's norms, §5.2 "Tensor Reduction").
    pub embedded_scalar_allreduces: usize,
    /// Number of DSL operations fused in (register-pressure proxy:
    /// §6.1.1 observes fused kernels lose thread-level parallelism).
    pub n_fused_ops: usize,
}

/// A P2P transfer to the peer rank in the next group, optionally with
/// fused computation applied to the outgoing data (§4).
#[derive(Clone, Debug, PartialEq)]
pub struct SendRecvStep {
    /// Human-readable label.
    pub label: String,
    /// Elements sent by each rank.
    pub elems_per_rank: u64,
    /// Element type.
    pub dtype: DType,
    /// Extra bytes read by fused computation (per rank).
    pub extra_bytes_read: u64,
    /// Floating-point operations of fused computation (per rank).
    pub flops: u64,
    /// Number of DSL operations fused in.
    pub n_fused_ops: usize,
}

/// A fixed, documented cost (e.g. the baseline optimizers'
/// preprocessing, §6.1.1). Never produced by lowering DSL programs;
/// used by workload models for baseline bookkeeping.
#[derive(Clone, Debug, PartialEq)]
pub struct FixedStep {
    /// What this cost models.
    pub label: String,
    /// The cost in seconds.
    pub seconds: f64,
}

/// One stage of an overlapped pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum OverlapStage {
    /// A chunk-producing GEMM.
    MatMul(MatMulStep),
    /// A plain collective consuming/producing chunks.
    Collective(CollectiveStep),
    /// A fused collective consuming/producing chunks.
    FusedCollective(FusedCollectiveStep),
    /// A chunked P2P transfer.
    SendRecv(SendRecvStep),
}

impl OverlapStage {
    /// The stage's label.
    pub fn label(&self) -> &str {
        match self {
            OverlapStage::MatMul(s) => &s.label,
            OverlapStage::Collective(s) => &s.label,
            OverlapStage::FusedCollective(s) => &s.label,
            OverlapStage::SendRecv(s) => &s.label,
        }
    }
}

/// A fine-grained overlapped pipeline (§5.3): all stages launch once
/// and stream buffer tiles through spin-lock synchronization.
#[derive(Clone, Debug, PartialEq)]
pub struct OverlappedStep {
    /// Human-readable label.
    pub label: String,
    /// The pipeline stages in dependency order.
    pub stages: Vec<OverlapStage>,
}

/// One schedulable unit of an executable plan.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// Fused pointwise kernel.
    Kernel(KernelStep),
    /// GEMM.
    MatMul(MatMulStep),
    /// Plain collective.
    Collective(CollectiveStep),
    /// Fused collective.
    FusedCollective(FusedCollectiveStep),
    /// P2P transfer.
    SendRecv(SendRecvStep),
    /// Overlapped pipeline.
    Overlapped(OverlappedStep),
    /// Fixed documented cost.
    Fixed(FixedStep),
}

impl Step {
    /// The step's label.
    pub fn label(&self) -> &str {
        match self {
            Step::Kernel(s) => &s.label,
            Step::MatMul(s) => &s.label,
            Step::Collective(s) => &s.label,
            Step::FusedCollective(s) => &s.label,
            Step::SendRecv(s) => &s.label,
            Step::Overlapped(s) => &s.label,
            Step::Fixed(s) => &s.label,
        }
    }

    /// Number of device kernel launches this step costs (an overlapped
    /// pipeline launches each stage exactly once, §5.3).
    pub fn launches(&self) -> usize {
        match self {
            Step::Overlapped(s) => s.stages.len(),
            Step::Fixed(_) => 0,
            _ => 1,
        }
    }
}

/// An executable plan: ordered steps plus the communication
/// configuration they run under.
#[derive(Clone, Debug, PartialEq)]
pub struct ExecPlan {
    /// Name (usually `program.name() + schedule label`).
    pub name: String,
    /// The steps, in execution order.
    pub steps: Vec<Step>,
    /// Communication configuration.
    pub config: CommConfig,
}

impl ExecPlan {
    /// Total kernel launches across all steps.
    pub fn total_launches(&self) -> usize {
        self.steps.iter().map(Step::launches).sum()
    }

    /// Whether every collective and fused-collective step (including
    /// overlap stages) carries the plan configuration's algorithm —
    /// the invariant [`set_config`](ExecPlan::set_config) maintains
    /// and evaluator lower bounds assume (a mismatched hand-built
    /// plan would be bounded under one algorithm but timed under
    /// another).
    pub fn algo_stamps_consistent(&self) -> bool {
        let algo = self.config.algo;
        self.steps.iter().all(|step| match step {
            Step::Collective(c) => c.algo == algo,
            Step::FusedCollective(f) => f.algo == algo,
            Step::Overlapped(ol) => ol.stages.iter().all(|stage| match stage {
                OverlapStage::Collective(c) => c.algo == algo,
                OverlapStage::FusedCollective(f) => f.algo == algo,
                OverlapStage::MatMul(_) | OverlapStage::SendRecv(_) => true,
            }),
            Step::Kernel(_) | Step::MatMul(_) | Step::SendRecv(_) | Step::Fixed(_) => true,
        })
    }

    /// Re-tags the plan with `config`, restamping the algorithm into
    /// every collective and fused-collective step (including overlap
    /// stages). Lowering is configuration-independent apart from the
    /// stamp, so this is how the autotuner sweeps one lowered plan
    /// across the whole `algo × protocol × channels` grid.
    pub fn set_config(&mut self, config: CommConfig) {
        self.config = config;
        for step in &mut self.steps {
            match step {
                Step::Collective(c) => c.algo = config.algo,
                Step::FusedCollective(f) => f.algo = config.algo,
                Step::Overlapped(ol) => {
                    for stage in &mut ol.stages {
                        match stage {
                            OverlapStage::Collective(c) => c.algo = config.algo,
                            OverlapStage::FusedCollective(f) => f.algo = config.algo,
                            OverlapStage::MatMul(_) | OverlapStage::SendRecv(_) => {}
                        }
                    }
                }
                Step::Kernel(_) | Step::MatMul(_) | Step::SendRecv(_) | Step::Fixed(_) => {}
            }
        }
    }
}

impl fmt::Display for ExecPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan {} [{}]", self.name, self.config)?;
        for (i, s) in self.steps.iter().enumerate() {
            writeln!(f, "  {i}: {}", s.label())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_step_math() {
        let s = MatMulStep {
            label: "mm".into(),
            m: 4,
            k: 8,
            n: 2,
            dtype: DType::F16,
        };
        assert_eq!(s.flops(), 2 * 4 * 8 * 2);
        assert_eq!(s.bytes(), (32 + 16 + 8) * 2);
    }

    #[test]
    fn launches() {
        let mm = MatMulStep {
            label: "mm".into(),
            m: 1,
            k: 1,
            n: 1,
            dtype: DType::F16,
        };
        let coll = CollectiveStep {
            label: "ar".into(),
            kind: CollKind::AllReduce,
            op: ReduceOp::Sum,
            algo: CollAlgo::Ring,
            elems: 8,
            dtype: DType::F16,
        };
        let overlapped = Step::Overlapped(OverlappedStep {
            label: "ol".into(),
            stages: vec![
                OverlapStage::MatMul(mm.clone()),
                OverlapStage::Collective(coll.clone()),
            ],
        });
        assert_eq!(overlapped.launches(), 2);
        assert_eq!(Step::MatMul(mm).launches(), 1);
        let plan = ExecPlan {
            name: "t".into(),
            steps: vec![
                Step::Collective(coll),
                overlapped,
                Step::Fixed(FixedStep {
                    label: "preproc".into(),
                    seconds: 1e-6,
                }),
            ],
            config: CommConfig::default(),
        };
        assert_eq!(plan.total_launches(), 3);
        let text = plan.to_string();
        assert!(text.contains("plan t [Ring/Simple/16ch/Dense]"));
        assert!(text.contains("ol"));
    }

    #[test]
    fn display_protocols() {
        assert_eq!(Protocol::LL.to_string(), "LL");
        assert_eq!(Protocol::LL128.to_string(), "LL128");
        assert_eq!(Protocol::Simple.to_string(), "Simple");
        assert_eq!(CollKind::ReduceScatter.to_string(), "ReduceScatter");
        assert_eq!(CollAlgo::Ring.to_string(), "Ring");
        assert_eq!(CollAlgo::Tree.to_string(), "Tree");
        assert_eq!(CollAlgo::Hierarchical.to_string(), "Hier");
        assert_eq!(CollAlgo::Switch.to_string(), "Switch");
    }

    #[test]
    fn algo_index_matches_position_in_all() {
        for (i, a) in CollAlgo::ALL.into_iter().enumerate() {
            assert_eq!(a.index(), i);
        }
    }

    #[test]
    fn sched_dimension_display_and_index() {
        assert_eq!(CommSched::Barriered.to_string(), "Barriered");
        assert_eq!(CommSched::Priority.to_string(), "Priority");
        for (i, s) in CommSched::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        // The default (barriered) discipline stays invisible in plan
        // displays; the streaming discipline is appended.
        let dense = CommConfig::default();
        assert_eq!(dense.to_string(), "Ring/Simple/16ch/Dense");
        let streamed = dense.with_sched(CommSched::Priority);
        assert_eq!(streamed.to_string(), "Ring/Simple/16ch/Dense/Priority");
    }

    /// The eight rules of [`CommConfig::executed_as`], one row each
    /// (plus the pass-through cases that bound them): 16 ranks on 2
    /// nodes unless the row says otherwise.
    #[test]
    fn executed_as_rule_table() {
        use CollAlgo::{Hierarchical as Hier, Ring, Switch, Tree};
        use CollKind::{AllGather, AllReduce, Broadcast, Reduce, ReduceScatter};
        use WireFormat::{Dense, Fp16};
        const TOP: WireFormat = WireFormat::TopK { k_permille: 10 };
        let site = CollSite::new(AllReduce, ReduceOp::Sum, 1 << 20, DType::F32, 16, 2);
        let of = |kind| CollSite { kind, ..site };
        let cfg = |algo, format, channels| CommConfig {
            algo,
            format,
            channels,
            ..CommConfig::default()
        };
        let ran = |algo, format, lanes| Executed {
            algo,
            format,
            lanes,
        };
        #[rustfmt::skip]
        let table = [
            // (1) Broadcast/Reduce: ring, dense, one lane — always.
            (cfg(Tree, Fp16, 8), of(Broadcast), ran(Ring, Dense, 1)),
            (cfg(Hier, TOP, 8), of(Reduce), ran(Ring, Dense, 1)),
            (cfg(Switch, Dense, 8), of(Broadcast), ran(Ring, Dense, 1)),
            // (2) no tree/switch ReduceScatter/AllGather.
            (cfg(Tree, Fp16, 4), of(ReduceScatter), ran(Ring, Fp16, 4)),
            (cfg(Switch, Dense, 4), of(AllGather), ran(Ring, Dense, 4)),
            (cfg(Hier, Dense, 4), of(ReduceScatter), ran(Hier, Dense, 4)),
            (cfg(Tree, Dense, 4), site, ran(Tree, Dense, 4)),
            // (3) hierarchical on one node is the ring.
            (cfg(Hier, Dense, 4), CollSite { nodes_spanned: 1, ..site }, ran(Ring, Dense, 4)),
            (cfg(Hier, Dense, 4), site, ran(Hier, Dense, 4)),
            // (4) top-k only for a non-fused sum AllReduce that beats dense.
            (cfg(Ring, TOP, 4), of(ReduceScatter), ran(Ring, Dense, 4)),
            (cfg(Ring, TOP, 4), of(AllGather), ran(Ring, Dense, 4)),
            (cfg(Ring, TOP, 4), site.fused(), ran(Ring, Dense, 4)),
            (cfg(Ring, TOP, 4), CollSite { op: ReduceOp::Max, ..site }, ran(Ring, Dense, 4)),
            (cfg(Ring, TOP, 4), CollSite { op: ReduceOp::Min, ..site }, ran(Ring, Dense, 4)),
            (cfg(Ring, TOP, 4), CollSite { elems: 0, ..site }, ran(Ring, Dense, 4)),
            (cfg(Ring, WireFormat::TopK { k_permille: 500 }, 4),
             CollSite { dtype: DType::F16, ..site }, ran(Ring, Dense, 4)),
            (cfg(Ring, Fp16, 4), site.fused(), ran(Ring, Fp16, 4)),
            (cfg(Ring, Fp16, 4), CollSite { op: ReduceOp::Min, ..site }, ran(Ring, Fp16, 4)),
            // (5) an active top-k replaces every algorithm, on one lane.
            (cfg(Ring, TOP, 4), site, ran(Ring, TOP, 1)),
            (cfg(Tree, TOP, 8), site, ran(Ring, TOP, 1)),
            (cfg(Hier, TOP, 8), site, ran(Ring, TOP, 1)),
            (cfg(Switch, TOP, 8), site, ran(Ring, TOP, 1)),
            // (6) a switch AllReduce ignores format and channels.
            (cfg(Switch, Fp16, 8), site, ran(Switch, Dense, 1)),
            (cfg(Switch, TOP, 8), CollSite { op: ReduceOp::Max, ..site }, ran(Switch, Dense, 1)),
            // (7) lanes clamp; a singleton group runs one.
            (cfg(Ring, Dense, 0), site, ran(Ring, Dense, 1)),
            (cfg(Ring, Dense, 999), site, ran(Ring, Dense, MAX_CHANNELS)),
            (cfg(Ring, Dense, 8), CollSite { group_size: 1, nodes_spanned: 1, ..site },
             ran(Ring, Dense, 1)),
            (cfg(Ring, Fp16, 2), site, ran(Ring, Fp16, 2)),
            (cfg(Ring, Dense, 2), of(ReduceScatter), ran(Ring, Dense, 2)),
        ];
        for (config, site, want) in table {
            assert_eq!(config.executed_as(&site), want, "{config} at {site:?}");
            // Protocol and the scheduling discipline never enter.
            for protocol in Protocol::ALL {
                let other = CommConfig {
                    protocol,
                    sched: CommSched::Priority,
                    ..config
                };
                assert_eq!(other.executed_as(&site), want, "{other} at {site:?}");
            }
        }
        assert_eq!((nodes_spanned(16, 0), nodes_spanned(16, 16)), (1, 1));
        assert_eq!((nodes_spanned(16, 8), nodes_spanned(5, 2)), (2, 3));
    }

    #[test]
    fn set_config_restamps_every_collective() {
        let coll = CollectiveStep {
            label: "ar".into(),
            kind: CollKind::AllReduce,
            op: ReduceOp::Sum,
            algo: CollAlgo::Ring,
            elems: 8,
            dtype: DType::F16,
        };
        let fused = FusedCollectiveStep {
            label: "f".into(),
            algo: CollAlgo::Ring,
            elems: 8,
            dtype: DType::F16,
            extra_bytes_read: 0,
            extra_bytes_written: 0,
            flops: 0,
            embedded_scalar_allreduces: 0,
            n_fused_ops: 1,
        };
        let mut plan = ExecPlan {
            name: "t".into(),
            steps: vec![
                Step::Collective(coll.clone()),
                Step::Overlapped(OverlappedStep {
                    label: "ol".into(),
                    stages: vec![
                        OverlapStage::Collective(coll),
                        OverlapStage::FusedCollective(fused),
                    ],
                }),
            ],
            config: CommConfig::default(),
        };
        plan.set_config(CommConfig::default().with_algo(CollAlgo::Tree));
        assert_eq!(plan.config.algo, CollAlgo::Tree);
        match &plan.steps[0] {
            Step::Collective(c) => assert_eq!(c.algo, CollAlgo::Tree),
            other => panic!("unexpected step {other:?}"),
        }
        match &plan.steps[1] {
            Step::Overlapped(ol) => {
                for stage in &ol.stages {
                    match stage {
                        OverlapStage::Collective(c) => assert_eq!(c.algo, CollAlgo::Tree),
                        OverlapStage::FusedCollective(f) => assert_eq!(f.algo, CollAlgo::Tree),
                        other => panic!("unexpected stage {other:?}"),
                    }
                }
            }
            other => panic!("unexpected step {other:?}"),
        }
    }
}
