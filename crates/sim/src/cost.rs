//! Analytic cost models for kernels and collectives.
//!
//! Every figure in the paper is a *relative* comparison of schedules on
//! the same machine; the model reproduces the first-order terms that
//! separate them: kernel launch counts, memory traffic (what fusion
//! saves), the ring collective's `2(k-1)/k` volume and per-step
//! latencies (what protocol/channel choice trades), the shared
//! inter-node fabric (what sliced P2P saves), and register-pressure
//! penalties of fused kernels (why fusion loses at small sizes,
//! §6.1.1).

use coconet_compress::{
    sparse_all_reduce_rounds, sparse_all_reduce_wire_bytes, switch_all_reduce_wire_bytes,
    QUANT_WORD_BYTES,
};
use coconet_core::{
    CollAlgo, CollKind, CollSite, CommConfig, DType, FusedCollectiveStep, KernelStep, MatMulStep,
    ReduceOp, SendRecvStep, WireFormat,
};
use coconet_topology::MachineSpec;

use crate::protocol;

/// Per-rank wire bytes of one collective under one algorithm, split
/// by fabric segment. Ring and tree algorithms are bottlenecked by
/// their slowest logical edge (`edge`); the hierarchical algorithm's
/// phases occupy the intra-node NVLink fabric (`intra`) and the node
/// leader's InfiniBand NICs (`inter`) separately. Dividing each field
/// by the matching effective bandwidth and summing gives the
/// bandwidth-only transfer time — the admissible floor the autotuner
/// prunes with.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WireBytes {
    /// Bytes crossing the flat ring/tree bottleneck edge.
    pub edge: f64,
    /// Bytes moved over intra-node NVLink (hierarchical phases).
    pub intra: f64,
    /// Bytes a node leader moves over InfiniBand (hierarchical).
    pub inter: f64,
}

impl WireBytes {
    /// Field-wise sum.
    pub fn accumulate(&mut self, other: WireBytes) {
        self.edge += other.edge;
        self.intra += other.intra;
        self.inter += other.inter;
    }

    /// Field-wise maximum.
    pub fn max(self, other: WireBytes) -> WireBytes {
        WireBytes {
            edge: self.edge.max(other.edge),
            intra: self.intra.max(other.intra),
            inter: self.inter.max(other.inter),
        }
    }
}

/// Geometry of the process group a collective runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GroupGeom {
    /// Ranks in the group.
    pub size: usize,
    /// Distinct nodes the group spans.
    pub nodes_spanned: usize,
    /// Ranks of the group residing on each node (= senders sharing one
    /// node's NICs during a cross-node P2P).
    pub ranks_per_node: usize,
}

impl GroupGeom {
    /// The (non-fused) collective site of `kind` over this group — what
    /// [`CommConfig::executed_as`] resolves a configuration against.
    pub fn site(self, kind: CollKind, op: ReduceOp, elems: u64, dtype: DType) -> CollSite {
        CollSite::new(kind, op, elems, dtype, self.size, self.nodes_spanned)
    }
}

/// Tunable second-order knobs, with defaults calibrated in DESIGN.md.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostKnobs {
    /// Achievable fraction of link bandwidth (protocol overheads,
    /// congestion).
    pub fabric_efficiency: f64,
    /// Achievable fraction of HBM bandwidth for streaming kernels.
    pub memory_efficiency: f64,
    /// Peak fraction a well-shaped large GEMM reaches on tensor cores.
    pub matmul_efficiency: f64,
    /// Per-collective-call bootstrap/synchronization cost, multiplied
    /// by log2(group size).
    pub call_sync_per_log_rank: f64,
    /// Launch-equivalents of latency added per operation fused into a
    /// collective kernel (register pressure limits thread-level
    /// parallelism, §6.1.1). Multiplied by the kernel launch overhead
    /// and the fused op count.
    pub fused_reg_pressure: f64,
    /// Seconds per scattered-tensor bucket (warp-level index lookup,
    /// §5.4).
    pub scattered_bucket_cost: f64,
    /// Seconds per distinct scattered tensor (offset precalculation).
    pub scattered_tensor_cost: f64,
    /// Per-extra-channel setup cost of a striped collective: each lane
    /// beyond the first adds its own send/receive descriptor posting
    /// and completion tracking per call. Calibrated against the
    /// runtime's measured multi-channel AllReduce sweep (the
    /// `ablation_channels` trajectory row): wider striping overlaps
    /// better but never for free, so the tuner's channel sweep has a
    /// genuine optimum instead of saturating at the grid edge. Added
    /// on top of the bandwidth floor, which stays channel-count-free —
    /// the beam-pruning lower bound remains admissible.
    pub channel_setup: f64,
    /// Per-direction processing cost of the in-network aggregation
    /// switch (`CollAlgo::Switch`): packet parse, the integer fold in
    /// the dataplane pipeline, and the multicast fan-out setup. Paid
    /// once on the way up and once on the way down — constant in the
    /// worker count, which is the whole point, but large enough that
    /// the ring/tree win until their per-hop latency chains outgrow it.
    pub switch_process: f64,
}

impl Default for CostKnobs {
    fn default() -> CostKnobs {
        CostKnobs {
            fabric_efficiency: 0.85,
            memory_efficiency: 0.80,
            matmul_efficiency: 0.70,
            call_sync_per_log_rank: 8.0e-6,
            fused_reg_pressure: 0.4,
            scattered_bucket_cost: 1.0e-9,
            scattered_tensor_cost: 1.0e-7,
            channel_setup: 2.0e-6,
            switch_process: 20.0e-6,
        }
    }
}

/// The analytic cost model over a [`MachineSpec`].
#[derive(Clone, Debug)]
pub struct CostModel {
    machine: MachineSpec,
    knobs: CostKnobs,
}

impl CostModel {
    /// A cost model with default knobs.
    pub fn new(machine: MachineSpec) -> CostModel {
        CostModel {
            machine,
            knobs: CostKnobs::default(),
        }
    }

    /// Overrides the tuning knobs.
    pub fn with_knobs(mut self, knobs: CostKnobs) -> CostModel {
        self.knobs = knobs;
        self
    }

    /// The machine being modeled.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    fn launch(&self) -> f64 {
        self.machine.gpu.launch_overhead
    }

    fn mem_bw(&self) -> f64 {
        self.machine.gpu.mem_bw * self.knobs.memory_efficiency
    }

    /// Time for a (possibly fused) pointwise kernel.
    pub fn kernel_time(&self, step: &KernelStep) -> f64 {
        let bytes = (step.bytes_read + step.bytes_written) as f64;
        let t_mem = bytes / self.mem_bw();
        let t_fp = step.flops as f64 / self.machine.gpu.fp32_flops;
        self.launch() + t_mem.max(t_fp)
    }

    /// Time for a GEMM, with an efficiency curve that degrades for
    /// small or skinny shapes (tile-level parallelism and short
    /// contraction dimensions underutilize tensor cores).
    pub fn matmul_time(&self, step: &MatMulStep) -> f64 {
        let flops = step.flops() as f64;
        let peak = match step.dtype {
            DType::F16 => self.machine.gpu.fp16_flops,
            DType::F32 => self.machine.gpu.fp32_flops,
        };
        // Tile parallelism: a V100 wants >= 2 waves of 128x128 tiles.
        let tiles = (step.m as f64 / 128.0).ceil() * (step.n as f64 / 128.0).ceil();
        let waves_needed = 2.0 * self.machine.gpu.sm_count as f64;
        let util_tiles = (tiles / waves_needed).min(1.0);
        // Contraction depth: short K cannot hide the MMA pipeline.
        let util_k = step.k as f64 / (step.k as f64 + 64.0);
        let eff = self.knobs.matmul_efficiency * util_tiles.max(0.05) * util_k;
        let t_compute = flops / (peak * eff);
        let t_mem = step.bytes() as f64 / self.mem_bw();
        self.launch() + t_compute.max(t_mem)
    }

    /// Ring steps a collective performs over a `k`-rank group.
    fn ring_steps(kind: CollKind, k: f64) -> f64 {
        match kind {
            CollKind::AllReduce => 2.0 * (k - 1.0),
            CollKind::ReduceScatter
            | CollKind::AllGather
            | CollKind::Broadcast
            | CollKind::Reduce => k - 1.0,
        }
    }

    /// Binomial-tree rounds of a collective over a `k`-rank group.
    /// Each round ships the whole payload over one link pair, which is
    /// what makes trees bandwidth-poor but latency-rich. Only the
    /// AllReduce has a tree form the runtime executes; every other
    /// kind resolves to the ring in [`CommConfig::executed_as`] before
    /// reaching here.
    fn tree_rounds(kind: CollKind, k: f64) -> f64 {
        match kind {
            CollKind::AllReduce => 2.0 * k.log2().ceil(),
            CollKind::ReduceScatter
            | CollKind::AllGather
            | CollKind::Broadcast
            | CollKind::Reduce => {
                unreachable!("non-AllReduce tree collectives are costed as the ring")
            }
        }
    }

    /// The encode/decode compute cost of a (resolved) wire format: two
    /// codec kernel launches (the conversions are separate kernels, not
    /// free — the term that makes dense win latency-bound small
    /// messages) plus a constant number of streaming passes over the
    /// payload at memory bandwidth. Never part of the bandwidth floor —
    /// codecs only add time above the irreducible wire transfer, which
    /// keeps the pruning bounds admissible.
    fn codec_time(&self, format: WireFormat, elems: u64, dtype: DType, group: GroupGeom) -> f64 {
        let n = elems as f64;
        let ds = dtype.size_bytes() as f64;
        match format {
            WireFormat::Dense => 0.0,
            // Already-FP16 payloads need no conversion; F32 pays an
            // encode and a decode kernel (read + write each).
            WireFormat::Fp16 => {
                if dtype == DType::F16 {
                    0.0
                } else {
                    2.0 * self.launch() + 2.0 * n * (ds + 2.0) / self.mem_bw()
                }
            }
            // A selection kernel, a densification kernel, and one
            // merge/re-sparsify kernel per exchange round (the rounds
            // cannot fuse across communication); selection and the
            // residual update stream the gradient a few times, each
            // round's merge touches two k-entry chunks.
            WireFormat::TopK { .. } => {
                let k = format.k_for(elems) as f64;
                let rounds = sparse_all_reduce_rounds(group.size as u64) as f64;
                (2.0 + rounds) * self.launch()
                    + (4.0 * n * ds + rounds * 3.0 * k * 8.0) / self.mem_bw()
            }
        }
    }

    /// The worker-side codec of the switch path: one quantize kernel
    /// (read the payload, write `i32` words) before the send and one
    /// dequantize kernel after the multicast lands. Like every codec
    /// term it lives *above* the bandwidth floor, keeping the pruning
    /// bounds admissible.
    fn switch_codec_time(&self, elems: u64, dtype: DType) -> f64 {
        let n = elems as f64;
        let ds = dtype.size_bytes() as f64;
        let w = QUANT_WORD_BYTES as f64;
        2.0 * self.launch() + 2.0 * n * (ds + w) / self.mem_bw()
    }

    /// Effective intra-node bandwidth under a configuration: NVLink at
    /// the protocol's line-rate fraction (channels split and re-merge
    /// on the same links, so they cancel intra-node).
    pub fn intra_bandwidth(&self, config: CommConfig) -> f64 {
        let proto = protocol::params(config.protocol);
        self.machine.interconnect.nvlink_bw_per_gpu * proto.bw_factor * self.knobs.fabric_efficiency
    }

    /// Effective inter-node bandwidth available to one node's sender(s)
    /// under a configuration: each channel binds to one NIC, so the
    /// leader drives `min(channels × NIC, node aggregate)`.
    pub fn inter_bandwidth(&self, config: CommConfig) -> f64 {
        let proto = protocol::params(config.protocol);
        let ic = &self.machine.interconnect;
        let ch = config.channels.max(1) as f64;
        (ch * ic.ib_bw_per_nic()).min(ic.ib_bw_per_node)
            * proto.bw_factor
            * self.knobs.fabric_efficiency
    }

    /// The per-rank wire bytes the collective at `site` moves under
    /// `config`, split by fabric segment (see [`WireBytes`]). This is
    /// the numerator of the bandwidth floor; only `config.algo` and
    /// `config.format` enter, so one walk over a plan's steps computes
    /// it for every algorithm at once, which is what lets
    /// [`lower_bound_sweep`] answer the whole `algo × protocol ×
    /// channels` slice of one format's grid from a single pass.
    ///
    /// What is priced is what [`CommConfig::executed_as`] says runs:
    /// FP16 scales every payload to two bytes per element, and an
    /// active top-k AllReduce replaces the topology's pattern entirely
    /// with the sparse exchange volume (identical for every algorithm —
    /// the `(index, value)` rounds run over whatever fabric the ring
    /// would).
    ///
    /// [`lower_bound_sweep`]: coconet_core::PlanEvaluator::lower_bound_sweep
    pub fn collective_wire(
        &self,
        site: &CollSite,
        group: GroupGeom,
        config: CommConfig,
    ) -> WireBytes {
        let run = config.executed_as(site);
        let (kind, elems) = (site.kind, site.elems);
        let k = group.size as f64;
        if group.size <= 1 {
            return WireBytes::default();
        }
        if run.is_sparse() {
            return WireBytes {
                edge: sparse_all_reduce_wire_bytes(
                    elems,
                    group.size as u64,
                    run.format.k_for(elems),
                ) as f64,
                ..WireBytes::default()
            };
        }
        let bytes = run.format.payload_bytes(elems, site.dtype) as f64;
        match run.algo {
            CollAlgo::Ring => WireBytes {
                edge: Self::ring_steps(kind, k) * bytes / k,
                ..WireBytes::default()
            },
            CollAlgo::Tree => WireBytes {
                edge: Self::tree_rounds(kind, k) * bytes,
                ..WireBytes::default()
            },
            // The switch wire is fixed-point `i32` words both ways —
            // `2·n·4` bytes per worker whatever the payload dtype or
            // wire format (the quantizer replaces the format codec),
            // and *constant in the group size*: every worker talks to
            // the switch, never to `k−1` peers.
            CollAlgo::Switch => WireBytes {
                edge: switch_all_reduce_wire_bytes(elems) as f64,
                ..WireBytes::default()
            },
            // Single-node groups resolved to Ring, so this arm always
            // has a genuine two-level split.
            CollAlgo::Hierarchical => {
                let m = group.ranks_per_node.max(1) as f64;
                let n = group.nodes_spanned as f64;
                // AllReduce runs both phases twice (reduce + gather
                // directions); ReduceScatter/AllGather once. Other
                // kinds resolved to the ring.
                let phases = match kind {
                    CollKind::AllReduce => 2.0,
                    _ => 1.0,
                };
                WireBytes {
                    edge: 0.0,
                    intra: phases * (m - 1.0) / m * bytes,
                    inter: phases * (n - 1.0) / n * bytes,
                }
            }
        }
    }

    /// The bandwidth-only transfer time of `wire` under a
    /// configuration: each fabric segment at its effective rate.
    pub fn wire_time(&self, wire: WireBytes, group: GroupGeom, config: CommConfig) -> f64 {
        let mut t = 0.0;
        if wire.edge > 0.0 {
            t += wire.edge / self.ring_bandwidth(group, config);
        }
        if wire.intra > 0.0 {
            t += wire.intra / self.intra_bandwidth(config);
        }
        if wire.inter > 0.0 {
            t += wire.inter / self.inter_bandwidth(config);
        }
        t
    }

    /// Effective aggregate ring bandwidth under a configuration: each
    /// channel gets a slice of the GPU's NVLink bandwidth; rings that
    /// span nodes are bottlenecked by their channel's NIC share.
    pub fn ring_bandwidth(&self, group: GroupGeom, config: CommConfig) -> f64 {
        let proto = protocol::params(config.protocol);
        let ch = config.channels.max(1) as f64;
        let ic = &self.machine.interconnect;
        let intra = ic.nvlink_bw_per_gpu / ch;
        let edge_bw = if group.nodes_spanned > 1 {
            let inter = ic.ib_bw_per_nic().min(ic.ib_bw_per_node / ch);
            intra.min(inter)
        } else {
            intra
        };
        ch * edge_bw * proto.bw_factor * self.knobs.fabric_efficiency
    }

    /// Time for a plain (non-fused, sum) collective over `group` under
    /// the configuration's algorithm (ring / tree / hierarchical —
    /// §5.1's logical topologies, promoted to a tuned dimension):
    /// shorthand for [`site_time`](Self::site_time) at
    /// [`GroupGeom::site`].
    pub fn collective_time(
        &self,
        kind: CollKind,
        elems: u64,
        dtype: DType,
        group: GroupGeom,
        config: CommConfig,
    ) -> f64 {
        self.site_time(
            &group.site(kind, ReduceOp::Sum, elems, dtype),
            group,
            config,
        )
    }

    /// Time for the collective at `site`, priced as what
    /// [`CommConfig::executed_as`] says runs there. The wire-transfer
    /// term alone (`wire_time` of [`collective_wire`]) is the
    /// irreducible cost a schedule transformation cannot remove — the
    /// building block of the autotuner's beam-pruning lower bound.
    ///
    /// [`collective_wire`]: CostModel::collective_wire
    pub fn site_time(&self, site: &CollSite, group: GroupGeom, config: CommConfig) -> f64 {
        let run = config.executed_as(site);
        let (kind, elems, dtype) = (site.kind, site.elems, site.dtype);
        let k = group.size as f64;
        if group.size <= 1 {
            return self.launch();
        }
        let proto = protocol::params(config.protocol);
        let t_bw = self.wire_time(self.collective_wire(site, group, config), group, config);
        // The switch path replaces the wire-format codec with its own
        // fixed-point quantize/dequantize kernels (an active sparse
        // exchange replaces the topology entirely, switch included, so
        // it keeps the top-k codec).
        let t_codec = if run.algo == CollAlgo::Switch {
            self.switch_codec_time(elems, dtype)
        } else {
            self.codec_time(run.format, elems, dtype, group)
        };

        let t_lat = if run.is_sparse() {
            // The sparse exchange's pairwise/ring rounds; later rounds
            // cross nodes on multi-node groups, like the tree's.
            let alpha = if group.nodes_spanned > 1 {
                (proto.hop_latency_intra + proto.hop_latency_inter) / 2.0
            } else {
                proto.hop_latency_intra
            };
            sparse_all_reduce_rounds(group.size as u64) as f64 * alpha
        } else {
            match run.algo {
                // Ring: per-step hop latency, averaged over the ring's
                // intra- and inter-node edges.
                CollAlgo::Ring => {
                    let inter_edges = if group.nodes_spanned > 1 {
                        group.nodes_spanned as f64
                    } else {
                        0.0
                    };
                    let alpha = (proto.hop_latency_intra * (k - inter_edges)
                        + proto.hop_latency_inter * inter_edges)
                        / k;
                    Self::ring_steps(kind, k) * alpha
                }
                // Tree: half the rounds cross nodes in the worst case.
                CollAlgo::Tree => {
                    let alpha = if group.nodes_spanned > 1 {
                        (proto.hop_latency_intra + proto.hop_latency_inter) / 2.0
                    } else {
                        proto.hop_latency_intra
                    };
                    Self::tree_rounds(kind, k) * alpha
                }
                // Switch: one hop up, one multicast hop down — the
                // latency chain is *constant in the group size* — plus
                // the dataplane's per-direction processing cost. This
                // is the term whose constancy produces the worker-count
                // crossover against the ring's 2(k−1) hops.
                CollAlgo::Switch => {
                    let alpha = if group.nodes_spanned > 1 {
                        proto.hop_latency_inter
                    } else {
                        proto.hop_latency_intra
                    };
                    2.0 * (alpha + self.knobs.switch_process)
                }
                // Hierarchical: intra-node ring hops plus the leader
                // exchange's inter-node hops, per phase (single-node
                // groups resolved to Ring).
                CollAlgo::Hierarchical => {
                    let m = group.ranks_per_node.max(1) as f64;
                    let n = group.nodes_spanned as f64;
                    let phases = match kind {
                        CollKind::AllReduce => 2.0,
                        _ => 1.0,
                    };
                    phases
                        * ((m - 1.0) * proto.hop_latency_intra
                            + (n - 1.0) * proto.hop_latency_inter)
                }
            }
        };

        let sync = self.knobs.call_sync_per_log_rank * k.log2();
        // Lane setup: each stripe beyond the first posts its own
        // descriptors. Kept out of the bandwidth floor so pruning
        // stays admissible.
        let t_channels = self.knobs.channel_setup * (config.channels.max(1) - 1) as f64;
        self.launch() + proto.base_latency + sync + t_lat + t_bw + t_codec + t_channels
    }

    /// Extra cost of walking scattered tensors through bucket tables
    /// (§5.4). Near zero relative to the collective itself (Table 2).
    pub fn scattered_overhead(&self, n_tensors: u64, n_buckets: u64) -> f64 {
        n_buckets as f64 * self.knobs.scattered_bucket_cost
            + n_tensors as f64 * self.knobs.scattered_tensor_cost
    }

    /// Time for a fused collective (§5.2): AllReduce-volume
    /// communication with computation inlined between the
    /// ReduceScatter and AllGather phases.
    ///
    /// The fused computation's state traffic runs concurrently with the
    /// wire transfer (registers carry the payload), so the data term is
    /// the max of network and memory time. Register pressure inflates
    /// the latency term — the effect that makes fusion lose at small
    /// sizes (§6.1.1).
    pub fn fused_collective_time(
        &self,
        step: &FusedCollectiveStep,
        group: GroupGeom,
        config: CommConfig,
    ) -> f64 {
        // A fused site: the kernel computes *between* the ReduceScatter
        // and AllGather phases, which the gather-based sparse exchange
        // does not have — a top-k configuration runs it on the dense
        // wire (FP16 still applies).
        let site = group
            .site(CollKind::AllReduce, ReduceOp::Sum, step.elems, step.dtype)
            .fused();
        let base = self.site_time(&site, group, config);
        let launch = self.launch();
        let comm = base - launch;
        // Register pressure caps thread-level parallelism: a fixed
        // per-fused-op latency tax, independent of message size — which
        // is what makes fusion lose at small sizes (§6.1.1) while
        // costing nothing measurable at large ones.
        let reg_penalty = launch * self.knobs.fused_reg_pressure * step.n_fused_ops as f64;

        // State traffic: per-rank bytes at memory bandwidth, overlapped
        // with the wire time.
        let slice_payload =
            2.0 * (step.elems * step.dtype.size_bytes() as u64) as f64 / group.size as f64;
        let t_mem = ((step.extra_bytes_read + step.extra_bytes_written) as f64 + slice_payload)
            / self.mem_bw();
        let t_fp = step.flops as f64 / self.machine.gpu.fp32_flops;
        let t_data = comm.max(t_mem).max(t_fp);

        // Embedded scalar reductions reuse established connections: a
        // tree-depth latency each (§5.2 "Tensor Reduction").
        let proto = protocol::params(config.protocol);
        let t_norms = step.embedded_scalar_allreduces as f64
            * (group.size as f64).log2().max(1.0)
            * proto.hop_latency_intra
            * 2.0;

        let scattered = step
            .scattered
            .map(|s| self.scattered_overhead(s.n_tensors, s.n_buckets))
            .unwrap_or(0.0);

        launch + t_data + reg_penalty + t_norms + scattered
    }

    /// Time for a P2P transfer from every rank of a group to its peer
    /// in the next group (§4). When the transfer crosses nodes, all
    /// `ranks_per_node` senders share the node's aggregate IB
    /// bandwidth — which is why Megatron-LM's replicated P2P costs
    /// `group_size ×` the sliced P2P's traffic (Figure 7).
    pub fn send_recv_time(
        &self,
        step: &SendRecvStep,
        group: GroupGeom,
        crosses_nodes: bool,
        config: CommConfig,
    ) -> f64 {
        let proto = protocol::params(config.protocol);
        let bytes = (step.elems_per_rank * step.dtype.size_bytes() as u64) as f64;
        let ic = &self.machine.interconnect;
        let t_wire = if crosses_nodes {
            let senders = group.ranks_per_node.max(1) as f64;
            let node_bw = ic.ib_bw_per_node * self.knobs.fabric_efficiency * proto.bw_factor;
            bytes * senders / node_bw + ic.ib_latency
        } else {
            let bw = ic.nvlink_bw_per_gpu * self.knobs.fabric_efficiency * proto.bw_factor;
            bytes / bw + ic.nvlink_latency
        };
        let t_mem = step.extra_bytes_read as f64 / self.mem_bw();
        let t_fp = step.flops as f64 / self.machine.gpu.fp32_flops;
        self.launch() + t_wire.max(t_mem).max(t_fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_core::Protocol;

    fn model() -> CostModel {
        CostModel::new(MachineSpec::dgx2_cluster(16))
    }

    /// Wire bytes of a plain sum collective under `algo` and `format`.
    fn wire_of(
        m: &CostModel,
        algo: CollAlgo,
        kind: CollKind,
        elems: u64,
        dtype: DType,
        g: GroupGeom,
        format: WireFormat,
    ) -> WireBytes {
        let config = CommConfig::default().with_algo(algo).with_format(format);
        m.collective_wire(&g.site(kind, ReduceOp::Sum, elems, dtype), g, config)
    }

    /// The wire-transfer term of `collective_time` alone.
    fn floor(
        m: &CostModel,
        kind: CollKind,
        elems: u64,
        dtype: DType,
        g: GroupGeom,
        config: CommConfig,
    ) -> f64 {
        let site = g.site(kind, ReduceOp::Sum, elems, dtype);
        m.wire_time(m.collective_wire(&site, g, config), g, config)
    }

    fn intra_group() -> GroupGeom {
        GroupGeom {
            size: 16,
            nodes_spanned: 1,
            ranks_per_node: 16,
        }
    }

    fn world_group() -> GroupGeom {
        GroupGeom {
            size: 256,
            nodes_spanned: 16,
            ranks_per_node: 16,
        }
    }

    fn cfg(p: Protocol, ch: usize) -> CommConfig {
        CommConfig {
            algo: CollAlgo::Ring,
            protocol: p,
            channels: ch,
            format: WireFormat::Dense,
            ..CommConfig::default()
        }
    }

    #[test]
    fn kernel_time_scales_with_bytes() {
        let m = model();
        let small = m.kernel_time(&KernelStep {
            label: "s".into(),
            bytes_read: 1024,
            bytes_written: 1024,
            flops: 256,
            n_ops: 1,
        });
        let large = m.kernel_time(&KernelStep {
            label: "l".into(),
            bytes_read: 1 << 30,
            bytes_written: 1 << 30,
            flops: 1 << 28,
            n_ops: 1,
        });
        assert!(large > small);
        // Small kernels are launch-bound.
        assert!(small < 2.0 * m.machine().gpu.launch_overhead);
        // A 2 GiB streaming kernel takes ~3 ms at 720 GB/s.
        assert!((0.002..0.006).contains(&large), "large = {large}");
    }

    #[test]
    fn matmul_efficiency_curve() {
        let m = model();
        // Large square GEMM: time should approach flops/(peak*eff).
        let big = MatMulStep {
            label: "big".into(),
            m: 8192,
            k: 8192,
            n: 8192,
            dtype: DType::F16,
        };
        let t_big = m.matmul_time(&big);
        let ideal = big.flops() as f64 / (125e12 * 0.70);
        assert!(
            t_big >= ideal && t_big < ideal * 1.4,
            "t={t_big}, ideal={ideal}"
        );
        // Skinny-K GEMM (model-parallel slice) is less efficient per flop.
        let skinny = MatMulStep {
            label: "skinny".into(),
            m: 8192,
            k: 64,
            n: 3072,
            dtype: DType::F16,
        };
        let t_skinny = m.matmul_time(&skinny);
        let flops_rate_big = big.flops() as f64 / t_big;
        let flops_rate_skinny = skinny.flops() as f64 / t_skinny;
        assert!(flops_rate_skinny < flops_rate_big);
    }

    #[test]
    fn allreduce_volume_and_protocols() {
        let m = model();
        let elems = 1u64 << 28; // 512 MB FP16
        let t_simple = m.collective_time(
            CollKind::AllReduce,
            elems,
            DType::F16,
            intra_group(),
            cfg(Protocol::Simple, 16),
        );
        // Expected: 2*(15/16)*512MB / (150e9*0.85) ~ 7.9 ms.
        assert!((0.005..0.012).contains(&t_simple), "t = {t_simple}");
        // LL halves bandwidth: roughly double at large sizes.
        let t_ll = m.collective_time(
            CollKind::AllReduce,
            elems,
            DType::F16,
            intra_group(),
            cfg(Protocol::LL, 16),
        );
        assert!(t_ll > 1.7 * t_simple);
        // At tiny sizes LL wins.
        let small = 1u64 << 10;
        let s_ll = m.collective_time(
            CollKind::AllReduce,
            small,
            DType::F16,
            intra_group(),
            cfg(Protocol::LL, 2),
        );
        let s_simple = m.collective_time(
            CollKind::AllReduce,
            small,
            DType::F16,
            intra_group(),
            cfg(Protocol::Simple, 2),
        );
        assert!(s_ll < s_simple);
    }

    #[test]
    fn rs_plus_ag_equals_ar_bandwidth() {
        let m = model();
        let elems = 1u64 << 28;
        let c = cfg(Protocol::Simple, 16);
        let ar = m.collective_time(CollKind::AllReduce, elems, DType::F16, world_group(), c);
        let rs = m.collective_time(CollKind::ReduceScatter, elems, DType::F16, world_group(), c);
        let ag = m.collective_time(CollKind::AllGather, elems, DType::F16, world_group(), c);
        // RS + AG volume equals AR volume; the split only pays an extra
        // call's fixed costs.
        assert!(rs + ag > ar);
        assert!((rs + ag - ar) / ar < 0.05);
    }

    #[test]
    fn multinode_is_nic_bound() {
        let m = model();
        let elems = 1u64 << 28;
        let c = cfg(Protocol::Simple, 8);
        let t1 = m.collective_time(CollKind::AllReduce, elems, DType::F16, intra_group(), c);
        let t16 = m.collective_time(CollKind::AllReduce, elems, DType::F16, world_group(), c);
        // Cross-node rings run at ~100 GB/s per node instead of 150.
        assert!(t16 > 1.2 * t1, "t16={t16}, t1={t1}");
    }

    #[test]
    fn fused_collective_register_pressure_hurts_small_sizes() {
        let m = model();
        let g = world_group();
        let c = cfg(Protocol::LL, 2);
        let small_fused = FusedCollectiveStep {
            label: "f".into(),
            algo: CollAlgo::Ring,
            elems: 1 << 12,
            dtype: DType::F16,
            extra_bytes_read: 1 << 12,
            extra_bytes_written: 1 << 12,
            flops: 1 << 12,
            embedded_scalar_allreduces: 0,
            n_fused_ops: 10,
            scattered: None,
        };
        let t_fused = m.fused_collective_time(&small_fused, g, c);
        let t_ar = m.collective_time(CollKind::AllReduce, 1 << 12, DType::F16, g, c);
        // At tiny sizes the fused kernel is slower than AR + a cheap
        // separate kernel (the §6.1.1 observation).
        let t_separate = t_ar
            + m.kernel_time(&KernelStep {
                label: "opt".into(),
                bytes_read: 1 << 12,
                bytes_written: 1 << 12,
                flops: 1 << 12,
                n_ops: 10,
            });
        assert!(t_fused > t_separate);
    }

    #[test]
    fn fused_collective_wins_at_large_sizes() {
        let m = model();
        let g = world_group();
        let c = cfg(Protocol::Simple, 16);
        let elems = 1u64 << 30;
        let slice = elems / 256;
        // Adam-like state traffic: ~28 bytes per slice element.
        let fused = FusedCollectiveStep {
            label: "f".into(),
            algo: CollAlgo::Ring,
            elems,
            dtype: DType::F16,
            extra_bytes_read: slice * 14,
            extra_bytes_written: slice * 14,
            flops: slice * 8,
            embedded_scalar_allreduces: 0,
            n_fused_ops: 10,
            scattered: None,
        };
        let t_fused = m.fused_collective_time(&fused, g, c);
        let t_ar = m.collective_time(CollKind::AllReduce, elems, DType::F16, g, c);
        // Baseline: AR + full replicated optimizer kernel over all elems.
        let t_baseline = t_ar
            + m.kernel_time(&KernelStep {
                label: "opt".into(),
                bytes_read: elems * 14,
                bytes_written: elems * 14,
                flops: elems * 8,
                n_ops: 10,
            });
        // Fused is close to the AR-only upper bound, far below baseline.
        assert!(t_fused < 1.1 * t_ar, "fused={t_fused}, ar={t_ar}");
        assert!(t_baseline > 1.5 * t_fused);
    }

    #[test]
    fn replicated_p2p_costs_group_size_times_more() {
        let m = model();
        let g = intra_group();
        let c = cfg(Protocol::Simple, 8);
        let elems = 8 * 2048 * 12288u64; // GPT-3-sized activation
        let replicated = SendRecvStep {
            label: "p2p".into(),
            elems_per_rank: elems,
            dtype: DType::F16,
            extra_bytes_read: 0,
            flops: 0,
            n_fused_ops: 0,
        };
        let sliced = SendRecvStep {
            elems_per_rank: elems / 16,
            ..replicated.clone()
        };
        let t_repl = m.send_recv_time(&replicated, g, true, c);
        let t_sliced = m.send_recv_time(&sliced, g, true, c);
        assert!(t_repl > 10.0 * t_sliced, "repl={t_repl}, sliced={t_sliced}");
    }

    #[test]
    fn scattered_overhead_is_small() {
        let m = model();
        // BERT-340M: 360 tensors, ~334M elements -> ~326k buckets.
        let overhead = m.scattered_overhead(360, 334_000_000 / 1024);
        assert!(overhead < 1e-3, "overhead = {overhead}");
        assert!(overhead > 0.0);
    }

    fn algo_cfg(algo: CollAlgo) -> CommConfig {
        CommConfig {
            algo,
            protocol: Protocol::Simple,
            channels: 16,
            format: WireFormat::Dense,
            ..CommConfig::default()
        }
    }

    #[test]
    fn algorithm_size_crossover() {
        // Tree wins latency-bound small messages; ring wins
        // bandwidth-bound large ones; hierarchical sits between on a
        // multi-node group (§5.1's logical-topology tradeoff).
        let m = model();
        let g = world_group();
        let time = |algo, elems| {
            m.collective_time(CollKind::AllReduce, elems, DType::F16, g, algo_cfg(algo))
        };
        let small = 1u64 << 10;
        let t_ring = time(CollAlgo::Ring, small);
        let t_tree = time(CollAlgo::Tree, small);
        let t_hier = time(CollAlgo::Hierarchical, small);
        assert!(t_tree < t_hier, "small: tree {t_tree} !< hier {t_hier}");
        assert!(t_hier < t_ring, "small: hier {t_hier} !< ring {t_ring}");

        let large = 1u64 << 28;
        let t_ring = time(CollAlgo::Ring, large);
        let t_tree = time(CollAlgo::Tree, large);
        let t_hier = time(CollAlgo::Hierarchical, large);
        assert!(t_ring < t_hier, "large: ring {t_ring} !< hier {t_hier}");
        assert!(t_hier < t_tree, "large: hier {t_hier} !< tree {t_tree}");
    }

    #[test]
    fn hierarchical_degenerates_to_ring_on_one_node() {
        let m = model();
        let g = intra_group();
        for elems in [1u64 << 10, 1 << 20, 1 << 28] {
            for kind in [
                CollKind::AllReduce,
                CollKind::ReduceScatter,
                CollKind::AllGather,
            ] {
                let ring = m.collective_time(kind, elems, DType::F16, g, algo_cfg(CollAlgo::Ring));
                let hier =
                    m.collective_time(kind, elems, DType::F16, g, algo_cfg(CollAlgo::Hierarchical));
                assert_eq!(ring, hier, "kind {kind}, elems {elems}");
            }
        }
    }

    #[test]
    fn bandwidth_floor_never_exceeds_the_time_per_algo() {
        // The floor is the wire bytes at the effective rates, and the
        // full time only adds to it — the invariant the autotuner's
        // pruning admissibility rests on.
        let m = model();
        let g = world_group();
        for algo in CollAlgo::ALL {
            for ch in [2usize, 16, 64] {
                let config = CommConfig {
                    algo,
                    protocol: Protocol::LL128,
                    channels: ch,
                    format: WireFormat::Dense,
                    ..CommConfig::default()
                };
                let elems = 1u64 << 22;
                let floor = floor(&m, CollKind::AllReduce, elems, DType::F16, g, config);
                let t = m.collective_time(CollKind::AllReduce, elems, DType::F16, g, config);
                assert!(
                    0.0 < floor && floor <= t,
                    "{algo}: floor {floor} !<= time {t}"
                );
            }
        }
    }

    #[test]
    fn unimplemented_algorithm_kinds_cost_as_ring() {
        // The cost model only prices algorithms the runtime executes:
        // there is no tree ReduceScatter/AllGather, and Broadcast/
        // Reduce have one root-based implementation regardless of the
        // configured algorithm — all of those must cost exactly as the
        // ring, or the tuner would price schedules on an algorithm
        // that never runs.
        let m = model();
        for g in [intra_group(), world_group()] {
            for elems in [1u64 << 10, 1 << 24] {
                let ring_time =
                    |kind| m.collective_time(kind, elems, DType::F16, g, algo_cfg(CollAlgo::Ring));
                for algo in [CollAlgo::Tree, CollAlgo::Hierarchical, CollAlgo::Switch] {
                    for kind in [CollKind::Broadcast, CollKind::Reduce] {
                        let t = m.collective_time(kind, elems, DType::F16, g, algo_cfg(algo));
                        assert_eq!(ring_time(kind), t, "{algo} {kind}, elems {elems}");
                    }
                }
                // No tree or switch ReduceScatter/AllGather exists:
                // both run — and cost — as the ring.
                for kind in [CollKind::ReduceScatter, CollKind::AllGather] {
                    for algo in [CollAlgo::Tree, CollAlgo::Switch] {
                        let t = m.collective_time(kind, elems, DType::F16, g, algo_cfg(algo));
                        assert_eq!(ring_time(kind), t, "{algo} {kind}, elems {elems}");
                        assert_eq!(
                            wire_of(
                                &m,
                                CollAlgo::Ring,
                                kind,
                                elems,
                                DType::F16,
                                g,
                                WireFormat::Dense
                            ),
                            wire_of(&m, algo, kind, elems, DType::F16, g, WireFormat::Dense),
                        );
                    }
                }
                // AllReduce does have tree and hierarchical forms, and
                // they differ (on multi-node groups for hierarchical).
                let ar = |algo| {
                    m.collective_time(CollKind::AllReduce, elems, DType::F16, g, algo_cfg(algo))
                };
                assert_ne!(ar(CollAlgo::Ring), ar(CollAlgo::Tree));
                if g.nodes_spanned > 1 {
                    assert_ne!(ar(CollAlgo::Ring), ar(CollAlgo::Hierarchical));
                }
            }
        }
    }

    #[test]
    fn fp16_wire_halves_f32_payloads_everywhere() {
        // The FP16 format halves the wire bytes of every algorithm and
        // kind on F32 payloads, and is byte-identical to dense on
        // payloads that are already FP16. The switch is the exception:
        // its wire is fixed-point i32 words whatever the format, so it
        // is checked separately (switch_wire_is_format_invariant).
        let m = model();
        let g = world_group();
        let elems = 1u64 << 22;
        for algo in [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::Hierarchical] {
            for kind in [
                CollKind::AllReduce,
                CollKind::ReduceScatter,
                CollKind::AllGather,
            ] {
                let dense = wire_of(&m, algo, kind, elems, DType::F32, g, WireFormat::Dense);
                let fp16 = wire_of(&m, algo, kind, elems, DType::F32, g, WireFormat::Fp16);
                assert_eq!(fp16.edge * 2.0, dense.edge, "{algo} {kind}");
                assert_eq!(fp16.intra * 2.0, dense.intra, "{algo} {kind}");
                assert_eq!(fp16.inter * 2.0, dense.inter, "{algo} {kind}");
                let dense_h = wire_of(&m, algo, kind, elems, DType::F16, g, WireFormat::Dense);
                let fp16_h = wire_of(&m, algo, kind, elems, DType::F16, g, WireFormat::Fp16);
                assert_eq!(dense_h, fp16_h, "{algo} {kind}: FP16-on-FP16 is dense");
            }
        }
    }

    #[test]
    fn switch_wire_is_format_invariant_and_constant_in_group_size() {
        // The switch AllReduce wire is 2·n·4 bytes per worker — the
        // same under Dense and FP16 (the quantizer replaces the format
        // codec) and at every group size (SwitchML's headline
        // property). Only an *active* top-k exchange replaces it.
        let m = model();
        let elems = 1u64 << 22;
        let expected = coconet_compress::switch_all_reduce_wire_bytes(elems) as f64;
        for (size, nodes) in [(2usize, 2usize), (8, 8), (32, 32), (256, 16)] {
            let g = GroupGeom {
                size,
                nodes_spanned: nodes,
                ranks_per_node: size / nodes,
            };
            for (format, dtype) in [
                (WireFormat::Dense, DType::F32),
                (WireFormat::Dense, DType::F16),
                (WireFormat::Fp16, DType::F32),
            ] {
                let wire = wire_of(
                    &m,
                    CollAlgo::Switch,
                    CollKind::AllReduce,
                    elems,
                    dtype,
                    g,
                    format,
                );
                assert_eq!(wire.edge, expected, "{size} ranks, {format}, {dtype:?}");
                assert_eq!((wire.intra, wire.inter), (0.0, 0.0));
            }
            // Active top-k replaces the topology, switch included.
            let topk = WireFormat::TopK { k_permille: 10 };
            let wire = wire_of(
                &m,
                CollAlgo::Switch,
                CollKind::AllReduce,
                elems,
                DType::F32,
                g,
                topk,
            );
            assert_eq!(
                wire.edge,
                coconet_compress::sparse_all_reduce_wire_bytes(
                    elems,
                    size as u64,
                    topk.k_for(elems)
                ) as f64
            );
        }
    }

    #[test]
    fn switch_crossover_in_worker_count() {
        // At a mid-size F32 payload with one worker per node, the ring
        // wins tiny groups (the switch pays its fixed processing and
        // quantization costs) but loses big ones (its 2(k−1) hop chain
        // and (k−1)/k volume grow while the switch stays at two hops
        // and 2·n words) — the crossover the ablation_switch_workers
        // trajectory row witnesses end to end.
        let m = model();
        let elems = 1u64 << 18;
        let best = |algo, workers: usize| {
            let g = GroupGeom {
                size: workers,
                nodes_spanned: workers,
                ranks_per_node: 1,
            };
            let mut best = f64::INFINITY;
            for protocol in Protocol::ALL {
                for ch in [2usize, 4, 8, 16, 32, 64] {
                    let config = CommConfig {
                        algo,
                        protocol,
                        channels: ch,
                        format: WireFormat::Dense,
                        ..CommConfig::default()
                    };
                    best = best.min(m.collective_time(
                        CollKind::AllReduce,
                        elems,
                        DType::F32,
                        g,
                        config,
                    ));
                }
            }
            best
        };
        assert!(
            best(CollAlgo::Ring, 2) < best(CollAlgo::Switch, 2),
            "ring wins 2 workers"
        );
        for rival in [CollAlgo::Ring, CollAlgo::Tree, CollAlgo::Hierarchical] {
            assert!(
                best(CollAlgo::Switch, 32) < best(rival, 32),
                "switch beats {rival} at 32 workers"
            );
        }
        // And the switch's own time is flat-ish: growing the group 16×
        // must not double it (the rivals' grow much faster).
        assert!(best(CollAlgo::Switch, 32) < 2.0 * best(CollAlgo::Switch, 2));
    }

    #[test]
    fn topk_allreduce_prices_the_sparse_exchange() {
        let m = model();
        let g = world_group();
        let elems = 1u64 << 24;
        let topk = WireFormat::TopK { k_permille: 10 };
        let k = topk.k_for(elems);
        // Every algorithm prices the same sparse exchange — the sparse
        // wire replaces the logical topology.
        for algo in CollAlgo::ALL {
            let wire = wire_of(&m, algo, CollKind::AllReduce, elems, DType::F32, g, topk);
            assert_eq!(
                wire.edge,
                coconet_compress::sparse_all_reduce_wire_bytes(elems, g.size as u64, k) as f64,
                "{algo}"
            );
            assert_eq!((wire.intra, wire.inter), (0.0, 0.0), "{algo}");
            // And it undercuts the dense wire at 10 ‰ (the < 5 %
            // acceptance ratio is an 8-rank number; at 256 ranks the
            // log2(p) rounds still win by an order of magnitude less).
            let dense = wire_of(
                &m,
                algo,
                CollKind::AllReduce,
                elems,
                DType::F32,
                g,
                WireFormat::Dense,
            );
            assert!(wire.edge < 0.1 * (dense.edge + dense.intra + dense.inter));
        }
        // Non-AllReduce kinds fall back to the dense wire under top-k.
        for kind in [CollKind::ReduceScatter, CollKind::AllGather] {
            assert_eq!(
                wire_of(&m, CollAlgo::Ring, kind, elems, DType::F32, g, topk),
                wire_of(
                    &m,
                    CollAlgo::Ring,
                    kind,
                    elems,
                    DType::F32,
                    g,
                    WireFormat::Dense
                ),
                "{kind}"
            );
        }
        // The dense switchover: at 200 ‰ on FP16 payloads the sparse
        // form is larger, so the collective prices (and runs) dense.
        let heavy = WireFormat::TopK { k_permille: 200 };
        assert_eq!(
            wire_of(
                &m,
                CollAlgo::Ring,
                CollKind::AllReduce,
                elems,
                DType::F16,
                g,
                heavy
            ),
            wire_of(
                &m,
                CollAlgo::Ring,
                CollKind::AllReduce,
                elems,
                DType::F16,
                g,
                WireFormat::Dense
            ),
        );
    }

    #[test]
    fn compressed_floors_stay_admissible() {
        // floor <= collective_time for every format × algorithm ×
        // protocol — the invariant the enlarged grid's pruning rests
        // on (codec time lives above the floor, never inside it).
        let m = model();
        for g in [intra_group(), world_group()] {
            for format in WireFormat::SWEEP {
                for algo in CollAlgo::ALL {
                    for protocol in Protocol::ALL {
                        let config = CommConfig {
                            algo,
                            protocol,
                            channels: 16,
                            format,
                            ..CommConfig::default()
                        };
                        for elems in [1u64 << 10, 1 << 24] {
                            let floor =
                                floor(&m, CollKind::AllReduce, elems, DType::F32, g, config);
                            let t = m.collective_time(
                                CollKind::AllReduce,
                                elems,
                                DType::F32,
                                g,
                                config,
                            );
                            assert!(
                                floor <= t,
                                "{format} {algo} {protocol} {elems}: {floor} > {t}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_collectives_never_ride_the_sparse_wire() {
        // Top-k resolves to dense for fused collectives (no RS/AG
        // phase to compute between); FP16 passes through.
        let m = model();
        let g = world_group();
        let fused = FusedCollectiveStep {
            label: "f".into(),
            algo: CollAlgo::Ring,
            elems: 1 << 26,
            dtype: DType::F32,
            extra_bytes_read: 1 << 20,
            extra_bytes_written: 1 << 20,
            flops: 1 << 20,
            embedded_scalar_allreduces: 0,
            n_fused_ops: 8,
            scattered: None,
        };
        let at = |format| {
            m.fused_collective_time(
                &fused,
                g,
                CommConfig {
                    algo: CollAlgo::Ring,
                    protocol: Protocol::Simple,
                    channels: 16,
                    format,
                    ..CommConfig::default()
                },
            )
        };
        assert_eq!(
            at(WireFormat::TopK { k_permille: 10 }),
            at(WireFormat::Dense)
        );
        assert!(at(WireFormat::Fp16) < at(WireFormat::Dense));
    }

    #[test]
    fn format_crossover_small_vs_large() {
        // Small messages: the codec/launch terms dominate, dense wins.
        // Large F32 messages: FP16 halves the wall, top-k at 10 ‰ wins
        // outright — the crossover the compression_ablation rows track.
        let m = model();
        let g = world_group();
        // Each format runs at its best algorithm/protocol — the
        // comparison the ablation rows and the autotuner make.
        let time = |format, elems: u64| {
            let mut best = f64::INFINITY;
            for algo in CollAlgo::ALL {
                for protocol in Protocol::ALL {
                    let config = CommConfig {
                        algo,
                        protocol,
                        channels: 16,
                        format,
                        ..CommConfig::default()
                    };
                    best = best.min(m.collective_time(
                        CollKind::AllReduce,
                        elems,
                        DType::F32,
                        g,
                        config,
                    ));
                }
            }
            best
        };
        let small = 1u64 << 10;
        assert!(time(WireFormat::Dense, small) <= time(WireFormat::Fp16, small));
        assert!(time(WireFormat::Dense, small) <= time(WireFormat::TopK { k_permille: 10 }, small));
        let large = 1u64 << 28;
        let t_dense = time(WireFormat::Dense, large);
        let t_fp16 = time(WireFormat::Fp16, large);
        let t_topk = time(WireFormat::TopK { k_permille: 10 }, large);
        assert!(t_fp16 < t_dense, "fp16 {t_fp16} !< dense {t_dense}");
        assert!(t_topk < t_fp16, "topk {t_topk} !< fp16 {t_fp16}");
    }

    #[test]
    fn inter_bandwidth_scales_with_channels_up_to_node_aggregate() {
        let m = model();
        let c2 = m.inter_bandwidth(cfg(Protocol::Simple, 2));
        let c8 = m.inter_bandwidth(cfg(Protocol::Simple, 8));
        let c64 = m.inter_bandwidth(cfg(Protocol::Simple, 64));
        assert!(c2 < c8, "2 NICs < 8 NICs");
        assert_eq!(c8, c64, "aggregate caps at the node's 8 NICs");
        // Intra-node NVLink is channel-independent and faster.
        assert!(m.intra_bandwidth(cfg(Protocol::Simple, 2)) > c64);
    }
}
