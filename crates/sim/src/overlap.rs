//! Chunk-level simulation of overlapped pipelines (§5.3, Figures 7/9).
//!
//! An overlapped step launches every stage's kernel once; buffer tiles
//! stream through the stages, synchronized by spin-locks. The MatMul is
//! scheduled to produce chunks in ring order, so the collective starts
//! as soon as the first tile is ready; intra-node collectives, P2P over
//! InfiniBand, and the destination group's AllGather occupy *different
//! fabrics* and therefore genuinely run concurrently (Figure 7b).

use coconet_core::{CollKind, CommConfig, OverlapStage, OverlappedStep};

use crate::{CostModel, GroupGeom};

/// Number of buffer tiles an overlapped pipeline streams.
///
/// NCCL's buffer is ~16 MB per channel aggregate; the paper's Figure 9
/// uses 16 MB tiles. We clamp to keep at least 2 tiles (no overlap is
/// possible with 1) and at most 64 (spin-lock overhead dominates past
/// that).
pub fn tile_count(payload_bytes: u64) -> usize {
    const TILE_BYTES: u64 = 16 * 1024 * 1024;
    ((payload_bytes / TILE_BYTES).max(2) as usize).min(64)
}

/// Per-tile spin-lock wake/wait cost (§5.3's "efficient fine-grained
/// spin-lock on a memory buffer").
const SPINLOCK_COST: f64 = 1.0e-6;

/// Fabric-class attribution of one pipeline stage — the simulator-side
/// counterpart of the trace profiler's per-kind accounting, used by the
/// overlap report to split busy time into compute vs. communication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageClass {
    /// A compute (MatMul) stage.
    Compute,
    /// An intra-node collective, tagged with its kind.
    Collective(CollKind),
    /// P2P traffic over the inter-node fabric.
    InterNode,
}

/// The outcome of simulating an overlapped pipeline.
#[derive(Clone, Debug)]
pub struct OverlapSim {
    /// Pipeline makespan in seconds (including stage launches).
    pub total: f64,
    /// Per-stage busy time, `(label, seconds)`.
    pub stage_busy: Vec<(String, f64)>,
    /// Per-stage fabric class, aligned with
    /// [`stage_busy`](OverlapSim::stage_busy).
    pub stage_classes: Vec<StageClass>,
    /// The total time the same stages would take executed back-to-back
    /// (the unoverlapped sequential cost).
    pub sequential: f64,
}

impl OverlapSim {
    /// Busy seconds summed over the communication stages (collectives
    /// and inter-node P2P).
    #[must_use]
    pub fn comm_busy(&self) -> f64 {
        self.class_busy(|c| *c != StageClass::Compute)
    }

    /// Busy seconds summed over the compute stages.
    #[must_use]
    pub fn compute_busy(&self) -> f64 {
        self.class_busy(|c| *c == StageClass::Compute)
    }

    /// Busy seconds summed over stages whose class satisfies `pred`.
    fn class_busy(&self, pred: impl Fn(&StageClass) -> bool) -> f64 {
        self.stage_busy
            .iter()
            .zip(&self.stage_classes)
            .filter(|(_, c)| pred(c))
            .map(|((_, t), _)| *t)
            .sum()
    }
}

/// Simulates an [`OverlappedStep`] on the machine: schedules its
/// stages' buffer tiles (see [`simulate_overlap_with_tiles`]).
///
/// `geom`/`crosses_nodes` give the group geometry and whether P2P
/// stages cross node boundaries.
pub fn simulate_overlap(
    cost: &CostModel,
    step: &OverlappedStep,
    geom: GroupGeom,
    crosses_nodes: bool,
    config: CommConfig,
) -> OverlapSim {
    simulate_overlap_with_tiles(cost, step, geom, crosses_nodes, config, None)
}

/// [`simulate_overlap`] with an explicit tile count (the §5.3 buffer
/// tile size is a tunable; this is the chunk-granularity ablation's
/// entry point).
pub fn simulate_overlap_with_tiles(
    cost: &CostModel,
    step: &OverlappedStep,
    geom: GroupGeom,
    crosses_nodes: bool,
    config: CommConfig,
    tiles_override: Option<usize>,
) -> OverlapSim {
    let launch = cost.machine().gpu.launch_overhead;
    let stage_times: Vec<f64> = step
        .stages
        .iter()
        .map(|s| stage_time(cost, s, geom, crosses_nodes, config))
        .collect();
    let tiles = tiles_override.unwrap_or_else(|| tile_count(payload_bytes(step)));
    let mut busy = Vec::with_capacity(stage_times.len());
    let total = tile_pipeline(stage_times.iter().copied(), tiles.max(1), launch, |b| {
        busy.push(b)
    });
    OverlapSim {
        total,
        stage_busy: step
            .stages
            .iter()
            .map(|s| s.label().to_string())
            .zip(busy)
            .collect(),
        stage_classes: step.stages.iter().map(classify).collect(),
        sequential: stage_times.iter().map(|t| t + launch).sum(),
    }
}

/// The makespan of an overlapped step at its default tile count —
/// [`simulate_overlap`]'s `total` without the per-stage report.
pub(crate) fn overlap_total(
    cost: &CostModel,
    step: &OverlappedStep,
    geom: GroupGeom,
    crosses_nodes: bool,
    config: CommConfig,
) -> f64 {
    let stage_times = step
        .stages
        .iter()
        .map(|s| stage_time(cost, s, geom, crosses_nodes, config));
    let launch = cost.machine().gpu.launch_overhead;
    tile_pipeline(stage_times, tile_count(payload_bytes(step)), launch, |_| {})
}

/// A stage's total duration, excluding its single launch.
fn stage_time(
    cost: &CostModel,
    stage: &OverlapStage,
    geom: GroupGeom,
    crosses_nodes: bool,
    config: CommConfig,
) -> f64 {
    let t = match stage {
        OverlapStage::MatMul(mm) => cost.matmul_time(mm),
        OverlapStage::Collective(c) => cost.site_time(
            &geom.site(c.kind, c.op, c.elems, c.dtype),
            geom,
            config.with_algo(c.algo),
        ),
        OverlapStage::FusedCollective(f) => {
            cost.fused_collective_time(f, geom, config.with_algo(f.algo))
        }
        OverlapStage::SendRecv(sr) => cost.send_recv_time(sr, geom, crosses_nodes, config),
    };
    (t - cost.machine().gpu.launch_overhead).max(0.0)
}

/// The first stage's payload, which sizes the tiles.
fn payload_bytes(step: &OverlappedStep) -> u64 {
    match &step.stages[0] {
        OverlapStage::MatMul(mm) => mm.m * mm.n * mm.dtype.size_bytes() as u64,
        OverlapStage::Collective(c) => c.elems * c.dtype.size_bytes() as u64,
        OverlapStage::FusedCollective(f) => f.elems * f.dtype.size_bytes() as u64,
        OverlapStage::SendRecv(sr) => sr.elems_per_rank * sr.dtype.size_bytes() as u64,
    }
}

/// Schedules `tiles` buffer tiles through stages of the given
/// durations and returns the makespan, passing each stage's busy time
/// (Σ finish − start, in tile order) to `on_stage`.
///
/// Each stage owns its fabric and its kernel processes tiles in order,
/// and tile `t` of stage `s` consumes tile `t` of stage `s − 1`. No
/// two tiles ever compete for a fabric, so the earliest-start list
/// schedule reduces to the recurrence
/// `F[s][t] = max(F[s][t−1], F[s−1][t]) + d[s][t]`, evaluated one row
/// of finish times per stage. Finish times grow along both axes, so
/// the last tile of the last stage ends the pipeline.
fn tile_pipeline(
    stage_times: impl IntoIterator<Item = f64>,
    tiles: usize,
    launch: f64,
    mut on_stage: impl FnMut(f64),
) -> f64 {
    let mut finish = vec![0.0f64; tiles];
    for total in stage_times {
        let per_tile = total / tiles as f64 + SPINLOCK_COST;
        let mut busy = 0.0;
        let mut prev = 0.0f64;
        for (t, f) in finish.iter_mut().enumerate() {
            let start = prev.max(*f);
            // The stage's launch is charged to its first tile.
            let d = if t == 0 { per_tile + launch } else { per_tile };
            prev = start + d;
            busy += prev - start;
            *f = prev;
        }
        on_stage(busy);
    }
    finish.last().copied().unwrap_or(0.0)
}

/// The fabric class of a stage, via the three stage predicates below.
fn classify(stage: &OverlapStage) -> StageClass {
    if is_inter_node(stage) {
        StageClass::InterNode
    } else if is_collective(stage) {
        StageClass::Collective(stage_kind(stage).expect("collective stages carry a kind"))
    } else {
        StageClass::Compute
    }
}

/// Convenience: is this stage communication over the inter-node fabric?
pub(crate) fn is_inter_node(stage: &OverlapStage) -> bool {
    matches!(stage, OverlapStage::SendRecv(_))
}

/// Is this a collective stage (for breakdown reporting)?
pub(crate) fn is_collective(stage: &OverlapStage) -> bool {
    matches!(
        stage,
        OverlapStage::Collective(_) | OverlapStage::FusedCollective(_)
    )
}

/// Categorize a collective stage kind for reporting.
pub(crate) fn stage_kind(stage: &OverlapStage) -> Option<CollKind> {
    match stage {
        OverlapStage::Collective(c) => Some(c.kind),
        OverlapStage::FusedCollective(_) => Some(CollKind::AllReduce),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_core::ReduceOp;
    use coconet_core::{
        CollAlgo, CollectiveStep, CommConfig, DType, FusedCollectiveStep, MatMulStep, Protocol,
        SendRecvStep,
    };
    use coconet_topology::MachineSpec;
    use proptest::prelude::*;

    fn cost() -> CostModel {
        CostModel::new(MachineSpec::dgx2_cluster(16))
    }

    fn geom() -> GroupGeom {
        GroupGeom {
            size: 16,
            nodes_spanned: 1,
            ranks_per_node: 16,
        }
    }

    fn cfg() -> CommConfig {
        CommConfig {
            format: coconet_core::WireFormat::Dense,
            algo: CollAlgo::Ring,
            protocol: Protocol::Simple,
            channels: 16,
            ..CommConfig::default()
        }
    }

    /// The Figure 1 scenario: MatMul overlapped with AllReduce.
    fn matmul_ar_step(b: u64) -> OverlappedStep {
        OverlappedStep {
            label: "ol(MM,AR)".into(),
            stages: vec![
                OverlapStage::MatMul(MatMulStep {
                    label: "mm".into(),
                    m: b * 1024,
                    k: 768,
                    n: 3072,
                    dtype: DType::F16,
                }),
                OverlapStage::FusedCollective(FusedCollectiveStep {
                    label: "fusedAR".into(),
                    algo: CollAlgo::Ring,
                    elems: b * 1024 * 3072,
                    dtype: DType::F16,
                    extra_bytes_read: 0,
                    extra_bytes_written: 0,
                    flops: 0,
                    embedded_scalar_allreduces: 0,
                    n_fused_ops: 3,
                }),
            ],
        }
    }

    #[test]
    fn overlap_beats_sequential() {
        let c = cost();
        let sim = simulate_overlap(&c, &matmul_ar_step(64), geom(), false, cfg());
        assert!(
            sim.total < sim.sequential,
            "overlap {} !< sequential {}",
            sim.total,
            sim.sequential
        );
        // Overlap cannot beat the slower stage alone.
        let slowest = sim
            .stage_busy
            .iter()
            .map(|(_, t)| *t)
            .fold(0.0f64, f64::max);
        assert!(sim.total >= slowest);
        // Figure 1's claim: most of the MatMul hides under the AllReduce;
        // the pipeline is within ~35 % of the slower stage.
        assert!(
            sim.total < 1.35 * slowest,
            "total={}, slowest={slowest}",
            sim.total
        );
    }

    #[test]
    fn three_stage_pipeline_uses_disjoint_fabrics() {
        // Figure 7b: RS -> sliced P2P -> AG across fabrics.
        let c = cost();
        let elems = 8u64 * 2048 * 12288;
        let step = OverlappedStep {
            label: "ol(RS,P2P,AG)".into(),
            stages: vec![
                OverlapStage::Collective(CollectiveStep {
                    label: "rs".into(),
                    kind: CollKind::ReduceScatter,
                    op: ReduceOp::Sum,
                    algo: CollAlgo::Ring,
                    elems,
                    dtype: DType::F16,
                }),
                OverlapStage::SendRecv(SendRecvStep {
                    label: "p2p".into(),
                    elems_per_rank: elems / 16,
                    dtype: DType::F16,
                    extra_bytes_read: 0,
                    flops: 0,
                    n_fused_ops: 2,
                }),
                OverlapStage::Collective(CollectiveStep {
                    label: "ag".into(),
                    kind: CollKind::AllGather,
                    op: ReduceOp::Sum,
                    algo: CollAlgo::Ring,
                    elems,
                    dtype: DType::F16,
                }),
            ],
        };
        let sim = simulate_overlap(&c, &step, geom(), true, cfg());
        assert!(sim.total < sim.sequential);
        // With three fabrics, the pipeline approaches the slowest stage.
        let slowest = sim
            .stage_busy
            .iter()
            .map(|(_, t)| *t)
            .fold(0.0f64, f64::max);
        assert!(sim.total < 1.5 * slowest);
    }

    /// The class breakdown attributes each stage to its fabric: the
    /// Figure 7b pipeline is one ReduceScatter, one inter-node P2P leg,
    /// and one AllGather — all communication, no compute — while the
    /// Figure 1 step splits into one compute and one collective stage.
    #[test]
    fn stage_classes_split_compute_from_communication() {
        let c = cost();
        let mm_ar = simulate_overlap(&c, &matmul_ar_step(64), geom(), false, cfg());
        assert_eq!(
            mm_ar.stage_classes,
            vec![
                StageClass::Compute,
                StageClass::Collective(CollKind::AllReduce)
            ]
        );
        assert!(mm_ar.compute_busy() > 0.0);
        assert!(mm_ar.comm_busy() > 0.0);
        let total: f64 = mm_ar.stage_busy.iter().map(|(_, t)| t).sum();
        assert!((mm_ar.compute_busy() + mm_ar.comm_busy() - total).abs() < 1e-12);

        let p2p = OverlappedStep {
            label: "ol(RS,P2P,AG)".into(),
            stages: vec![
                OverlapStage::Collective(CollectiveStep {
                    label: "rs".into(),
                    kind: CollKind::ReduceScatter,
                    op: ReduceOp::Sum,
                    algo: CollAlgo::Ring,
                    elems: 1 << 24,
                    dtype: DType::F16,
                }),
                OverlapStage::SendRecv(SendRecvStep {
                    label: "p2p".into(),
                    elems_per_rank: 1 << 20,
                    dtype: DType::F16,
                    extra_bytes_read: 0,
                    flops: 0,
                    n_fused_ops: 2,
                }),
            ],
        };
        let sim = simulate_overlap(&c, &p2p, geom(), true, cfg());
        assert_eq!(
            sim.stage_classes,
            vec![
                StageClass::Collective(CollKind::ReduceScatter),
                StageClass::InterNode
            ]
        );
        assert!((sim.compute_busy()).abs() < 1e-12);
    }

    #[test]
    fn tile_count_clamped() {
        assert_eq!(tile_count(1024), 2);
        assert_eq!(tile_count(64 * 1024 * 1024), 4);
        assert_eq!(tile_count(u64::MAX / 2), 64);
    }

    #[test]
    fn small_payloads_overlap_less() {
        let c = cost();
        let small = simulate_overlap(&c, &matmul_ar_step(1), geom(), false, cfg());
        let large = simulate_overlap(&c, &matmul_ar_step(64), geom(), false, cfg());
        let saving_small = small.sequential / small.total;
        let saving_large = large.sequential / large.total;
        assert!(saving_large > saving_small);
    }

    /// The tile pipeline as an explicit graph for the oracle scheduler:
    /// stage `s` is resource `s`, tile `t` depends on the stage's tile
    /// `t − 1` and on tile `t` of stage `s − 1`.
    fn oracle_pipeline(stage_times: &[f64], tiles: usize, launch: f64) -> (f64, Vec<f64>) {
        let mut g = crate::oracle::TaskGraph::default();
        let mut prev_stage: Vec<usize> = Vec::new();
        for (s, &total) in stage_times.iter().enumerate() {
            let per_tile = total / tiles as f64 + SPINLOCK_COST;
            let mut tasks: Vec<usize> = Vec::with_capacity(tiles);
            for t in 0..tiles {
                let mut deps: Vec<usize> = tasks.last().copied().into_iter().collect();
                deps.extend(prev_stage.get(t));
                let dur = if t == 0 { per_tile + launch } else { per_tile };
                tasks.push(g.add_task(s, dur, &deps));
            }
            prev_stage = tasks;
        }
        let timeline = g.schedule();
        let busy = (0..stage_times.len())
            .map(|s| timeline.busy_time(s))
            .collect();
        (timeline.makespan(), busy)
    }

    fn arb_stage() -> impl Strategy<Value = OverlapStage> {
        let kinds = [
            CollKind::AllReduce,
            CollKind::ReduceScatter,
            CollKind::AllGather,
            CollKind::Broadcast,
            CollKind::Reduce,
        ];
        (0usize..4, 0usize..5, 1u64..1 << 16, 1u64..1 << 12).prop_map(move |(which, kind, a, b)| {
            let elems = a * b;
            match which {
                0 => OverlapStage::MatMul(MatMulStep {
                    label: "mm".into(),
                    m: a,
                    k: 768,
                    n: b,
                    dtype: DType::F16,
                }),
                1 => OverlapStage::Collective(CollectiveStep {
                    label: "coll".into(),
                    kind: kinds[kind],
                    op: ReduceOp::Sum,
                    algo: CollAlgo::ALL[kind % CollAlgo::ALL.len()],
                    elems,
                    dtype: DType::F16,
                }),
                2 => OverlapStage::FusedCollective(FusedCollectiveStep {
                    label: "fused".into(),
                    algo: CollAlgo::ALL[kind % CollAlgo::ALL.len()],
                    elems,
                    dtype: DType::F32,
                    extra_bytes_read: elems,
                    extra_bytes_written: 0,
                    flops: elems,
                    embedded_scalar_allreduces: kind % 2,
                    n_fused_ops: 3,
                }),
                _ => OverlapStage::SendRecv(SendRecvStep {
                    label: "p2p".into(),
                    elems_per_rank: elems,
                    dtype: DType::F16,
                    extra_bytes_read: 0,
                    flops: 0,
                    n_fused_ops: 2,
                }),
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tile recurrence is the list schedule, bit for bit: the
        /// makespan and every stage's busy time, at the default tile
        /// count and at every override the chunk ablation can ask for.
        #[test]
        fn tile_recurrence_matches_the_list_schedule(
            stages in prop::collection::vec(arb_stage(), 1..5),
            tiles in 0usize..258,
            crosses in any::<bool>(),
        ) {
            let c = cost();
            let step = OverlappedStep { label: "ol".into(), stages };
            let tiles_override = (tiles > 0).then_some(tiles);
            let sim = simulate_overlap_with_tiles(&c, &step, geom(), crosses, cfg(), tiles_override);
            let stage_times: Vec<f64> = step
                .stages
                .iter()
                .map(|s| stage_time(&c, s, geom(), crosses, cfg()))
                .collect();
            let launch = c.machine().gpu.launch_overhead;
            let n_tiles = tiles_override.unwrap_or_else(|| tile_count(payload_bytes(&step)));
            let (total, busy) = oracle_pipeline(&stage_times, n_tiles, launch);
            prop_assert_eq!(sim.total.to_bits(), total.to_bits());
            for ((_, got), want) in sim.stage_busy.iter().zip(&busy) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            if tiles_override.is_none() {
                let t = overlap_total(&c, &step, geom(), crosses, cfg());
                prop_assert_eq!(t.to_bits(), total.to_bits());
            }
        }
    }
}
