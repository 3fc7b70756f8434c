//! End-to-end plan timing: the machine-level evaluator the autotuner
//! and benchmarks use.

use coconet_core::{
    CollAlgo, CollKind, CollSite, CommConfig, CommSched, ExecPlan, FusedCollectiveStep,
    OverlapStage, PlanEvaluator, ReduceOp, Step, WireFormat,
};
use coconet_topology::{Cluster, MachineSpec};

use crate::cost::WireBytes;
use crate::overlap::overlap_total;
use crate::{CostModel, GroupGeom};

/// Number of collective algorithms ([`CollAlgo::ALL`]).
const N_ALGOS: usize = CollAlgo::ALL.len();

/// Category of a timed step, for the stacked-bar breakdowns of
/// Figures 11 and 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepCategory {
    /// Local computation (kernels, GEMMs).
    Compute,
    /// Cross-rank communication.
    Communication,
    /// Fused communication + computation.
    FusedCommunication,
    /// An overlapped pipeline.
    Overlapped,
    /// Fixed documented cost.
    Fixed,
}

/// Timing of one plan step.
#[derive(Clone, Debug)]
pub struct StepTime {
    /// The step label.
    pub label: String,
    /// Seconds.
    pub seconds: f64,
    /// Category for breakdown reporting.
    pub category: StepCategory,
}

/// Timing of a whole plan.
#[derive(Clone, Debug)]
pub struct PlanTime {
    /// Total time in seconds (steps run back-to-back; overlap happens
    /// *inside* `Overlapped` steps, which is the paper's model — one
    /// kernel launch per stage, §5.3).
    pub total: f64,
    /// Per-step timings.
    pub steps: Vec<StepTime>,
}

impl PlanTime {
    /// Sum of the steps in a category.
    pub fn category_total(&self, category: StepCategory) -> f64 {
        self.steps
            .iter()
            .filter(|s| s.category == category)
            .map(|s| s.seconds)
            .sum()
    }
}

/// A machine simulator bound to an execution geometry: programs run
/// SPMD over `num_groups` groups of `group_size` ranks each.
#[derive(Clone, Debug)]
pub struct Simulator {
    cost: CostModel,
    cluster: Cluster,
    group_size: usize,
    num_groups: usize,
    /// [`PlanEvaluator::fingerprint`], computed once per cost model.
    fingerprint: u64,
}

impl Simulator {
    /// Creates a simulator for `num_groups` groups of `group_size`
    /// consecutive ranks on `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the machine has fewer GPUs than `group_size *
    /// num_groups`.
    pub fn new(machine: MachineSpec, group_size: usize, num_groups: usize) -> Simulator {
        assert!(
            machine.world_size() >= group_size * num_groups,
            "machine has {} GPUs but the program needs {}",
            machine.world_size(),
            group_size * num_groups
        );
        let cluster = Cluster::new(machine.clone());
        let cost = CostModel::new(machine);
        Simulator {
            fingerprint: fingerprint(&cost, group_size, num_groups),
            cost,
            cluster,
            group_size,
            num_groups,
        }
    }

    /// The underlying cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Replaces the cost model (for knob overrides).
    pub fn with_cost_model(mut self, cost: CostModel) -> Simulator {
        self.fingerprint = fingerprint(&cost, self.group_size, self.num_groups);
        self.cost = cost;
        self
    }

    /// Geometry of one process group.
    pub fn group_geom(&self) -> GroupGeom {
        let gpn = self.cluster.spec().gpus_per_node;
        let nodes_spanned = self.group_size.div_ceil(gpn);
        GroupGeom {
            size: self.group_size,
            nodes_spanned,
            ranks_per_node: self.group_size.min(gpn),
        }
    }

    /// Whether the P2P from group `g` to `g+1` crosses node boundaries.
    pub fn p2p_crosses_nodes(&self) -> bool {
        if self.num_groups < 2 {
            return false;
        }
        // Rank 0 of group 0 vs rank 0 of group 1.
        let peer = self.group_size;
        !self
            .cluster
            .same_node(0, peer.min(self.cluster.world_size() - 1))
    }

    /// Times a single step.
    pub fn time_step(&self, step: &Step, config: CommConfig) -> StepTime {
        let (seconds, category) = self.step_cost(step, config);
        StepTime {
            label: step.label().to_string(),
            seconds,
            category,
        }
    }

    /// A step's seconds and category: [`time_step`](Self::time_step)
    /// without the label, so pricing a plan allocates no string.
    fn step_cost(&self, step: &Step, config: CommConfig) -> (f64, StepCategory) {
        let geom = self.group_geom();
        match step {
            Step::Kernel(k) => (self.cost.kernel_time(k), StepCategory::Compute),
            Step::MatMul(mm) => (self.cost.matmul_time(mm), StepCategory::Compute),
            Step::Collective(c) => {
                // The step's stamped algorithm wins over the plan-level
                // configuration (lowering keeps them consistent; the
                // stamp is authoritative for hand-built plans); the
                // site carries the operator, so a non-sum reduction is
                // priced on the dense wire the runtime runs it on.
                let t = self.cost.site_time(
                    &geom.site(c.kind, c.op, c.elems, c.dtype),
                    geom,
                    config.with_algo(c.algo),
                );
                (t, StepCategory::Communication)
            }
            Step::FusedCollective(f) => (
                self.cost
                    .fused_collective_time(f, geom, config.with_algo(f.algo)),
                StepCategory::FusedCommunication,
            ),
            Step::SendRecv(sr) => (
                self.cost
                    .send_recv_time(sr, geom, self.p2p_crosses_nodes(), config),
                StepCategory::Communication,
            ),
            Step::Overlapped(ol) => (
                overlap_total(&self.cost, ol, geom, self.p2p_crosses_nodes(), config),
                StepCategory::Overlapped,
            ),
            Step::Fixed(f) => (f.seconds, StepCategory::Fixed),
        }
    }

    /// Every step's `(seconds, category)`, in plan order.
    fn step_costs(&self, plan: &ExecPlan) -> Vec<(f64, StepCategory)> {
        plan.steps
            .iter()
            .map(|s| self.step_cost(s, plan.config))
            .collect()
    }

    /// Times a whole plan.
    ///
    /// Under the default barriered discipline the total is the serial
    /// sum of the steps (overlap happens only *inside* `Overlapped`
    /// steps). Under [`CommSched::Priority`] the total is the
    /// *steady-state per-iteration time* of running the plan as a
    /// stream of iterations without a global barrier: iteration *i*'s
    /// communication drains on the fabric while iteration *i+1*'s
    /// computation proceeds, blocked only on the specific tensors it
    /// consumes (`steady_state_total`, the compute/comm pipeline
    /// makespan).
    pub fn time_plan(&self, plan: &ExecPlan) -> PlanTime {
        let costs = self.step_costs(plan);
        PlanTime {
            total: plan_total(&costs, plan.config.sched),
            steps: plan
                .steps
                .iter()
                .zip(costs)
                .map(|(step, (seconds, category))| StepTime {
                    label: step.label().to_string(),
                    seconds,
                    category,
                })
                .collect(),
        }
    }

    /// The configuration-independent coefficients of both autotuner
    /// lower bounds for *all three collective algorithms* under one
    /// wire format, from one pass over the plan's steps. Under a
    /// configuration `c` with `c.format == format`:
    ///
    /// - tight per-plan floor = `fixed_s + wire_time(wire[c.algo], c)`
    ///   plus each overlapped step's largest-stage floor
    /// - descendant floor = the largest per-step irreducible transfer
    ///   of `durable` at `c`'s effective rates
    ///
    /// The format is a profile-level coefficient (compressed payloads
    /// change every step's bytes), so the sweep computes one profile
    /// per distinct format in its configuration list.
    pub fn floor_profile(&self, plan: &ExecPlan, format: WireFormat) -> FloorProfile {
        let geom = self.group_geom();
        let launch = self.cost_model().machine().gpu.launch_overhead;
        let wire = |algo: CollAlgo, site: &CollSite| {
            let config = CommConfig::default().with_algo(algo).with_format(format);
            self.cost.collective_wire(site, geom, config)
        };
        // Indexed by `CollAlgo::index`, the position in `CollAlgo::ALL`.
        let per_algo = |site: &CollSite| CollAlgo::ALL.map(|algo| wire(algo, site));
        // What of a step's volume survives every further
        // transformation: an AllReduce may split (and an overlapped
        // pipeline is bounded only by its largest stage), so it keeps
        // only its ReduceScatter half — which `executed_as` puts on
        // the dense wire under a top-k configuration (there is no
        // sparse ReduceScatter) — or, staying a plain AllReduce, the
        // sparse exchange volume when that is what runs; an AllGather
        // can be eliminated entirely (`asSlice` + `dead`) and a send
        // can shrink by the group size once slicing applies, so both
        // keep nothing.
        let durable_entry = |site: &CollSite| -> Option<DurableFloor> {
            match site.kind {
                CollKind::AllGather => None,
                CollKind::AllReduce => {
                    let rs_half = CollSite {
                        kind: CollKind::ReduceScatter,
                        ..*site
                    };
                    let run = CommConfig::default().with_format(format).executed_as(site);
                    Some(DurableFloor {
                        dense: per_algo(&rs_half),
                        sparse_bytes: run.is_sparse().then(|| wire(CollAlgo::Ring, site).edge),
                    })
                }
                _ => Some(DurableFloor {
                    dense: per_algo(site),
                    sparse_bytes: None,
                }),
            }
        };
        let fused_site = |f: &FusedCollectiveStep| {
            geom.site(CollKind::AllReduce, ReduceOp::Sum, f.elems, f.dtype)
                .fused()
        };
        let add_plain = |profile: &mut FloorProfile, site: CollSite| {
            profile.fixed_s += launch;
            for (acc, w) in profile.wire.iter_mut().zip(per_algo(&site)) {
                acc.accumulate(w);
            }
            profile.durable.extend(durable_entry(&site));
        };
        let mut profile = FloorProfile {
            format,
            fixed_s: 0.0,
            wire: [WireBytes::default(); N_ALGOS],
            overlap_wire: Vec::new(),
            durable: Vec::new(),
        };
        for step in &plan.steps {
            match step {
                Step::Collective(c) => {
                    add_plain(&mut profile, geom.site(c.kind, c.op, c.elems, c.dtype));
                }
                Step::FusedCollective(f) => add_plain(&mut profile, fused_site(f)),
                // The pipeline can hide everything but its largest
                // communication stage (launch amortization inside the
                // pipeline is the overlap engine's business, so no
                // launch term here). Stage maxima are kept field-wise
                // per algorithm; the per-config bound takes the largest
                // single segment, which under-approximates the true
                // largest stage and stays admissible.
                Step::Overlapped(ol) => {
                    let mut stage_max = [WireBytes::default(); N_ALGOS];
                    for st in &ol.stages {
                        let site = match st {
                            OverlapStage::Collective(c) => {
                                geom.site(c.kind, c.op, c.elems, c.dtype)
                            }
                            OverlapStage::FusedCollective(f) => fused_site(f),
                            OverlapStage::MatMul(_) | OverlapStage::SendRecv(_) => continue,
                        };
                        for (acc, w) in stage_max.iter_mut().zip(per_algo(&site)) {
                            *acc = acc.max(w);
                        }
                        profile.durable.extend(durable_entry(&site));
                    }
                    profile.overlap_wire.push(stage_max);
                }
                // Every kernel/GEMM/P2P cost path starts at the launch
                // overhead; fixed steps cost exactly what they say.
                Step::Kernel(_) | Step::MatMul(_) | Step::SendRecv(_) => profile.fixed_s += launch,
                Step::Fixed(f) => profile.fixed_s += f.seconds,
            }
        }
        profile
    }

    /// Both bounds of one profile under one configuration — the single
    /// code path behind [`plan_time_floor`], [`plan_lower_bound`], and
    /// the sweep, so they agree bit-for-bit (the contract
    /// [`PlanEvaluator::lower_bound_sweep`] requires).
    ///
    /// [`plan_time_floor`]: Simulator::plan_time_floor
    /// [`plan_lower_bound`]: Simulator::plan_lower_bound
    fn bounds_for_config(&self, profile: &FloorProfile, config: CommConfig) -> (f64, f64) {
        debug_assert_eq!(
            profile.format, config.format,
            "a floor profile answers only its own wire format"
        );
        let geom = self.group_geom();
        let i = config.algo.index();
        // Largest single-segment floor of a field-wise maximum: each
        // term is one real stage's partial wire time, so the max never
        // exceeds the true slowest stage (admissible).
        let largest_segment = |w: WireBytes| {
            let e = if w.edge > 0.0 {
                w.edge / self.cost.ring_bandwidth(geom, config)
            } else {
                0.0
            };
            let intra = if w.intra > 0.0 {
                w.intra / self.cost.intra_bandwidth(config)
            } else {
                0.0
            };
            let inter = if w.inter > 0.0 {
                w.inter / self.cost.inter_bandwidth(config)
            } else {
                0.0
            };
            e.max(intra).max(inter)
        };
        // Under the barriered discipline every configuration pays the
        // launch/fixed seconds serially. The priority stream hides
        // compute (and launches) under in-flight communication, so its
        // floor keeps only the communication terms — which never
        // exceed the fabric busy time that clamps `steady_state_total`
        // from below, keeping the bound admissible.
        let mut tight = match config.sched {
            CommSched::Barriered => profile.fixed_s,
            CommSched::Priority => 0.0,
        } + self.cost.wire_time(profile.wire[i], geom, config);
        for stage_max in &profile.overlap_wire {
            tight += largest_segment(stage_max[i]);
        }
        // Per step, the cheaper of its two irreducible futures (dense
        // ReduceScatter half vs staying a sparse AllReduce) under this
        // configuration's rates; the plan keeps at least its most
        // expensive step's floor.
        let descendant = profile
            .durable
            .iter()
            .map(|d| {
                let dense = largest_segment(d.dense[i]);
                match d.sparse_bytes {
                    Some(bytes) => dense.min(bytes / self.cost.ring_bandwidth(geom, config)),
                    None => dense,
                }
            })
            .fold(0.0f64, f64::max);
        (tight, descendant)
    }

    /// A tight optimistic lower bound on
    /// [`time_plan`](Simulator::time_plan) for *this* plan under its
    /// configuration (including its collective algorithm): per step,
    /// the launch overhead plus the step's own bandwidth-only wire
    /// time, summed — every term [`time_plan`](Simulator::time_plan)
    /// also pays, with all
    /// latency, sync, efficiency-curve, and register-pressure terms
    /// dropped. The autotuner uses it to skip configurations (e.g. the
    /// LL protocol on a bandwidth-bound AllReduce, or the tree
    /// algorithm on a large payload) that provably cannot beat the
    /// incumbent.
    pub fn plan_time_floor(&self, plan: &ExecPlan) -> f64 {
        debug_assert!(
            plan.algo_stamps_consistent(),
            "bounds assume the steps carry the plan config's algorithm; \
             use ExecPlan::set_config to retag"
        );
        self.bounds_for_config(&self.floor_profile(plan, plan.config.format), plan.config)
            .0
    }

    /// An optimistic lower bound on [`time_plan`](Simulator::time_plan)
    /// that also under-estimates every schedule derivable from the
    /// plan's program by further transformations under the same
    /// configuration — the admissibility the autotuner's branch
    /// pruning relies on. Like
    /// [`plan_time_floor`](Simulator::plan_time_floor), the bound is
    /// taken under `plan.config.algo` and assumes the steps are
    /// stamped consistently (guaranteed by [`ExecPlan::set_config`]). The bound is the largest irreducible wire
    /// transfer in the plan under the configuration's algorithm (see
    /// [`floor_profile`](Simulator::floor_profile) for what counts as
    /// irreducible).
    pub fn plan_lower_bound(&self, plan: &ExecPlan) -> f64 {
        debug_assert!(
            plan.algo_stamps_consistent(),
            "bounds assume the steps carry the plan config's algorithm; \
             use ExecPlan::set_config to retag"
        );
        self.bounds_for_config(&self.floor_profile(plan, plan.config.format), plan.config)
            .1
    }
}

/// The cluster-shape fingerprint of a simulator: the whole cost model
/// (machine specification and every cost knob — all the floats that can
/// move a plan's estimated time) plus the execution geometry. The spec
/// holds `f64` bandwidths and latencies, so the stable `Debug`
/// rendering is hashed rather than the (un-`Hash`able) fields directly.
fn fingerprint(cost: &CostModel, group_size: usize, num_groups: usize) -> u64 {
    use std::collections::hash_map::DefaultHasher;
    use std::fmt::Write as _;
    use std::hash::{Hash, Hasher};
    let mut debug = String::new();
    write!(debug, "{cost:?}").expect("writing to a String cannot fail");
    let mut h = DefaultHasher::new();
    debug.hash(&mut h);
    group_size.hash(&mut h);
    num_groups.hash(&mut h);
    h.finish()
}

/// A plan's total from its steps' `(seconds, category)` — the one body
/// behind [`Simulator::time_plan`] and [`PlanEvaluator::evaluate`].
fn plan_total(costs: &[(f64, StepCategory)], sched: CommSched) -> f64 {
    match sched {
        CommSched::Barriered => costs.iter().map(|&(s, _)| s).sum(),
        CommSched::Priority => steady_state_total(costs),
    }
}

/// Whether a step runs on the comm fabric rather than the compute pipe.
fn on_fabric(category: StepCategory) -> bool {
    matches!(
        category,
        StepCategory::Communication | StepCategory::FusedCommunication | StepCategory::Overlapped
    )
}

/// Steady-state per-iteration time of the priority-streamed
/// discipline: the marginal cost of one more iteration in an infinite
/// pipeline where the compute pipe and the comm fabric are distinct
/// resources, iteration *i+1*'s *j*-th compute step blocks only on
/// iteration *i*'s *j*-th communication step (the per-tensor readiness
/// model: first-consumed tensors are synchronized first), and each
/// communication step waits for the compute step that produced its
/// payload.
///
/// The marginal cost is measured as `makespan(3 iterations) −
/// makespan(2 iterations)` of that pipeline, then clamped from below by
/// both resources' per-iteration busy times — the fabric still moves
/// every byte and the compute pipe still runs every kernel, which is
/// exactly what keeps the pruning bounds admissible on the enlarged
/// grid (a wire-only floor never exceeds the fabric busy time).
fn steady_state_total(costs: &[(f64, StepCategory)]) -> f64 {
    let busy = |fabric: bool| -> f64 {
        costs
            .iter()
            .filter(|&&(_, c)| on_fabric(c) == fabric)
            .map(|&(s, _)| s)
            .sum()
    };
    let (compute, comm) = (busy(false), busy(true));
    // With one resource idle there is nothing to overlap: the stream
    // degenerates to the barriered loop.
    if compute == 0.0 || comm == 0.0 {
        return compute + comm;
    }
    let marginal = pipeline_makespan(costs, 3) - pipeline_makespan(costs, 2);
    marginal.max(compute).max(comm)
}

/// One step of one iteration in [`pipeline_makespan`]'s schedule.
struct Task {
    fabric: bool,
    seconds: f64,
    deps: [Option<usize>; 3],
}

/// Makespan of `iters` back-to-back plan iterations under the
/// barrier-free dependency structure (see [`steady_state_total`]),
/// list-scheduled on the compute pipe and the comm fabric: repeatedly
/// start the ready task that can start earliest, ties to the lowest
/// index (program order, which is the priority order).
fn pipeline_makespan(costs: &[(f64, StepCategory)], iters: usize) -> f64 {
    let n = costs.len();
    // Only the *trailing* communication block — collectives no compute
    // step follows in program order — has its consumers in the next
    // iteration (the gradient-sync pattern the readiness model
    // relaxes). A collective a later compute step consumes stays on the
    // iteration's serial data-dependence chain, so e.g. a split
    // RS→opt→AG epilogue cannot pretend its AllGather overlaps the very
    // MatMul that reads its output.
    let last_compute = costs
        .iter()
        .rposition(|&(_, c)| !on_fabric(c))
        .expect("caller guarantees a compute step");
    let trailing = n - 1 - last_compute;
    let mut tasks: Vec<Task> = Vec::with_capacity(iters * n);
    for i in 0..iters {
        // Task `first + j` is step `j` of this iteration, task
        // `prev + j` step `j` of the previous one.
        let first = i * n;
        let prev = i.checked_sub(1).map(|p| p * n);
        let mut compute: Option<usize> = None;
        let mut comm: Option<usize> = None;
        let mut compute_idx = 0usize;
        for (j, &(seconds, category)) in costs.iter().enumerate() {
            let fabric = on_fabric(category);
            let deps = if fabric {
                // Communication launches as soon as its producer
                // finishes: the preceding compute step of its own
                // iteration, or — for a plan that *starts* with a
                // collective — the previous iteration's final compute
                // step (the payload a leading gradient exchange ships
                // was produced by the last iteration; the stream may not
                // leapfrog it). The fabric serializes it against other
                // in-flight collectives in priority order (program
                // order = consumption order).
                [compute.or(prev.map(|p| p + last_compute)), None, None]
            } else {
                // Compute blocks on (i) the previous compute step of its
                // own iteration, (ii) any collective that precedes it
                // *in the same iteration's program order* (it consumes
                // that collective's output — the stream never reorders a
                // data dependence), and (iii) the matching tensor of the
                // *previous* iteration's trailing block being
                // synchronized (clamped: trailing compute waits on the
                // last collective) — never on a global barrier. A plan
                // with no trailing collectives has nothing to stream
                // past: its next iteration starts after the previous one
                // ends.
                let carried = prev.and_then(|p| {
                    if trailing > 0 {
                        Some(p + last_compute + 1 + compute_idx.min(trailing - 1))
                    } else {
                        (j == 0).then_some(p + n - 1)
                    }
                });
                compute_idx += 1;
                [compute, comm, carried]
            };
            if fabric {
                comm = Some(first + j);
            } else {
                compute = Some(first + j);
            }
            tasks.push(Task {
                fabric,
                seconds,
                deps,
            });
        }
    }
    let mut finish: Vec<Option<f64>> = vec![None; tasks.len()];
    let mut free = [0.0f64; 2];
    // Every task below `lo` is scheduled.
    let mut lo = 0;
    while lo < tasks.len() {
        let mut best: Option<(f64, usize)> = None;
        for (i, t) in tasks.iter().enumerate().skip(lo) {
            if finish[i].is_some() {
                continue;
            }
            let ready = t
                .deps
                .iter()
                .flatten()
                .try_fold(0.0f64, |r, &d| finish[d].map(|f| r.max(f)));
            if let Some(ready) = ready {
                let start = ready.max(free[usize::from(t.fabric)]);
                if best.is_none_or(|(b, _)| start < b) {
                    best = Some((start, i));
                }
            }
        }
        let (start, i) = best.expect("every dependency points to an earlier task");
        let end = start + tasks[i].seconds;
        finish[i] = Some(end);
        free[usize::from(tasks[i].fabric)] = end;
        while finish.get(lo).is_some_and(Option::is_some) {
            lo += 1;
        }
    }
    finish.into_iter().flatten().fold(0.0f64, f64::max)
}

/// Configuration-independent lower-bound coefficients of one plan
/// under one wire format, per collective algorithm — see
/// [`Simulator::floor_profile`].
#[derive(Clone, Debug, PartialEq)]
pub struct FloorProfile {
    /// The wire format the coefficients were computed under.
    pub format: WireFormat,
    /// Launch/fixed seconds every configuration pays.
    pub fixed_s: f64,
    /// Summed wire bytes of the plan's non-overlapped communication,
    /// indexed by [`CollAlgo::index`].
    pub wire: [WireBytes; N_ALGOS],
    /// Field-wise stage maxima of each overlapped step's communication,
    /// indexed by [`CollAlgo::index`].
    pub overlap_wire: Vec<[WireBytes; N_ALGOS]>,
    /// One irreducible transfer per communication step — the wire bytes
    /// that survive every further transformation.
    pub durable: Vec<DurableFloor>,
}

/// The irreducible remainder of one communication step under every
/// descendant schedule: the dense wire its ReduceScatter half keeps
/// (indexed by [`CollAlgo::index`]), and — for a top-k AllReduce that
/// stays sparse — the sparse exchange's byte alternative, whichever is
/// cheaper under the configuration being bounded.
#[derive(Clone, Debug, PartialEq)]
pub struct DurableFloor {
    /// Dense-wire remainders per algorithm.
    pub dense: [WireBytes; N_ALGOS],
    /// Sparse-exchange alternative (bytes over the ring fabric), when
    /// the step may stay a sparse AllReduce.
    pub sparse_bytes: Option<f64>,
}

/// The machine simulator *is* the autotuner's evaluator: estimated
/// plan time as the cost, the per-plan time floor for configuration
/// pruning, and the irreducible-communication floor for branch
/// pruning.
impl PlanEvaluator for Simulator {
    fn evaluate(&self, plan: &ExecPlan) -> f64 {
        plan_total(&self.step_costs(plan), plan.config.sched)
    }

    fn lower_bound(&self, plan: &ExecPlan) -> f64 {
        self.plan_time_floor(plan)
    }

    fn descendant_lower_bound(&self, plan: &ExecPlan) -> f64 {
        self.plan_lower_bound(plan)
    }

    fn lower_bound_sweep(&self, plan: &ExecPlan, configs: &[CommConfig]) -> (Vec<f64>, Vec<f64>) {
        // One pass over the steps per *distinct wire format* in the
        // sweep (each pass covers all three algorithms), then a few
        // divisions per configuration — this is what keeps pruning
        // cheaper than the evaluations it saves across the enlarged
        // `algo × protocol × channels × format` grid.
        let mut profiles: Vec<FloorProfile> = Vec::new();
        let mut tights = Vec::with_capacity(configs.len());
        let mut descendants = Vec::with_capacity(configs.len());
        for &config in configs {
            if !profiles.iter().any(|p| p.format == config.format) {
                profiles.push(self.floor_profile(plan, config.format));
            }
            let profile = profiles
                .iter()
                .find(|p| p.format == config.format)
                .expect("pushed above");
            let (tight, descendant) = self.bounds_for_config(profile, config);
            tights.push(tight);
            descendants.push(descendant);
        }
        (tights, descendants)
    }

    /// The cluster-shape fingerprint for plan-cache keying: a hash of
    /// the whole cost model's `Debug` rendering and the execution
    /// geometry, computed when the cost model is set.
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coconet_core::ReduceOp;
    use coconet_core::{CollectiveStep, DType, FixedStep, KernelStep, Protocol};
    use proptest::prelude::*;

    fn simulator() -> Simulator {
        Simulator::new(MachineSpec::dgx2_cluster(16), 256, 1)
    }

    #[test]
    fn geometry() {
        let s = simulator();
        let g = s.group_geom();
        assert_eq!(g.size, 256);
        assert_eq!(g.nodes_spanned, 16);
        assert_eq!(g.ranks_per_node, 16);
        assert!(!s.p2p_crosses_nodes(), "single group has no P2P");

        let pipe = Simulator::new(MachineSpec::dgx2_cluster(16), 16, 16);
        assert_eq!(pipe.group_geom().nodes_spanned, 1);
        assert!(pipe.p2p_crosses_nodes());

        let half = Simulator::new(MachineSpec::dgx2_cluster(1), 8, 2);
        assert!(!half.p2p_crosses_nodes(), "both groups on one node");
    }

    #[test]
    #[should_panic(expected = "GPUs")]
    fn oversubscription_panics() {
        Simulator::new(MachineSpec::dgx2_cluster(1), 16, 2);
    }

    #[test]
    fn plan_time_sums_steps() {
        let s = simulator();
        let plan = ExecPlan {
            name: "t".into(),
            steps: vec![
                Step::Kernel(KernelStep {
                    label: "k".into(),
                    bytes_read: 1 << 20,
                    bytes_written: 1 << 20,
                    flops: 1 << 18,
                    n_ops: 2,
                }),
                Step::Collective(CollectiveStep {
                    label: "ar".into(),
                    kind: CollKind::AllReduce,
                    op: ReduceOp::Sum,
                    algo: CollAlgo::Ring,
                    elems: 1 << 20,
                    dtype: DType::F16,
                }),
                Step::Fixed(FixedStep {
                    label: "preproc".into(),
                    seconds: 25e-6,
                }),
            ],
            config: CommConfig {
                algo: CollAlgo::Ring,
                protocol: Protocol::Simple,
                channels: 16,
                format: WireFormat::Dense,
                ..CommConfig::default()
            },
        };
        let t = s.time_plan(&plan);
        assert_eq!(t.steps.len(), 3);
        let sum: f64 = t.steps.iter().map(|x| x.seconds).sum();
        assert!((t.total - sum).abs() < 1e-12);
        assert_eq!(t.category_total(StepCategory::Fixed), 25e-6);
        assert!(t.category_total(StepCategory::Compute) > 0.0);
        assert!(t.category_total(StepCategory::Communication) > 0.0);
    }

    #[test]
    fn lower_bound_is_admissible_and_positive_for_comm() {
        let s = simulator();
        for algo in CollAlgo::ALL {
            for protocol in coconet_core::Protocol::ALL {
                for (channels, sched) in [
                    (2usize, CommSched::Barriered),
                    (2, CommSched::Priority),
                    (16, CommSched::Barriered),
                    (16, CommSched::Priority),
                    (64, CommSched::Barriered),
                    (64, CommSched::Priority),
                ] {
                    let config = CommConfig {
                        algo,
                        protocol,
                        channels,
                        format: WireFormat::Dense,
                        sched,
                    };
                    let mut plan = ExecPlan {
                        name: "lb".into(),
                        steps: vec![
                            Step::MatMul(coconet_core::MatMulStep {
                                label: "mm".into(),
                                m: 4096,
                                k: 1024,
                                n: 4096,
                                dtype: DType::F16,
                            }),
                            Step::Collective(CollectiveStep {
                                label: "ar".into(),
                                kind: CollKind::AllReduce,
                                op: ReduceOp::Sum,
                                algo: CollAlgo::Ring,
                                elems: 1 << 26,
                                dtype: DType::F16,
                            }),
                        ],
                        config,
                    };
                    plan.set_config(config);
                    let descendant = s.plan_lower_bound(&plan);
                    let tight = s.plan_time_floor(&plan);
                    let t = s.time_plan(&plan).total;
                    assert!(descendant > 0.0, "comm plans have a positive floor");
                    assert!(
                        descendant <= tight,
                        "descendant bound {descendant} must be looser than {tight}"
                    );
                    assert!(tight <= t, "floor {tight} must not exceed actual {t}");
                    // And the evaluator trait agrees with the inherent
                    // API, including the one-pass sweep.
                    use coconet_core::PlanEvaluator as _;
                    assert_eq!(s.evaluate(&plan), t);
                    assert_eq!(s.lower_bound(&plan), tight);
                    assert_eq!(s.descendant_lower_bound(&plan), descendant);
                    let (tights, descendants) = s.lower_bound_sweep(&plan, &[config]);
                    assert_eq!(tights[0], tight);
                    assert_eq!(descendants[0], descendant);
                }
            }
        }
    }

    /// The tuner prices what runs: a Min/Max AllReduce has no sparse
    /// form (the runtime dispatch requires a sum), so under a top-k
    /// configuration it must cost exactly as the dense wire — both in
    /// the step time and in the pruning floors.
    #[test]
    fn non_sum_allreduce_never_priced_sparse() {
        let s = simulator();
        let step = |op| {
            Step::Collective(CollectiveStep {
                label: "maxreduce".into(),
                kind: CollKind::AllReduce,
                op,
                algo: CollAlgo::Ring,
                elems: 1 << 24,
                dtype: DType::F32,
            })
        };
        let topk =
            CommConfig::default().with_format(coconet_core::WireFormat::TopK { k_permille: 10 });
        let dense = CommConfig::default();
        for op in [coconet_core::ReduceOp::Max, coconet_core::ReduceOp::Min] {
            assert_eq!(
                s.time_step(&step(op), topk).seconds,
                s.time_step(&step(op), dense).seconds,
                "{op:?} must run (and be priced) dense"
            );
            let plan = |config| ExecPlan {
                name: "t".into(),
                steps: vec![step(op)],
                config,
            };
            assert_eq!(
                s.plan_time_floor(&plan(topk)),
                s.plan_time_floor(&plan(dense)),
            );
            assert_eq!(
                s.plan_lower_bound(&plan(topk)),
                s.plan_lower_bound(&plan(dense)),
            );
        }
        // A sum AllReduce under the same configuration IS sparse.
        let sum = step(coconet_core::ReduceOp::Sum);
        assert!(s.time_step(&sum, topk).seconds < s.time_step(&sum, dense).seconds);
    }

    /// The steady-state (priority-streamed) discipline: a plan with
    /// both compute and communication pipelines them across iteration
    /// boundaries, so its per-iteration time drops below the barriered
    /// serial sum but never below either resource's busy time. Plans
    /// with only one kind of work gain nothing.
    #[test]
    fn priority_stream_overlaps_iterations() {
        let s = simulator();
        let kernel = Step::Kernel(KernelStep {
            label: "k".into(),
            bytes_read: 1 << 28,
            bytes_written: 1 << 28,
            flops: 1 << 24,
            n_ops: 2,
        });
        let ar = Step::Collective(CollectiveStep {
            label: "ar".into(),
            kind: CollKind::AllReduce,
            op: ReduceOp::Sum,
            algo: CollAlgo::Ring,
            elems: 1 << 26,
            dtype: DType::F16,
        });
        let plan = |steps: Vec<Step>, sched| ExecPlan {
            name: "ss".into(),
            steps,
            config: CommConfig::default().with_sched(sched),
        };
        // Two layers in the training shape — the backward computes,
        // then the trailing gradient syncs: layer 1's sync drains on
        // the fabric while the next iteration's compute (blocked only
        // on layer 0's earlier sync) proceeds. A single layer has
        // nothing to overlap with — its sync is consumed immediately.
        let both = vec![kernel.clone(), kernel.clone(), ar.clone(), ar.clone()];
        let barriered = s.time_plan(&plan(both.clone(), CommSched::Barriered));
        let streamed = s.time_plan(&plan(both, CommSched::Priority));
        // Per-step timings are discipline-independent; only the
        // iteration-level composition changes.
        for (b, p) in barriered.steps.iter().zip(&streamed.steps) {
            assert_eq!(b.seconds, p.seconds);
        }
        let compute = barriered.category_total(StepCategory::Compute);
        let comm = barriered.category_total(StepCategory::Communication);
        assert!(
            streamed.total < barriered.total,
            "stream {} !< barrier {}",
            streamed.total,
            barriered.total
        );
        assert!(streamed.total >= compute.max(comm) - 1e-12);
        // The floors stay admissible under the streamed discipline.
        let mut p = plan(
            vec![
                Step::Kernel(KernelStep {
                    label: "k".into(),
                    bytes_read: 1 << 28,
                    bytes_written: 1 << 28,
                    flops: 1 << 24,
                    n_ops: 2,
                }),
                Step::Collective(CollectiveStep {
                    label: "ar".into(),
                    kind: CollKind::AllReduce,
                    op: ReduceOp::Sum,
                    algo: CollAlgo::Ring,
                    elems: 1 << 26,
                    dtype: DType::F16,
                }),
            ],
            CommSched::Priority,
        );
        p.set_config(p.config);
        assert!(s.plan_time_floor(&p) <= s.time_plan(&p).total);
        assert!(s.plan_lower_bound(&p) <= s.plan_time_floor(&p));
        // Comm-only and compute-only plans degenerate to the serial sum.
        let comm_only = vec![ar];
        assert_eq!(
            s.time_plan(&plan(comm_only.clone(), CommSched::Priority))
                .total,
            s.time_plan(&plan(comm_only, CommSched::Barriered)).total,
        );
        let compute_only = vec![kernel];
        assert_eq!(
            s.time_plan(&plan(compute_only.clone(), CommSched::Priority))
                .total,
            s.time_plan(&plan(compute_only, CommSched::Barriered)).total,
        );
    }

    /// The stream pipeline as an explicit graph for the oracle
    /// scheduler, one task per step per iteration: resource 0 is the
    /// compute pipe, resource 1 the fabric.
    fn oracle_makespan(costs: &[(f64, StepCategory)], iters: usize) -> f64 {
        let mut g = crate::oracle::TaskGraph::default();
        let last_compute_pos = costs.iter().rposition(|&(_, c)| !on_fabric(c)).unwrap();
        let mut prev_trailing_comm: Vec<usize> = Vec::new();
        let mut prev_iter_last_compute: Option<usize> = None;
        let mut prev_iter_last_task: Option<usize> = None;
        for _ in 0..iters {
            let mut trailing_comm = Vec::new();
            let mut last_compute: Option<usize> = None;
            let mut last_comm: Option<usize> = None;
            let mut last_task: Option<usize> = None;
            let mut compute_idx = 0usize;
            for (j, &(seconds, category)) in costs.iter().enumerate() {
                if on_fabric(category) {
                    let deps: Vec<usize> = last_compute
                        .or(prev_iter_last_compute)
                        .into_iter()
                        .collect();
                    let t = g.add_task(1, seconds, &deps);
                    if j > last_compute_pos {
                        trailing_comm.push(t);
                    }
                    last_comm = Some(t);
                    last_task = Some(t);
                } else {
                    let mut deps: Vec<usize> = last_compute.into_iter().chain(last_comm).collect();
                    if !prev_trailing_comm.is_empty() {
                        deps.push(
                            prev_trailing_comm[compute_idx.min(prev_trailing_comm.len() - 1)],
                        );
                    } else if deps.is_empty() {
                        deps.extend(prev_iter_last_task);
                    }
                    let t = g.add_task(0, seconds, &deps);
                    last_compute = Some(t);
                    last_task = Some(t);
                    compute_idx += 1;
                }
            }
            prev_trailing_comm = trailing_comm;
            prev_iter_last_compute = last_compute.or(prev_iter_last_compute);
            prev_iter_last_task = last_task.or(prev_iter_last_task);
        }
        g.schedule().makespan()
    }

    /// Random `(seconds, category)` plans: durations often zero or on a
    /// coarse grid (so start times tie), in four shapes — as drawn,
    /// communication only, compute only, and led by a collective.
    fn arb_costs() -> impl Strategy<Value = Vec<(f64, StepCategory)>> {
        const CATEGORIES: [StepCategory; 5] = [
            StepCategory::Compute,
            StepCategory::Fixed,
            StepCategory::Communication,
            StepCategory::FusedCommunication,
            StepCategory::Overlapped,
        ];
        (
            0usize..4,
            prop::collection::vec((0usize..5, 0usize..4, 0.0f64..4.0), 1..12),
        )
            .prop_map(|(shape, steps)| {
                steps
                    .into_iter()
                    .enumerate()
                    .map(|(j, (c, grid, dur))| {
                        let seconds = match grid {
                            0 => 0.0,
                            1 => dur,
                            _ => dur.floor() * 0.5,
                        };
                        let category = match shape {
                            1 => CATEGORIES[2 + c % 3],
                            2 => CATEGORIES[c % 2],
                            3 if j == 0 => StepCategory::Communication,
                            _ => CATEGORIES[c],
                        };
                        (seconds, category)
                    })
                    .collect()
            })
    }

    proptest! {
        /// The label-free stream schedule is the oracle's list schedule,
        /// bit for bit, and so is the steady state built on it, for every
        /// plan shape.
        #[test]
        fn stream_schedule_matches_the_list_schedule(costs in arb_costs()) {
            if costs.iter().any(|&(_, c)| !on_fabric(c)) {
                for iters in [2, 3] {
                    prop_assert_eq!(
                        pipeline_makespan(&costs, iters).to_bits(),
                        oracle_makespan(&costs, iters).to_bits()
                    );
                }
            }
            let busy = |fabric: bool| -> f64 {
                costs.iter().filter(|&&(_, c)| on_fabric(c) == fabric).map(|&(s, _)| s).sum()
            };
            let (compute, comm) = (busy(false), busy(true));
            let want = if compute == 0.0 || comm == 0.0 {
                compute + comm
            } else {
                (oracle_makespan(&costs, 3) - oracle_makespan(&costs, 2)).max(compute).max(comm)
            };
            prop_assert_eq!(steady_state_total(&costs).to_bits(), want.to_bits());
        }
    }

    /// The fingerprint is computed once, with the recipe plan-cache
    /// keys have always used, and follows a replaced cost model.
    #[test]
    fn fingerprint_is_the_debug_hash_of_the_cost_model() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let recipe = |s: &Simulator, group_size: usize, num_groups: usize| {
            let mut h = DefaultHasher::new();
            format!("{:?}", s.cost_model()).hash(&mut h);
            group_size.hash(&mut h);
            num_groups.hash(&mut h);
            h.finish()
        };
        let s = Simulator::new(MachineSpec::dgx2_cluster(16), 16, 16);
        assert_eq!(s.fingerprint(), recipe(&s, 16, 16));
        let knobs = crate::CostKnobs {
            fabric_efficiency: 0.5,
            ..crate::CostKnobs::default()
        };
        let moved = s
            .clone()
            .with_cost_model(s.cost_model().clone().with_knobs(knobs));
        assert_ne!(moved.fingerprint(), s.fingerprint());
        assert_eq!(moved.fingerprint(), recipe(&moved, 16, 16));
    }
}
