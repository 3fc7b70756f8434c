//! The autotuner (§3.5).
//!
//! "CoCoNet provides an autotuner to automatically explore the space
//! of all schedules of a program and return the schedule that provides
//! the best performance for the underlying architecture and input
//! sizes. First, the autotuner fuses all pointwise computations up to a
//! pre-defined threshold to decrease the search space and then
//! exhaustively explores the schedule space in a breadth first search
//! manner."
//!
//! The tuner is generic over a [`PlanEvaluator`] — `coconet-sim`
//! provides the machine model; tests can plug in synthetic evaluators.
//!
//! The search runs on the calling thread, level by level. It is
//! memoized (structurally identical plans are costed once) and pruned
//! (a configuration or branch whose optimistic
//! [`PlanEvaluator::lower_bound`] already exceeds the incumbent best is
//! dropped). [`Autotuner::exhaustive`] switches the pruning off; the
//! tier-1 tests prove both modes agree on the winner. Being serial, a
//! tune of one program repeats exactly, its counts included.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use crate::plancache::{CacheStats, PlanCache, PlanKey};
use crate::xform;
use crate::{
    lower, Binding, CollAlgo, CommConfig, CommSched, CoreError, ExecPlan, OpKind, Program,
    Protocol, VarId, WireFormat,
};

/// Evaluates the cost of an executable plan (lower is better).
/// Implemented by `coconet_sim::Simulator` over the machine model.
///
/// The trait is object-safe and `Sync`, so one evaluator can be shared
/// between threads that tune concurrently. Estimated times must be
/// non-negative and free of NaNs (the incumbent and the pruning bounds
/// compare them as plain numbers).
pub trait PlanEvaluator: Sync {
    /// Estimated execution time of the plan, in seconds.
    fn evaluate(&self, plan: &ExecPlan) -> f64;

    /// A cheap optimistic lower bound on [`evaluate`](Self::evaluate)
    /// for *this plan* (over-estimating can change the winner; the
    /// bound need not cover derived schedules). Configurations whose
    /// bound already exceeds the incumbent best are skipped without
    /// full evaluation. The default of `0.0` disables the skip.
    fn lower_bound(&self, _plan: &ExecPlan) -> f64 {
        0.0
    }

    /// A lower bound that additionally covers *every schedule
    /// derivable from the plan's program by further transformations*
    /// under the same configuration — necessarily looser than
    /// [`lower_bound`](Self::lower_bound). A branch whose minimum
    /// descendant bound across configurations exceeds the incumbent
    /// best is not expanded. The default of `0.0` disables branch
    /// pruning.
    fn descendant_lower_bound(&self, _plan: &ExecPlan) -> f64 {
        0.0
    }

    /// Both bounds for one plan under many configurations in a single
    /// call, returned as `(tight, descendant)` vectors parallel to
    /// `configs`; entry `i` must equal the per-config methods with
    /// `plan.config = configs[i]`. Model-backed evaluators override
    /// this to amortize the walk over the plan's steps — the bounds
    /// are typically `fixed + wire / bandwidth(config)`, so one walk
    /// answers the whole sweep.
    fn lower_bound_sweep(&self, plan: &ExecPlan, configs: &[CommConfig]) -> (Vec<f64>, Vec<f64>) {
        let mut p = plan.clone();
        configs
            .iter()
            .map(|&config| {
                p.set_config(config);
                (self.lower_bound(&p), self.descendant_lower_bound(&p))
            })
            .unzip()
    }

    /// A stable fingerprint of everything in the evaluator's cost
    /// model that can change a plan's estimated time — the machine
    /// specification and the cluster geometry for a simulator-backed
    /// evaluator. Two evaluators with equal fingerprints must cost
    /// every plan identically: the fingerprint is the "cluster shape"
    /// component of the [`PlanCache`] key, so a collision across
    /// genuinely different machines would serve a stale winner. The
    /// default of `0` is safe only for evaluators never mixed in one
    /// cache (the cache is keyed per evaluator fingerprint, so two
    /// zero-fingerprint evaluators alias each other).
    fn fingerprint(&self) -> u64 {
        0
    }
}

impl<F: Fn(&ExecPlan) -> f64 + Sync> PlanEvaluator for F {
    fn evaluate(&self, plan: &ExecPlan) -> f64 {
        self(plan)
    }
}

/// One explored schedule and its best configuration.
#[derive(Clone, Debug)]
pub struct Candidate {
    /// The transformation sequence applied, in order.
    pub schedule: Vec<String>,
    /// The scheduled program.
    pub program: Program,
    /// Best communication configuration found.
    pub config: CommConfig,
    /// Time under the best configuration, in seconds.
    pub time: f64,
}

impl Candidate {
    /// A short label for the schedule ("baseline" for the empty one).
    pub fn label(&self) -> String {
        if self.schedule.is_empty() {
            "baseline".to_string()
        } else {
            self.schedule.join("; ")
        }
    }
}

/// The autotuner's result: every explored schedule (sorted best-first)
/// plus bookkeeping for Table 3.
///
/// The winning candidate is identical between pruned and exhaustive
/// runs (ties break on breadth-first discovery order, and pruning only
/// discards configurations that are provably worse than the
/// incumbent), and a repeated tune of one program reports the same
/// candidates and counts. Times recorded for *losing* candidates
/// may be coarser under pruning, since their cheapest configurations
/// can be skipped.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// Explored schedules, best first.
    pub candidates: Vec<Candidate>,
    /// Number of distinct schedules explored.
    pub schedules_explored: usize,
    /// Number of (schedule, protocol, channels) cost lookups (memoized
    /// lookups included, pruned ones not).
    pub configs_evaluated: usize,
    /// Configurations skipped because their lower bound exceeded the
    /// incumbent best (zero when pruning is off).
    pub configs_pruned: usize,
    /// Schedules whose expansion was cut because even their optimistic
    /// lower bound exceeded the incumbent best.
    pub branches_pruned: usize,
    /// Cost lookups answered from the structural-hash memo table
    /// instead of the evaluator.
    pub memo_hits: usize,
    /// Plan-cache statistics for the consulted [`PlanCache`] — all
    /// zeros (the [`CacheStats`] default) when the report came from an
    /// uncached [`Autotuner::tune`] call.
    pub cache: CacheStats,
    /// Wall-clock time of the exploration.
    pub elapsed: Duration,
}

impl TuneReport {
    /// The winning candidate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoViableSchedule`] if no explored schedule
    /// lowered under any configuration (cannot happen for valid
    /// programs with a lowerable baseline).
    pub fn best(&self) -> Result<&Candidate, CoreError> {
        self.candidates.first().ok_or(CoreError::NoViableSchedule)
    }
}

/// Breadth-first explorer over the transformation space.
#[derive(Clone, Debug)]
pub struct Autotuner {
    /// Maximum number of transformations in a schedule.
    pub max_depth: usize,
    /// Collective algorithms to sweep (ring / tree / hierarchical /
    /// in-network switch — the logical topologies of §5.1 plus the
    /// SwitchML-style aggregation switch).
    pub algos: Vec<CollAlgo>,
    /// Protocols to sweep.
    pub protocols: Vec<Protocol>,
    /// Channel counts to sweep (the paper sweeps 2..64).
    pub channels: Vec<usize>,
    /// Wire formats to sweep (dense / FP16 / top-k — the
    /// `coconet-compress` dimension; SparCML's observation that the
    /// payload representation is a tunable too).
    pub formats: Vec<WireFormat>,
    /// Iteration-scheduling disciplines to sweep (barriered /
    /// priority-streamed — BytePS's observation that crossing the
    /// global barrier is a performance dimension worth costing).
    pub scheds: Vec<CommSched>,
    /// Also branch into slicing optimizer state (`asSlice` + `dead`,
    /// §4) after reorders that leave dangling state gathers.
    pub slice_state: bool,
    /// Beam pruning: drop configurations and branches whose
    /// [`PlanEvaluator::lower_bound`] exceeds the incumbent best.
    pub prune: bool,
}

impl Default for Autotuner {
    fn default() -> Autotuner {
        Autotuner {
            max_depth: 6,
            algos: CollAlgo::ALL.to_vec(),
            protocols: Protocol::ALL.to_vec(),
            channels: vec![2, 4, 8, 16, 32, 64],
            formats: WireFormat::SWEEP.to_vec(),
            scheds: CommSched::ALL.to_vec(),
            slice_state: true,
            prune: true,
        }
    }
}

/// A transformation move the explorer can apply.
#[derive(Clone, Debug)]
enum Move {
    Split(VarId),
    Reorder(VarId, Vec<VarId>),
    FuseAllReduce(VarId, Vec<VarId>, Vec<VarId>),
    FuseSend(Vec<VarId>, VarId),
    SliceState(VarId, VarId),
    Overlap(Vec<VarId>),
}

impl Move {
    fn describe(&self, p: &Program) -> String {
        let name = |v: VarId| {
            p.node(v)
                .map(|n| n.name().to_string())
                .unwrap_or_else(|_| v.to_string())
        };
        match self {
            Move::Split(v) => format!("split({}, ARSplitRSAG)", name(*v)),
            Move::Reorder(ag, _) => format!("reorder({}, comps)", name(*ag)),
            Move::FuseAllReduce(rs, _, _) => format!("fuse({}, AllReduceFuse)", name(*rs)),
            Move::FuseSend(_, s) => format!("fuse({}, SendFuse)", name(*s)),
            Move::SliceState(t, _) => format!("asSlice({})", name(*t)),
            Move::Overlap(stages) => {
                let names: Vec<String> = stages.iter().map(|&s| name(s)).collect();
                format!("overlap({})", names.join(", "))
            }
        }
    }

    fn apply(&self, p: &mut Program) -> Result<(), CoreError> {
        match self {
            Move::Split(v) => xform::split_all_reduce(p, *v).map(|_| ()),
            Move::Reorder(ag, comps) => xform::reorder_all_gather(p, *ag, comps).map(|_| ()),
            Move::FuseAllReduce(rs, comps, ags) => {
                xform::fuse_all_reduce(p, *rs, comps, ags).map(|_| ())
            }
            Move::FuseSend(comps, send) => xform::fuse_send(p, comps, *send).map(|_| ()),
            Move::SliceState(t, ag) => {
                xform::as_slice(p, *t)?;
                xform::dead(p, *ag)
            }
            Move::Overlap(stages) => xform::overlap(p, stages),
        }
    }
}

/// Outcome of sweeping one schedule over every configuration.
struct SweepOutcome {
    /// Best `(config, time)` among the configurations costed.
    best: Option<(CommConfig, f64)>,
    /// Minimum [`PlanEvaluator::descendant_lower_bound`] across all
    /// configurations — an optimistic floor for this schedule and its
    /// descendants (`0.0` when nothing lowered, so un-lowerable
    /// schedules keep expanding exactly as the exhaustive search
    /// does).
    floor: f64,
}

/// Bookkeeping for one `tune` run.
struct SearchState {
    /// Best time seen so far.
    incumbent: f64,
    /// (plan-hash → time) memo across schedules and configurations.
    memo: HashMap<u64, f64>,
    configs_evaluated: usize,
    configs_pruned: usize,
    memo_hits: usize,
}

impl Autotuner {
    /// Explores the schedule space of `program` and costs every
    /// schedule under every configuration of
    /// [`configs`](Autotuner::configs), memoizing structurally
    /// identical plans and (unless [`exhaustive`](Autotuner::exhaustive))
    /// beam-pruning configurations and branches that provably cannot
    /// beat the incumbent best. The search runs on the calling thread,
    /// so a panic in the evaluator unwinds out of this call.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the input program.
    pub fn tune(
        &self,
        program: &Program,
        binding: &Binding,
        evaluator: &dyn PlanEvaluator,
    ) -> Result<TuneReport, CoreError> {
        program.validate()?;
        let start = Instant::now();

        // Pre-pass: fuse all pointwise computation chains (§3.5).
        let mut base = program.clone();
        fuse_pointwise_chains(&mut base);

        let mut state = SearchState {
            incumbent: f64::INFINITY,
            memo: HashMap::new(),
            configs_evaluated: 0,
            configs_pruned: 0,
            memo_hits: 0,
        };
        let (mut candidates, schedules_explored, branches_pruned) =
            self.search(base, binding, evaluator, &mut state);
        candidates.sort_by(|a, b| a.1.time.total_cmp(&b.1.time).then(a.0.cmp(&b.0)));

        Ok(TuneReport {
            candidates: candidates.into_iter().map(|(_, c)| c).collect(),
            schedules_explored,
            configs_evaluated: state.configs_evaluated,
            configs_pruned: state.configs_pruned,
            branches_pruned,
            memo_hits: state.memo_hits,
            cache: CacheStats::default(),
            elapsed: start.elapsed(),
        })
    }

    /// Like [`tune`](Autotuner::tune), but consults `cache` first: a
    /// warm hit at the same (structural program hash, evaluator
    /// fingerprint × binding, config-grid fingerprint) key returns the
    /// cached winning candidate — bit-identical to the cold winner —
    /// in ~0 time, reporting `configs_evaluated = 0` and
    /// `schedules_explored = 0` (no sweep ran). A miss runs the full
    /// search and installs the winner. Either way the report's
    /// [`TuneReport::cache`] carries the cache's cumulative
    /// hit/miss/eviction counters (plus the answering entry's age on a
    /// hit).
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the input program, exactly as
    /// [`tune`](Autotuner::tune) does.
    pub fn tune_cached(
        &self,
        program: &Program,
        binding: &Binding,
        evaluator: &dyn PlanEvaluator,
        cache: &mut PlanCache,
    ) -> Result<TuneReport, CoreError> {
        let start = Instant::now();
        let key = self.cache_key(program, binding, evaluator);
        if let Some((winner, age)) = cache.get(&key) {
            let mut stats = cache.stats();
            stats.hit_age = Some(age);
            return Ok(TuneReport {
                candidates: vec![winner],
                schedules_explored: 0,
                configs_evaluated: 0,
                configs_pruned: 0,
                branches_pruned: 0,
                memo_hits: 0,
                cache: stats,
                elapsed: start.elapsed(),
            });
        }
        let mut report = self.tune(program, binding, evaluator)?;
        if let Ok(best) = report.best() {
            cache.insert(key, best.clone());
        }
        report.cache = cache.stats();
        Ok(report)
    }

    /// The [`PlanCache`] key for one request: the structural program
    /// hash (isomorphism-invariant), the cluster-shape component
    /// (evaluator fingerprint mixed with the binding's geometry and
    /// symbol sizes — both change the winner), and this tuner's
    /// config-grid fingerprint.
    pub fn cache_key(
        &self,
        program: &Program,
        binding: &Binding,
        evaluator: &dyn PlanEvaluator,
    ) -> PlanKey {
        let cluster = {
            let mut h = DefaultHasher::new();
            evaluator.fingerprint().hash(&mut h);
            binding.group_size.hash(&mut h);
            binding.num_groups.hash(&mut h);
            // Already sorted by name (the binding map is a BTreeMap).
            for (name, value) in binding.symbols() {
                name.hash(&mut h);
                value.hash(&mut h);
            }
            h.finish()
        };
        PlanKey {
            program: structural_hash(program),
            cluster,
            grid: self.grid_fingerprint(),
        }
    }

    /// A stable fingerprint of the search space this tuner sweeps:
    /// every grid dimension in order, plus the exploration knobs that
    /// change which schedules are reachable. Two tuners with equal
    /// fingerprints produce identical winners for identical inputs, so
    /// the fingerprint is the grid component of the [`PlanCache`] key.
    pub fn grid_fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.max_depth.hash(&mut h);
        for a in &self.algos {
            a.index().hash(&mut h);
        }
        u64::MAX.hash(&mut h); // dimension separator
        for p in &self.protocols {
            p.hash(&mut h);
        }
        u64::MAX.hash(&mut h);
        self.channels.hash(&mut h);
        u64::MAX.hash(&mut h);
        for f in &self.formats {
            f.hash(&mut h);
        }
        u64::MAX.hash(&mut h);
        for s in &self.scheds {
            s.index().hash(&mut h);
        }
        self.slice_state.hash(&mut h);
        h.finish()
    }

    /// The BFS driver: sweeps every schedule of a level, then expands
    /// the survivors into the next level, so a branch is judged against
    /// the incumbent of its whole level. Each candidate carries its
    /// discovery sequence number so that ties sort identically with or
    /// without pruning. Returns the candidates, the schedules explored
    /// and the branches pruned.
    fn search(
        &self,
        base: Program,
        binding: &Binding,
        evaluator: &dyn PlanEvaluator,
        state: &mut SearchState,
    ) -> (Vec<(usize, Candidate)>, usize, usize) {
        let mut seen: HashSet<u64> = HashSet::new();
        seen.insert(structural_hash(&base));
        let mut frontier: Vec<(Program, Vec<String>)> = vec![(base, Vec::new())];
        let mut candidates: Vec<(usize, Candidate)> = Vec::new();
        let mut schedules_explored = 0usize;
        let mut branches_pruned = 0usize;
        let mut depth = 0usize;

        while !frontier.is_empty() {
            let evaluated: Vec<(Program, Vec<String>, SweepOutcome)> =
                std::mem::take(&mut frontier)
                    .into_iter()
                    .map(|(p, d)| {
                        let outcome = self.sweep_configs(&p, binding, evaluator, state);
                        (p, d, outcome)
                    })
                    .collect();
            for (i, (p, schedule, outcome)) in evaluated.iter().enumerate() {
                if let Some((config, time)) = outcome.best {
                    candidates.push((
                        schedules_explored + i,
                        Candidate {
                            schedule: schedule.clone(),
                            program: p.clone(),
                            config,
                            time,
                        },
                    ));
                }
            }
            schedules_explored += evaluated.len();

            if depth > self.max_depth {
                break;
            }
            for (p, desc, outcome) in evaluated {
                if self.prune && outcome.floor > state.incumbent {
                    branches_pruned += 1;
                    continue;
                }
                for mv in find_moves(&p, self.slice_state) {
                    let mut q = p.clone();
                    let label = mv.describe(&q);
                    if mv.apply(&mut q).is_err() {
                        continue;
                    }
                    if seen.insert(structural_hash(&q)) {
                        let mut d = desc.clone();
                        d.push(label);
                        frontier.push((q, d));
                    }
                }
            }
            depth += 1;
        }
        (candidates, schedules_explored, branches_pruned)
    }

    /// Disables beam pruning (and keeps everything else), so every
    /// schedule is costed under every configuration — the reference
    /// mode the pruned search is tested against.
    pub fn exhaustive(mut self) -> Autotuner {
        self.prune = false;
        self
    }

    /// Every configuration this tuner sweeps, in sweep order: the
    /// algorithm outermost, the scheduling discipline innermost.
    ///
    /// `Barriered` is enumerated before `Priority` (see
    /// [`CommSched::ALL`]) and the sweep keeps the *first* best, so a
    /// tie — any comm-free or compute-free plan — deterministically
    /// keeps the simpler discipline.
    pub fn configs(&self) -> Vec<CommConfig> {
        let mut out = Vec::new();
        for &algo in &self.algos {
            for &protocol in &self.protocols {
                for &channels in &self.channels {
                    for &format in &self.formats {
                        for &sched in &self.scheds {
                            out.push(CommConfig {
                                algo,
                                protocol,
                                channels,
                                format,
                                sched,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Sweeps every configuration of [`configs`](Autotuner::configs)
    /// over one schedule.
    ///
    /// Lowering is configuration-independent up to the algorithm stamp
    /// (the steps' shapes never depend on the configuration), so the
    /// schedule is lowered once and re-tagged per configuration via
    /// [`ExecPlan::set_config`] — the dominant fixed cost of the old
    /// per-config lowering loop.
    fn sweep_configs(
        &self,
        p: &Program,
        binding: &Binding,
        evaluator: &dyn PlanEvaluator,
        state: &mut SearchState,
    ) -> SweepOutcome {
        let configs = self.configs();
        let Some(&first) = configs.first() else {
            return SweepOutcome {
                best: None,
                floor: 0.0,
            };
        };
        let Ok(mut plan) = lower(p, binding, first) else {
            return SweepOutcome {
                best: None,
                floor: 0.0,
            };
        };
        let steps_key = steps_hash(&plan);
        // Both bound vectors in one evaluator pass; when pruning is
        // off, neither is needed.
        let (tight, descendant) = if self.prune {
            evaluator.lower_bound_sweep(&plan, &configs)
        } else {
            (Vec::new(), Vec::new())
        };

        let mut best: Option<(CommConfig, f64)> = None;
        let mut floor = if self.prune { f64::INFINITY } else { 0.0 };
        for (i, &config) in configs.iter().enumerate() {
            if self.prune {
                floor = floor.min(descendant[i]);
                if tight[i] > state.incumbent {
                    state.configs_pruned += 1;
                    continue;
                }
            }
            let key = {
                let mut h = DefaultHasher::new();
                steps_key.hash(&mut h);
                config.hash(&mut h);
                h.finish()
            };
            let t = match state.memo.get(&key) {
                Some(&t) => {
                    state.memo_hits += 1;
                    t
                }
                None => {
                    // Restamp only when the evaluator will actually
                    // read the plan — pruned and memoized
                    // configurations skip the O(steps) walk.
                    plan.set_config(config);
                    let t = evaluator.evaluate(&plan);
                    state.memo.insert(key, t);
                    t
                }
            };
            state.configs_evaluated += 1;
            state.incumbent = state.incumbent.min(t);
            if best.is_none_or(|(_, bt)| t < bt) {
                best = Some((config, t));
            }
        }
        SweepOutcome {
            best,
            floor: if floor.is_finite() { floor } else { 0.0 },
        }
    }
}

/// A structural hash of a program: node kinds, scalar payloads, types,
/// and group structure over topologically renumbered variables. Two
/// schedules that differ only in variable numbering or display names
/// (isomorphic programs) hash identically, which is what dedupes
/// transformation sequences that commute into the same program.
pub fn structural_hash(p: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    let order = p.topo_order();
    let rank: HashMap<VarId, usize> = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let r = |v: VarId| rank.get(&v).copied().unwrap_or(usize::MAX);
    for &v in &order {
        let Ok(op) = p.op(v) else { continue };
        std::mem::discriminant(op).hash(&mut h);
        for input in op.inputs() {
            r(input).hash(&mut h);
        }
        // Non-variable payloads, which the discriminant cannot see.
        match op {
            OpKind::ConstScalar(c) => c.to_bits().hash(&mut h),
            OpKind::Unary(u, _) => u.hash(&mut h),
            OpKind::Binary(b, ..) => b.hash(&mut h),
            OpKind::Conv2d(_, _, params) => params.hash(&mut h),
            OpKind::Dropout(_, prob) => prob.to_bits().hash(&mut h),
            OpKind::ReduceTensor(ro, _)
            | OpKind::AllReduce(ro, _)
            | OpKind::ReduceScatter(ro, _) => ro.hash(&mut h),
            OpKind::Broadcast(_, root) => root.hash(&mut h),
            OpKind::Reduce(ro, _, root) => {
                ro.hash(&mut h);
                root.hash(&mut h);
            }
            OpKind::Send(_, peer) => peer.hash(&mut h),
            _ => {}
        }
        if let Ok(t) = p.ty(v) {
            t.hash(&mut h);
        }
    }
    for &v in p.inputs() {
        r(v).hash(&mut h);
    }
    for &v in p.outputs() {
        r(v).hash(&mut h);
    }
    for g in p.fusion_groups() {
        g.kind.hash(&mut h);
        let mut members: Vec<usize> = g.members.iter().map(|&v| r(v)).collect();
        members.sort_unstable();
        members.hash(&mut h);
    }
    for g in p.overlap_groups() {
        // Stage order matters for overlap, so no sorting here.
        let members: Vec<usize> = g.members.iter().map(|&v| r(v)).collect();
        members.hash(&mut h);
    }
    h.finish()
}

/// A structural hash of a lowered plan's steps (the configuration is
/// hashed in separately per sweep iteration), keying the evaluation
/// memo: schedules that lower to the same executable steps are costed
/// once per configuration.
fn steps_hash(plan: &ExecPlan) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{:?}", plan.steps).hash(&mut h);
    h.finish()
}

/// Fuses every maximal chain of connected pointwise computations into a
/// compute fusion group (the autotuner's pre-pass, §3.5).
pub fn fuse_pointwise_chains(p: &mut Program) {
    let mut visited: HashSet<VarId> = HashSet::new();
    let order = p.topo_order();
    for &v in &order {
        if visited.contains(&v) || p.fusion_group_of(v).is_some() {
            continue;
        }
        let Ok(op) = p.op(v) else { continue };
        if !op.is_pointwise() || matches!(op, OpKind::ConstScalar(_) | OpKind::Slice(_)) {
            continue;
        }
        // Grow a connected pointwise region from v.
        let mut region: Vec<VarId> = vec![v];
        let mut stack = vec![v];
        let mut in_region: HashSet<VarId> = [v].into_iter().collect();
        while let Some(m) = stack.pop() {
            let mut neighbors: Vec<VarId> =
                p.op(m).map(|o| o.inputs().to_vec()).unwrap_or_default();
            neighbors.extend(p.consumers(m));
            for n in neighbors {
                if in_region.contains(&n) || p.fusion_group_of(n).is_some() {
                    continue;
                }
                let Ok(nop) = p.op(n) else { continue };
                if nop.is_pointwise() && !matches!(nop, OpKind::ConstScalar(_) | OpKind::Slice(_)) {
                    in_region.insert(n);
                    region.push(n);
                    stack.push(n);
                }
            }
        }
        visited.extend(region.iter().copied());
        if region.len() >= 2 && xform::fuse_compute(p, &region).is_ok() {
            // recorded as a group
        }
    }
}

/// Enumerates the transformation moves applicable to a program.
fn find_moves(p: &Program, slice_state: bool) -> Vec<Move> {
    let mut moves = Vec::new();
    let topo = p.topo_order();

    for &v in &topo {
        let Ok(op) = p.op(v) else { continue };
        match op {
            // split: any AllReduce not yet fused.
            OpKind::AllReduce(..) if p.fusion_group_of(v).is_none() => {
                moves.push(Move::Split(v));
            }
            // reorder: an AllGather whose maximal pointwise/Send
            // consumer region swallows all its consumers.
            OpKind::AllGather(_) => {
                if let Some(region) = reorder_region(p, v) {
                    moves.push(Move::Reorder(v, region));
                }
            }
            // fuse(AllReduceFuse): RS -> sliced comps -> AG(s) pattern.
            OpKind::ReduceScatter(..) if p.fusion_group_of(v).is_none() => {
                if let Some((comps, ags)) = fused_ar_region(p, v) {
                    moves.push(Move::FuseAllReduce(v, comps, ags));
                }
            }
            // fuse(SendFuse): the pointwise region feeding a Send.
            OpKind::Send(input, _) if p.fusion_group_of(v).is_none() => {
                let comps = pointwise_region_feeding(p, *input, v);
                if !comps.is_empty() {
                    moves.push(Move::FuseSend(comps, v));
                }
            }
            _ => {}
        }
    }

    // asSlice + dead: a dangling AllGather over an Update of a
    // replicated input (the optimizer-state pattern of §4).
    if slice_state {
        for &v in &topo {
            if let Ok(OpKind::AllGather(x)) = p.op(v) {
                if !p.consumers(v).is_empty() || p.outputs().contains(&v) {
                    continue;
                }
                if let Ok(OpKind::Update(target, _)) = p.op(*x) {
                    if p.ty(*target).map(|t| t.layout == crate::Layout::Replicated) == Ok(true) {
                        moves.push(Move::SliceState(*target, v));
                    }
                }
            }
        }
    }

    // overlap: producer-consumer chains of stage-able units.
    moves.extend(overlap_moves(p));
    moves
}

/// The maximal connected region of pointwise/Send operations around an
/// AllGather's consumers, or `None` if some consumer cannot be
/// reordered.
///
/// The region grows in *both* directions: downstream through consumers
/// (they must all be sliceable, else the reorder is invalid) and
/// upstream through pointwise producers (the paper reorders the whole
/// pre-fused computation, so `m * beta1` joins even though it does not
/// read the gather — that is what lets `asSlice(m)` apply later, §4).
fn reorder_region(p: &Program, ag: VarId) -> Option<Vec<VarId>> {
    let mut region: Vec<VarId> = Vec::new();
    let mut in_region: HashSet<VarId> = HashSet::new();
    let direct: Vec<VarId> = p.consumers(ag);
    if direct.is_empty() {
        return None;
    }
    // Downstream consumers are mandatory; a non-sliceable one kills the
    // transformation.
    let mut stack = direct;
    while let Some(v) = stack.pop() {
        if in_region.contains(&v) {
            continue;
        }
        let op = p.op(v).ok()?;
        let ok = op.is_pointwise() || matches!(op, OpKind::Send(..));
        if !ok || matches!(op, OpKind::Slice(_) | OpKind::ConstScalar(_)) {
            return None; // a consumer cannot be sliced: reorder invalid
        }
        in_region.insert(v);
        region.push(v);
        // Sends terminate the region on this branch (their output lives
        // on the next group); other members' consumers must join.
        if !matches!(op, OpKind::Send(..)) {
            stack.extend(p.consumers(v));
        }
    }
    // Upstream pointwise producers are optional: absorb any whose
    // consumers all lie in the region (keeps the region convex).
    loop {
        let mut grew = false;
        for &m in &region.clone() {
            let Ok(op) = p.op(m) else { continue };
            for dep in op.inputs() {
                if dep == ag || in_region.contains(&dep) {
                    continue;
                }
                let Ok(dop) = p.op(dep) else { continue };
                if !dop.is_pointwise() || matches!(dop, OpKind::Slice(_) | OpKind::ConstScalar(_)) {
                    continue;
                }
                if p.consumers(dep).iter().all(|c| in_region.contains(c)) {
                    in_region.insert(dep);
                    region.push(dep);
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    sort_topologically(p, &mut region);
    Some(region)
}

/// Finds the `RS -> sliced comps -> AllGather(s)` region rooted at a
/// ReduceScatter for `fuse(AllReduceFuse)`. Downstream consumers of the
/// ReduceScatter are collected first; upstream pointwise producers
/// whose consumers all lie inside (e.g. the `m * beta1` term the
/// reorder sliced) are then absorbed, so the fusion covers the whole
/// pre-fused computation group.
fn fused_ar_region(p: &Program, rs: VarId) -> Option<(Vec<VarId>, Vec<VarId>)> {
    let mut comps = Vec::new();
    let mut ags = Vec::new();
    let mut stack: Vec<VarId> = p.consumers(rs);
    let mut seen: HashSet<VarId> = HashSet::new();
    while let Some(v) = stack.pop() {
        if !seen.insert(v) {
            continue;
        }
        let op = p.op(v).ok()?;
        match op {
            OpKind::AllGather(_) => ags.push(v),
            OpKind::Send(..) => return None, // handled by SendFuse/overlap
            o if o.is_pointwise() => {
                if !matches!(o, OpKind::Slice(_)) {
                    comps.push(v);
                }
                stack.extend(p.consumers(v));
            }
            _ => return None,
        }
    }
    if ags.is_empty() || p.fusion_group_of(rs).is_some() {
        return None;
    }
    absorb_upstream_pointwise(p, &mut comps);
    let rank = topo_rank(p);
    comps.sort_by_key(|v| rank.get(v));
    ags.sort_by_key(|v| rank.get(v));
    Some((comps, ags))
}

/// Each live variable's position in `p`'s topological order.
fn topo_rank(p: &Program) -> HashMap<VarId, usize> {
    p.topo_order()
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i))
        .collect()
}

/// Sorts `vars` into `p`'s topological order.
fn sort_topologically(p: &Program, vars: &mut [VarId]) {
    let rank = topo_rank(p);
    vars.sort_by_key(|v| rank.get(v));
}

/// Grows `region` upstream through pointwise producers whose consumers
/// all lie inside the region (keeps it convex).
fn absorb_upstream_pointwise(p: &Program, region: &mut Vec<VarId>) {
    let mut in_region: HashSet<VarId> = region.iter().copied().collect();
    loop {
        let mut grew = false;
        for &m in &region.clone() {
            let Ok(op) = p.op(m) else { continue };
            for dep in op.inputs() {
                if in_region.contains(&dep) {
                    continue;
                }
                let Ok(dop) = p.op(dep) else { continue };
                if !dop.is_pointwise() || matches!(dop, OpKind::Slice(_) | OpKind::ConstScalar(_)) {
                    continue;
                }
                if p.consumers(dep).iter().all(|c| in_region.contains(c)) {
                    in_region.insert(dep);
                    region.push(dep);
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
}

/// The maximal connected pointwise region whose value flows into
/// `sink_input` (feeding the Send at `sink`): the chain from the input
/// upward, closed over producers with all consumers inside.
fn pointwise_region_feeding(p: &Program, sink_input: VarId, sink: VarId) -> Vec<VarId> {
    let ok = |v: VarId| {
        p.op(v).is_ok_and(|op| {
            op.is_pointwise() && !matches!(op, OpKind::ConstScalar(_) | OpKind::Slice(_))
        })
    };
    if !ok(sink_input) {
        return Vec::new();
    }
    // The direct input must flow only into the Send.
    if p.consumers(sink_input).iter().any(|&c| c != sink) {
        return Vec::new();
    }
    let mut region = vec![sink_input];
    // Treat the sink as in-region for the closure test.
    let mut in_region: HashSet<VarId> = [sink_input, sink].into_iter().collect();
    loop {
        let mut grew = false;
        for &m in &region.clone() {
            let Ok(op) = p.op(m) else { continue };
            for dep in op.inputs() {
                if in_region.contains(&dep) || !ok(dep) {
                    continue;
                }
                if p.consumers(dep).iter().all(|c| in_region.contains(c)) {
                    in_region.insert(dep);
                    region.push(dep);
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    sort_topologically(p, &mut region);
    region
}

/// Enumerates overlappable producer-consumer chains.
fn overlap_moves(p: &Program) -> Vec<Move> {
    let mut moves = Vec::new();
    if !p.overlap_groups().is_empty() {
        return moves; // one overlap per program in the paper's schedules
    }
    for &v in &p.topo_order() {
        let Ok(op) = p.op(v) else { continue };
        match op {
            // MatMul -> collective (possibly fused).
            OpKind::MatMul(..) => {
                let consumers = p.consumers(v);
                if consumers.len() != 1 {
                    continue;
                }
                let c = consumers[0];
                let Ok(cop) = p.op(c) else { continue };
                let is_comm_stage =
                    matches!(cop, OpKind::AllReduce(..) | OpKind::ReduceScatter(..));
                if is_comm_stage {
                    moves.push(Move::Overlap(vec![v, c]));
                }
            }
            // RS -> (fused)Send -> AG: the pipeline-parallel chain.
            OpKind::ReduceScatter(..) => {
                // Walk forward: RS -> [send group] -> AG on next group.
                let mut send = None;
                for c in transitive_consumers(p, v) {
                    if matches!(p.op(c), Ok(OpKind::Send(..))) {
                        send = Some(c);
                        break;
                    }
                }
                let Some(send) = send else { continue };
                let ag = p
                    .consumers(send)
                    .into_iter()
                    .find(|&c| matches!(p.op(c), Ok(OpKind::AllGather(_))));
                let Some(ag) = ag else { continue };
                moves.push(Move::Overlap(vec![v, send, ag]));
            }
            _ => {}
        }
    }
    moves
}

fn transitive_consumers(p: &Program, v: VarId) -> Vec<VarId> {
    let mut out = Vec::new();
    let mut stack = p.consumers(v);
    let mut seen = HashSet::new();
    while let Some(c) = stack.pop() {
        if seen.insert(c) {
            out.push(c);
            stack.extend(p.consumers(c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DType, ExecPlan, Layout, ReduceOp, Step};

    /// A toy evaluator: counts launches plus bandwidth-proportional
    /// costs, rewarding fusion and overlap like the real machine does.
    fn toy_evaluator(plan: &ExecPlan) -> f64 {
        let mut t = 0.0;
        for s in &plan.steps {
            t += 5e-6 * s.launches() as f64;
            t += match s {
                Step::Kernel(k) => (k.bytes_read + k.bytes_written) as f64 / 700e9,
                Step::MatMul(mm) => mm.flops() as f64 / 80e12,
                Step::Collective(c) => c.elems as f64 * 2.0 / 100e9 * 1.9,
                Step::FusedCollective(f) => f.elems as f64 * 2.0 / 100e9 * 1.9,
                Step::SendRecv(sr) => sr.elems_per_rank as f64 * 2.0 / 6e9,
                Step::Overlapped(ol) => {
                    // Roughly the max stage.
                    ol.stages
                        .iter()
                        .map(|st| match st {
                            crate::OverlapStage::MatMul(mm) => mm.flops() as f64 / 80e12,
                            crate::OverlapStage::Collective(c) => {
                                c.elems as f64 * 2.0 / 100e9 * 1.9
                            }
                            crate::OverlapStage::FusedCollective(f) => {
                                f.elems as f64 * 2.0 / 100e9 * 1.9
                            }
                            crate::OverlapStage::SendRecv(sr) => {
                                sr.elems_per_rank as f64 * 2.0 / 6e9
                            }
                        })
                        .fold(0.0f64, f64::max)
                }
                Step::Fixed(f) => f.seconds,
            };
        }
        t
    }

    fn self_attention() -> Program {
        let mut p = Program::new("self_attention");
        let w = p.input("w", DType::F16, ["H", "H"], Layout::sliced(0));
        let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
        let input = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
        let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
        let layer = p.matmul(input, w).unwrap();
        p.set_name(layer, "layer").unwrap();
        let sum = p.all_reduce(ReduceOp::Sum, layer).unwrap();
        p.set_name(sum, "sum").unwrap();
        let biased = p.add(sum, b).unwrap();
        let d = p.dropout(biased, 0.1).unwrap();
        let out = p.add(d, r).unwrap();
        p.set_io(&[w, input, b, r], &[out]).unwrap();
        p
    }

    #[test]
    fn tuner_finds_overlap_schedule_for_large_sizes() {
        let p = self_attention();
        let binding = Binding::new(16)
            .bind("B", 8)
            .bind("S", 1024)
            .bind("H", 3072);
        let tuner = Autotuner::default();
        let report = tuner.tune(&p, &binding, &toy_evaluator).unwrap();
        assert!(
            report.schedules_explored >= 4,
            "explored {}",
            report.schedules_explored
        );
        assert!(report.configs_evaluated > report.schedules_explored);
        let best = report.best().unwrap();
        // The best schedule must contain an overlap (the paper's
        // winning ol(MM, fuse(RS-C-AG)) schedule).
        assert!(
            best.schedule.iter().any(|s| s.starts_with("overlap")),
            "best schedule = {:?}",
            best.schedule
        );
        // The best program has one overlap group covering the MatMul.
        assert_eq!(best.program.overlap_groups().len(), 1);
        // And the baseline is strictly worse.
        let baseline = report
            .candidates
            .iter()
            .find(|c| c.schedule.is_empty())
            .expect("baseline present");
        assert!(best.time < baseline.time);
    }

    #[test]
    fn pre_pass_fuses_pointwise_chains() {
        let mut p = self_attention();
        fuse_pointwise_chains(&mut p);
        assert_eq!(p.fusion_groups().len(), 1);
        assert_eq!(p.fusion_groups()[0].members.len(), 3); // add, dropout, add
    }

    #[test]
    fn tuner_explores_split_and_fuse_for_optimizer() {
        // Mini-Adam: AR + state update; the tuner should discover the
        // split -> reorder -> asSlice -> fuse chain.
        let mut p = Program::new("mini_adam");
        let g = p.input("g", DType::F32, ["N"], Layout::Local);
        let m = p.input("m", DType::F32, ["N"], Layout::Replicated);
        let param = p.input("p", DType::F32, ["N"], Layout::Replicated);
        let avg = p.all_reduce(ReduceOp::Sum, g).unwrap();
        p.set_name(avg, "avg").unwrap();
        let beta = p.constant(0.9);
        let m_new = p.mul(m, beta).unwrap();
        let m_new = p.add(m_new, avg).unwrap();
        let m_ = p.update(m, m_new).unwrap();
        let step = p.mul(m_, beta).unwrap();
        let p_new = p.sub(param, step).unwrap();
        let p_ = p.update(param, p_new).unwrap();
        p.set_io(&[g, m, param], &[p_]).unwrap();

        let binding = Binding::new(256).bind("N", 1 << 26);
        let report = Autotuner::default()
            .tune(&p, &binding, &toy_evaluator)
            .unwrap();
        let labels: Vec<String> = report.candidates.iter().map(Candidate::label).collect();
        assert!(
            labels.iter().any(|l| l.contains("split")),
            "no split schedule in {labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.contains("reorder")),
            "no reorder schedule in {labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.contains("AllReduceFuse")),
            "no fused schedule in {labels:?}"
        );
        assert!(
            labels.iter().any(|l| l.contains("asSlice")),
            "no asSlice schedule in {labels:?}"
        );
    }

    #[test]
    fn report_orders_candidates_best_first() {
        let p = self_attention();
        let binding = Binding::new(16)
            .bind("B", 8)
            .bind("S", 1024)
            .bind("H", 3072);
        let report = Autotuner::default()
            .tune(&p, &binding, &toy_evaluator)
            .unwrap();
        for w in report.candidates.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn empty_report_best_is_an_error() {
        let report = TuneReport {
            candidates: Vec::new(),
            schedules_explored: 0,
            configs_evaluated: 0,
            configs_pruned: 0,
            branches_pruned: 0,
            memo_hits: 0,
            cache: CacheStats::default(),
            elapsed: Duration::ZERO,
        };
        assert_eq!(report.best().unwrap_err(), CoreError::NoViableSchedule);
    }

    #[test]
    fn tune_cached_warm_hit_is_bit_identical_and_costs_nothing() {
        let p = self_attention();
        let binding = Binding::new(16)
            .bind("B", 8)
            .bind("S", 1024)
            .bind("H", 3072);
        let tuner = Autotuner::default();
        let mut cache = PlanCache::new(4);

        let cold = tuner
            .tune_cached(&p, &binding, &toy_evaluator, &mut cache)
            .unwrap();
        assert_eq!(cold.cache.hits, 0);
        assert_eq!(cold.cache.misses, 1);
        assert!(cold.configs_evaluated > 0);
        assert_eq!(cache.len(), 1);

        let warm = tuner
            .tune_cached(&p, &binding, &toy_evaluator, &mut cache)
            .unwrap();
        // A cache hit reports zero configurations costed and zero
        // schedules explored — nothing was swept.
        assert_eq!(warm.configs_evaluated, 0);
        assert_eq!(warm.schedules_explored, 0);
        assert_eq!(warm.cache.hits, 1);
        assert!(warm.cache.hit_age.is_some());
        let c = cold.best().unwrap();
        let w = warm.best().unwrap();
        assert_eq!(c.schedule, w.schedule);
        assert_eq!(c.config, w.config);
        assert_eq!(c.time.to_bits(), w.time.to_bits());

        // Any key component change misses: program structure...
        let mut extended = p.clone();
        let out = *extended.outputs().last().unwrap();
        extended.relu(out).unwrap();
        let r = tuner
            .tune_cached(&extended, &binding, &toy_evaluator, &mut cache)
            .unwrap();
        assert!(r.configs_evaluated > 0);
        // ...binding geometry...
        let smaller = Binding::new(8).bind("B", 8).bind("S", 1024).bind("H", 3072);
        let r = tuner
            .tune_cached(&p, &smaller, &toy_evaluator, &mut cache)
            .unwrap();
        assert!(r.configs_evaluated > 0);
        // ...and the config grid.
        let narrow = Autotuner {
            channels: vec![16],
            ..Autotuner::default()
        };
        let r = narrow
            .tune_cached(&p, &binding, &toy_evaluator, &mut cache)
            .unwrap();
        assert!(r.configs_evaluated > 0);
        assert_ne!(narrow.grid_fingerprint(), tuner.grid_fingerprint());
    }

    #[test]
    fn structural_hash_ignores_names_but_not_structure() {
        let a = self_attention();
        let mut renamed = a.clone();
        let v = renamed.topo_order()[0];
        renamed.set_name(v, "completely-different").unwrap();
        assert_eq!(structural_hash(&a), structural_hash(&renamed));

        let mut extended = a.clone();
        let out = *extended.outputs().last().unwrap();
        extended.relu(out).unwrap();
        assert_ne!(structural_hash(&a), structural_hash(&extended));
    }

    /// An evaluator with a genuine (admissible) lower bound: the toy
    /// cost minus every launch/latency term it could ever shed.
    struct BoundedToy;

    impl PlanEvaluator for BoundedToy {
        fn evaluate(&self, plan: &ExecPlan) -> f64 {
            toy_evaluator(plan)
        }

        fn lower_bound(&self, plan: &ExecPlan) -> f64 {
            self.descendant_lower_bound(plan)
        }

        fn descendant_lower_bound(&self, plan: &ExecPlan) -> f64 {
            // Half the largest single communication payload at full
            // bandwidth: no descendant schedule can beat it, because
            // every transformation preserves at least the
            // ReduceScatter-volume wire traffic of the largest
            // collective.
            plan.steps
                .iter()
                .map(|s| match s {
                    Step::Collective(c) => c.elems as f64 / 100e9,
                    Step::FusedCollective(f) => f.elems as f64 / 100e9,
                    _ => 0.0,
                })
                .fold(0.0f64, f64::max)
        }
    }

    #[test]
    fn pruned_matches_exhaustive() {
        let p = self_attention();
        let binding = Binding::new(16)
            .bind("B", 8)
            .bind("S", 1024)
            .bind("H", 3072);
        let exhaustive = Autotuner::default()
            .exhaustive()
            .tune(&p, &binding, &BoundedToy)
            .unwrap();
        let pruned = Autotuner::default()
            .tune(&p, &binding, &BoundedToy)
            .unwrap();
        let e = exhaustive.best().unwrap();
        let b = pruned.best().unwrap();
        assert_eq!(e.schedule, b.schedule);
        assert_eq!(e.config, b.config);
        assert!((e.time - b.time).abs() < 1e-15);
        assert!(pruned.configs_evaluated <= exhaustive.configs_evaluated);
        assert_eq!(exhaustive.configs_pruned, 0);
    }

    #[test]
    fn evaluator_panic_unwinds_out_of_tune_on_the_calling_thread() {
        // The thread that calls `tune` is the one the evaluator runs on
        // and the one the panic ends.
        let caller = std::thread::spawn(|| {
            let p = self_attention();
            let binding = Binding::new(16)
                .bind("B", 8)
                .bind("S", 1024)
                .bind("H", 3072);
            let me = std::thread::current().id();
            let bomb = move |_: &ExecPlan| -> f64 {
                assert_eq!(std::thread::current().id(), me, "evaluated off the caller");
                panic!("evaluator exploded")
            };
            Autotuner::default().tune(&p, &binding, &bomb)
        });
        let payload = caller
            .join()
            .expect_err("the evaluator panic must unwind out of tune");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"evaluator exploded"));
    }

    #[test]
    fn memo_and_counts_are_consistent() {
        let p = self_attention();
        let binding = Binding::new(16)
            .bind("B", 8)
            .bind("S", 1024)
            .bind("H", 3072);
        let report = Autotuner::default()
            .exhaustive()
            .tune(&p, &binding, &toy_evaluator)
            .unwrap();
        // Every counted lookup is either fresh or memoized; pruning is
        // off so nothing was skipped.
        assert!(report.memo_hits <= report.configs_evaluated);
        assert_eq!(report.configs_pruned, 0);
        assert_eq!(report.branches_pruned, 0);
    }
}
