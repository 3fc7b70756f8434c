//! The machine-readable benchmark trajectory: every CI run distills
//! the paper's headline experiments (Tables 2/3/4, Figures 1/10/11),
//! the collective-algorithm ablation (ring / tree / hierarchical /
//! switch, over message size and over worker count), the measured
//! runtime rows (`microbench_zero_copy`, `ledger_allreduce`,
//! `ledger_switch`), and the serving rows (`plan_cache`,
//! `multitenant_throughput`) into one `BENCH_coconet.json`, the
//! perf-trajectory source of truth the repository tracks across PRs.
//!
//! Schema — one top-level object, experiment name → row:
//!
//! ```json
//! {
//!   "tab3_autotuner_adam": {
//!     "baseline_s": 0.0123,
//!     "coconet_s": 0.0061,
//!     "speedup": 2.01,
//!     "schedules_explored": 14,
//!     "configs_evaluated": 182,
//!     "tune_wall_ms": 41.5
//!   }
//! }
//! ```
//!
//! Rows produced without running the autotuner report zero for the
//! exploration counters. The `tab3_*` rows additionally carry the
//! exhaustive-reference counters used by the pruned-vs-exhaustive
//! consistency check.

use coconet_core::Autotuner;
use coconet_models::{MemoryModel, ModelConfig, Optimizer, Strategy};
use coconet_sim::Simulator;
use coconet_topology::MachineSpec;

use crate::experiments;
use crate::json::Json;

/// Workers both trajectory tuner modes run on, so the pruned search is
/// compared against the exhaustive reference at identical parallelism
/// ("… on ≥ 2 worker threads").
pub const TUNE_WORKERS: usize = 2;

/// One experiment's distilled measurement.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Stable experiment key (JSON object key).
    pub name: &'static str,
    /// Baseline schedule time, seconds.
    pub baseline_s: f64,
    /// CoCoNet's best schedule time, seconds.
    pub coconet_s: f64,
    /// Schedules the autotuner explored (0 for analytic experiments).
    pub schedules_explored: usize,
    /// Configurations the autotuner costed (0 for analytic ones).
    pub configs_evaluated: usize,
    /// Autotuner wall-clock, milliseconds (0 for analytic ones).
    pub tune_wall_ms: f64,
    /// Extra per-experiment fields appended to the JSON row.
    pub extra: Vec<(String, Json)>,
}

impl ExperimentResult {
    /// Baseline-over-CoCoNet speedup.
    pub fn speedup(&self) -> f64 {
        self.baseline_s / self.coconet_s
    }

    fn analytic(name: &'static str, baseline_s: f64, coconet_s: f64) -> ExperimentResult {
        ExperimentResult {
            name,
            baseline_s,
            coconet_s,
            schedules_explored: 0,
            configs_evaluated: 0,
            tune_wall_ms: 0.0,
            extra: Vec::new(),
        }
    }
}

/// A collected trajectory: the experiment rows plus any tuner
/// consistency-gate failures. Rows are produced even when the gate
/// fails, so the trajectory file can always be written (and archived)
/// for diagnosis before the run is declared red.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// All experiment rows, in emission order.
    pub results: Vec<ExperimentResult>,
    /// Violations of the `tab3_*` pruned-vs-exhaustive invariants
    /// (identical winner, strictly fewer configurations, strictly
    /// less aggregate wall-clock); empty when everything held.
    pub gate_failures: Vec<String>,
}

/// Runs the trajectory experiments. `quick` (the CI mode) keeps the
/// fast two-thirds: all analytic rows plus the `adam` and
/// `model-parallel` tuner rows; the full mode adds the `lamb` and
/// `pipeline` tuner rows.
///
/// # Errors
///
/// Returns a description of the failure only when an experiment
/// cannot run at all (a workload failing to build or tune); tuner
/// consistency violations land in [`Trajectory::gate_failures`]
/// instead so the rows survive for diagnosis.
pub fn collect(quick: bool) -> Result<Trajectory, String> {
    let mut results = vec![
        fig1(),
        fig10(),
        fig11(),
        tab2(),
        tab4(),
        algo_ablation("ablation_algo_small", 14),
        algo_ablation("ablation_algo_large", 30),
        compression_ablation("compression_ablation_small", 14),
        compression_ablation("compression_ablation_large", 28),
    ];
    let (zc_rows, mut gate_failures) = zero_copy_experiments();
    results.extend(zc_rows);
    let (kernel_row, kernel_failures) = kernel_throughput_experiment();
    results.push(kernel_row);
    gate_failures.extend(kernel_failures);
    let (ch_row, ch_failures) = ablation_channels_experiment();
    results.push(ch_row);
    gate_failures.extend(ch_failures);
    let (switch_row, switch_failures) = switch_worker_ablation();
    results.push(switch_row);
    gate_failures.extend(switch_failures);
    let (sledger_row, sledger_failures) = switch_ledger_experiment();
    results.push(sledger_row);
    gate_failures.extend(sledger_failures);
    let (comp_row, comp_failures) = compression_ledger();
    results.push(comp_row);
    gate_failures.extend(comp_failures);
    let (steady_rows, steady_failures) = steady_experiments();
    results.extend(steady_rows);
    gate_failures.extend(steady_failures);
    let (trace_row, trace_failures) = overlap_trace_experiment();
    results.push(trace_row);
    gate_failures.extend(trace_failures);
    let (pc_row, pc_failures) = plan_cache_experiment();
    results.push(pc_row);
    gate_failures.extend(pc_failures);
    let (mt_row, mt_failures) = multitenant_experiment();
    results.push(mt_row);
    gate_failures.extend(mt_failures);
    let workloads: &[&str] = if quick {
        &["adam", "model-parallel"]
    } else {
        &["adam", "lamb", "model-parallel", "pipeline"]
    };
    let (tab3_rows, tab3_failures) = tab3_experiments(workloads)?;
    results.extend(tab3_rows);
    gate_failures.extend(tab3_failures);
    Ok(Trajectory {
        results,
        gate_failures,
    })
}

/// Figure 1's largest point: overlapped MatMul+AllReduce vs
/// sequential at batch 64.
fn fig1() -> ExperimentResult {
    let row = experiments::figure1().pop().expect("figure1 has rows");
    ExperimentResult::analytic("fig1_overlap", row.sequential, row.overlapped)
}

/// Figure 10 at 2^30 elements: Adam, baseline AR+FusedOpt vs
/// `fuse(RS-Opt-AG)`.
fn fig10() -> ExperimentResult {
    let row = experiments::figure10(Optimizer::Adam, &[30])
        .pop()
        .expect("figure10 has rows");
    ExperimentResult::analytic(
        "fig10_data_parallel",
        row.baseline,
        row.baseline / row.fused,
    )
}

/// Figure 11's first group (self-attention epilogue, batch 8):
/// Megatron-LM vs the overlapped schedule.
fn fig11() -> ExperimentResult {
    let rows = experiments::figure11();
    let group = &rows[..4];
    ExperimentResult::analytic("fig11_model_parallel", group[0].time, group[3].time)
}

/// The collective-algorithm ablation at one message size: AllReduce of
/// `2^log2_elems` FP16 elements on 256 GPUs, each algorithm at its own
/// best `protocol × channels`. The row's baseline is the flat ring and
/// its `coconet_s` is the best algorithm — so the small-message row
/// shows the tree's win (speedup > 1) and the large-message row shows
/// the ring staying optimal (speedup 1.0), the size crossover the
/// autotuner's algorithm dimension exists to exploit. The switch
/// column rides along but stays behind at this dense 8-rank/node
/// geometry; its win is the worker-count axis
/// ([`switch_worker_ablation`]).
fn algo_ablation(name: &'static str, log2_elems: u32) -> ExperimentResult {
    let (_, times) = experiments::ablation_algorithms(&[log2_elems])
        .pop()
        .expect("one exponent");
    let [ring, tree, hier, switch] = times;
    let best = ring.min(tree).min(hier).min(switch);
    let winner = experiments::algo_winner(&times);
    let mut row = ExperimentResult::analytic(name, ring, best);
    row.extra = vec![
        ("ring_s".into(), Json::Num(ring)),
        ("tree_s".into(), Json::Num(tree)),
        ("hierarchical_s".into(), Json::Num(hier)),
        ("switch_s".into(), Json::Num(switch)),
        ("winner".into(), Json::Str(winner.into())),
        ("log2_elems".into(), Json::Num(f64::from(log2_elems))),
    ];
    row
}

/// The in-network aggregation ablation over *worker count*: AllReduce
/// of 2^18 F32 elements at 1 rank/node, every algorithm at its own
/// best `protocol × channels`, at 2 and at 32 workers. The row's
/// baseline is the best host-side algorithm at 32 workers and its
/// `coconet_s` is the switch — so the gated speedup is the in-network
/// win at scale, while the 2-worker columns pin the other side of the
/// crossover (a plain ring beats the switch's quantize/dequantize
/// latency in a tiny group). Both ends of the crossover are enforced
/// as gate failures, the same treatment as a ledger inconsistency.
fn switch_worker_ablation() -> (ExperimentResult, Vec<String>) {
    let rows = experiments::ablation_switch_workers(&[2, 32]);
    let (_, [ring_2, tree_2, hier_2, switch_2]) = rows[0];
    let (_, [ring_32, tree_32, hier_32, switch_32]) = rows[1];
    let host_best_32 = ring_32.min(tree_32).min(hier_32);
    let mut row = ExperimentResult::analytic("ablation_switch_workers", host_best_32, switch_32);
    row.extra = vec![
        ("ring_2_s".into(), Json::Num(ring_2)),
        ("switch_2_s".into(), Json::Num(switch_2)),
        ("ring_32_s".into(), Json::Num(ring_32)),
        ("tree_32_s".into(), Json::Num(tree_32)),
        ("hierarchical_32_s".into(), Json::Num(hier_32)),
        ("switch_32_s".into(), Json::Num(switch_32)),
        (
            "winner_2".into(),
            Json::Str(experiments::algo_winner(&rows[0].1).into()),
        ),
        (
            "winner_32".into(),
            Json::Str(experiments::algo_winner(&rows[1].1).into()),
        ),
        ("log2_elems".into(), Json::Num(18.0)),
    ];
    let mut failures = Vec::new();
    if switch_32 >= host_best_32 {
        failures.push(format!(
            "ablation_switch_workers: switch lost at 32 workers \
             ({switch_32:.3e}s vs best host-side {host_best_32:.3e}s) — \
             in-network aggregation must win at scale"
        ));
    }
    if switch_2 <= ring_2.min(tree_2).min(hier_2) {
        failures.push(format!(
            "ablation_switch_workers: switch won at 2 workers \
             ({switch_2:.3e}s) — the crossover collapsed, check the \
             switch_process knob"
        ));
    }
    (row, failures)
}

/// The measured in-network aggregation row: real [`switch_all_reduce`]
/// runs of [`SWITCH_ELEMS`](crate::switchnet::SWITCH_ELEMS) F32
/// elements over 8 and over 2 worker threads. The row's
/// baseline/coconet pair is *bytes per worker* (measured round trip
/// over the analytic `2·n` quantization words), so its speedup is
/// exactly 1.0 for a healthy run at any group size. Volume deviations
/// — a worker off the `2·n` contract, per-worker bytes moving with
/// the worker count, dataplane traffic leaking onto a worker's books —
/// are gate failures.
///
/// [`switch_all_reduce`]: coconet_runtime::switch_all_reduce
fn switch_ledger_experiment() -> (ExperimentResult, Vec<String>) {
    use crate::switchnet::{switch_ledger_bench, SWITCH_ELEMS, SWITCH_RANKS_SMALL};
    let row = switch_ledger_bench(SWITCH_ELEMS);
    let mut result = ExperimentResult::analytic(
        "ledger_switch",
        row.per_worker_bytes() as f64,
        row.analytic_bytes() as f64,
    );
    result.extra = vec![
        ("unit".into(), Json::Str("bytes per worker".into())),
        ("elems".into(), Json::Num(row.elems as f64)),
        ("ranks".into(), Json::Num(row.ranks as f64)),
        (
            "bytes_sent".into(),
            Json::Num(row.ledgers[0].bytes_sent as f64),
        ),
        (
            "bytes_received".into(),
            Json::Num(row.ledgers[0].bytes_received as f64),
        ),
        (
            "analytic_bytes".into(),
            Json::Num(row.analytic_bytes() as f64),
        ),
        (
            "small_group_ranks".into(),
            Json::Num(SWITCH_RANKS_SMALL as f64),
        ),
        (
            "small_group_bytes".into(),
            Json::Num(row.small_group_bytes() as f64),
        ),
        (
            "dataplane_bytes".into(),
            Json::Num(row.dataplane_bytes() as f64),
        ),
    ];
    let failures = row
        .violations()
        .into_iter()
        .map(|v| format!("ledger_switch: {v}"))
        .collect();
    (result, failures)
}

/// The measured zero-copy rows: one real ring AllReduce of
/// [`ZC_ELEMS`](crate::zerocopy::ZC_ELEMS) F32 elements over
/// [`ZC_RANKS`](crate::zerocopy::ZC_RANKS) rank threads, reported
/// twice — as the wall-clock microbenchmark against the reconstructed
/// deep-copy seed runtime, and as the [`BytesLedger`] row whose
/// baseline/coconet pair is *bytes per rank* (measured wire bytes over
/// the analytic `2·(p−1)/p·n·dtype_size`, so its speedup is exactly
/// 1.0 for a zero-copy run). Ledger-invariant violations — wire bytes
/// or materializations beyond the analytic volume — are returned as
/// gate failures, the same treatment as a tuner inconsistency.
///
/// [`BytesLedger`]: coconet_runtime::BytesLedger
fn zero_copy_experiments() -> (Vec<ExperimentResult>, Vec<String>) {
    use crate::zerocopy::{zero_copy_microbench, GATED_SPEEDUP_CAP, ZC_ELEMS, ZC_RANKS};
    // Debug builds (the test suite) keep the single-iteration run;
    // release CI takes the fastest of two.
    let iters = if cfg!(debug_assertions) { 1 } else { 2 };
    let row = zero_copy_microbench(ZC_ELEMS, ZC_RANKS, iters);
    // The row's baseline is the deep-copy wall, capped so the gated
    // speedup never exceeds GATED_SPEEDUP_CAP (see its docs); the raw
    // measurement rides along in `measured_speedup`/`deep_copy_s`.
    let gated_baseline = row.deep_copy_s.min(row.zero_copy_s * GATED_SPEEDUP_CAP);
    let mut micro =
        ExperimentResult::analytic("microbench_zero_copy", gated_baseline, row.zero_copy_s);
    micro.extra = vec![
        ("elems".into(), Json::Num(row.elems as f64)),
        ("ranks".into(), Json::Num(row.ranks as f64)),
        ("iters".into(), Json::Num(iters as f64)),
        ("deep_copy_s".into(), Json::Num(row.deep_copy_s)),
        ("measured_speedup".into(), Json::Num(row.speedup())),
    ];
    let mut ledger = ExperimentResult::analytic(
        "ledger_allreduce",
        row.ledger.bytes_sent as f64,
        row.analytic_bytes as f64,
    );
    ledger.extra = vec![
        ("unit".into(), Json::Str("bytes per rank".into())),
        ("bytes_sent".into(), Json::Num(row.ledger.bytes_sent as f64)),
        (
            "analytic_bytes".into(),
            Json::Num(row.analytic_bytes as f64),
        ),
        ("sends".into(), Json::Num(row.ledger.sends as f64)),
        ("cow_bytes".into(), Json::Num(row.ledger.cow_bytes as f64)),
        (
            "expected_fold_bytes".into(),
            Json::Num(row.expected_fold_bytes() as f64),
        ),
        (
            "allocations".into(),
            Json::Num(row.ledger.allocations as f64),
        ),
        (
            "bytes_allocated".into(),
            Json::Num(row.ledger.bytes_allocated as f64),
        ),
    ];
    let failures = row
        .ledger_violations()
        .into_iter()
        .map(|v| format!("ledger_allreduce: {v}"))
        .collect();
    (vec![micro, ledger], failures)
}

/// The measured kernel-engine row: real reductions of
/// [`KB_ELEMS`](crate::kernelbench::KB_ELEMS) F32 elements through the
/// seed's per-element dispatch path, the monomorphic serial loop, and
/// the worker-pool parallel loop. The row's baseline is the dispatch
/// wall capped at `engine × KERNEL_SPEEDUP_CAP` — the same treatment
/// as the zero-copy microbenchmark — so a healthy release run pins the
/// gated speedup at exactly 5x while the raw ratio and the per-path
/// GB/s ride along in the extras. An engine slower than the
/// [`KERNEL_MIN_SPEEDUP`](crate::kernelbench::KERNEL_MIN_SPEEDUP)
/// floor is a gate failure.
fn kernel_throughput_experiment() -> (ExperimentResult, Vec<String>) {
    use crate::kernelbench::{kernel_microbench, KB_ELEMS, KERNEL_SPEEDUP_CAP};
    // Debug builds (the test suite) keep the single-iteration run;
    // release CI takes the fastest of three.
    let iters = if cfg!(debug_assertions) { 1 } else { 3 };
    let row = kernel_microbench(KB_ELEMS, iters);
    let engine_s = row.best_engine_s();
    let gated_baseline = row.dispatch_s.min(engine_s * KERNEL_SPEEDUP_CAP);
    let mut result = ExperimentResult::analytic("kernel_throughput", gated_baseline, engine_s);
    result.extra = vec![
        ("elems".into(), Json::Num(row.elems as f64)),
        ("iters".into(), Json::Num(iters as f64)),
        ("workers".into(), Json::Num(row.workers as f64)),
        ("dispatch_s".into(), Json::Num(row.dispatch_s)),
        ("mono_s".into(), Json::Num(row.mono_s)),
        ("parallel_s".into(), Json::Num(row.parallel_s)),
        (
            "dispatch_gb_s".into(),
            Json::Num(row.throughput_gb_s(row.dispatch_s)),
        ),
        (
            "mono_gb_s".into(),
            Json::Num(row.throughput_gb_s(row.mono_s)),
        ),
        (
            "parallel_gb_s".into(),
            Json::Num(row.throughput_gb_s(row.parallel_s)),
        ),
        ("measured_speedup".into(), Json::Num(row.speedup())),
    ];
    let failures = row
        .violations()
        .into_iter()
        .map(|v| format!("kernel_throughput: {v}"))
        .collect();
    (result, failures)
}

/// The measured channel-striping row: real ring AllReduces of
/// [`CH_ELEMS`](crate::striping::CH_ELEMS) F32 elements over
/// [`CH_RANKS`](crate::striping::CH_RANKS) rank threads, swept over
/// channels ∈ {1, 2, 4, 8}. Every width runs the same lane engine, so
/// the row makes no wall-clock claim: both of its sides are the
/// single-channel wall (speedup pinned at exactly 1.0) and the
/// per-width walls ride along raw in the extras. Contract violations —
/// a width off the analytic wire volume, a bitwise divergence from one
/// channel — are gate failures.
fn ablation_channels_experiment() -> (ExperimentResult, Vec<String>) {
    use crate::striping::{channel_ablation_bench, CH_ELEMS, CH_RANKS};
    // Debug builds (the test suite) keep the single-iteration sweep;
    // release CI takes the fastest of three per width.
    let iters = if cfg!(debug_assertions) { 1 } else { 3 };
    let row = channel_ablation_bench(CH_ELEMS, CH_RANKS, iters);
    let mut result =
        ExperimentResult::analytic("ablation_channels", row.single_s(), row.single_s());
    result.extra = vec![
        ("elems".into(), Json::Num(row.elems as f64)),
        ("ranks".into(), Json::Num(row.ranks as f64)),
        ("iters".into(), Json::Num(iters as f64)),
        (
            "analytic_bytes".into(),
            Json::Num(row.analytic_bytes as f64),
        ),
        (
            "bit_identical".into(),
            Json::Str(if row.bit_identical { "yes" } else { "no" }.into()),
        ),
    ];
    for &(c, s) in &row.walls {
        result.extra.push((format!("channels_{c}_s"), Json::Num(s)));
    }
    for &(c, b) in &row.wire_bytes {
        result
            .extra
            .push((format!("channels_{c}_bytes"), Json::Num(b as f64)));
    }
    let failures = row
        .violations()
        .into_iter()
        .map(|v| format!("ablation_channels: {v}"))
        .collect();
    (result, failures)
}

/// The steady-state rows: the costed barriered vs barrier-free
/// iterations/sec comparison at the acceptance geometry (2^24 gradient
/// elements over 8 ranks — deterministic cost-model output, so the CI
/// gate tracks the overlap win directly), plus the measured witnesses
/// row whose baseline/coconet pair is *bytes per rank* (measured
/// tagged traffic over the analytic volume, so its speedup is exactly
/// 1.0 for a healthy run). Witness violations — diverged parameters,
/// a last-layer gradient finishing before a first-layer one, a
/// priority class off its analytic volume — are gate failures, the
/// same treatment as a ledger or tuner inconsistency.
fn steady_experiments() -> (Vec<ExperimentResult>, Vec<String>) {
    use crate::steady::{
        steady_state_bench, steady_state_sim, STEADY_ELEMS, STEADY_LAYERS, STEADY_RANKS,
    };
    let sim = steady_state_sim();
    let mut stream =
        ExperimentResult::analytic("steady_state_stream", sim.barriered_s, sim.streamed_s);
    stream.extra = vec![
        ("unit".into(), Json::Str("seconds per iteration".into())),
        ("elems".into(), Json::Num(STEADY_ELEMS as f64)),
        ("ranks".into(), Json::Num(STEADY_RANKS as f64)),
        ("layers".into(), Json::Num(STEADY_LAYERS as f64)),
        (
            "barriered_iters_per_sec".into(),
            Json::Num(sim.barriered_iters_per_sec()),
        ),
        (
            "streamed_iters_per_sec".into(),
            Json::Num(sim.streamed_iters_per_sec()),
        ),
    ];
    // Debug builds (the test suite) keep the single run; release CI
    // takes the fastest of two.
    let repeats = if cfg!(debug_assertions) { 1 } else { 2 };
    let row = steady_state_bench(repeats);
    let mut ledger = ExperimentResult::analytic(
        "ledger_priority_stream",
        row.class_bytes_total() as f64,
        (row.class_analytic_bytes() * row.layers as u64) as f64,
    );
    ledger.extra = vec![
        ("unit".into(), Json::Str("bytes per rank".into())),
        ("elems".into(), Json::Num(row.elems as f64)),
        ("ranks".into(), Json::Num(row.ranks as f64)),
        ("layers".into(), Json::Num(row.layers as f64)),
        ("iters".into(), Json::Num(row.iters as f64)),
        (
            "class_bytes_sent".into(),
            Json::Arr(
                row.ledger
                    .class_bytes_sent
                    .iter()
                    .map(|&b| Json::Num(b as f64))
                    .collect(),
            ),
        ),
        (
            "class_analytic_bytes".into(),
            Json::Num(row.class_analytic_bytes() as f64),
        ),
        (
            "params_match".into(),
            Json::Str(if row.params_match { "yes" } else { "no" }.into()),
        ),
        ("measured_barriered_s".into(), Json::Num(row.barriered_s)),
        ("measured_streamed_s".into(), Json::Num(row.streamed_s)),
    ];
    let failures = row
        .violations()
        .into_iter()
        .map(|v| format!("ledger_priority_stream: {v}"))
        .collect();
    (vec![stream, ledger], failures)
}

/// The traced overlap row: the steady-state loop run under both
/// schedules *with span recording on*, distilled by the trace crate's
/// overlap profiler and drift aligner. The row's baseline/coconet pair
/// is the priority schedule's measured hidden-communication fraction
/// on both sides (so its speedup is pinned at exactly 1.0 for a
/// healthy run — the fraction itself is machine-dependent, so the
/// regression gate must not diff it); the real invariants gate as
/// failures: the priority schedule must hide strictly more collective
/// in-flight time than the barriered one, every simulated plan step
/// (`bwd{l}` / `grad{l}`) must align with a traced measurement, and
/// both traces must be well formed (nested spans, monotone per-thread
/// records, every enqueue completed). The per-step drift and both
/// hidden fractions ride along in the extras, and the priority run's
/// Chrome trace JSON is stashed for `report --trace-out`.
fn overlap_trace_experiment() -> (ExperimentResult, Vec<String>) {
    use crate::tracebench::overlap_trace_bench;
    let row = overlap_trace_bench();
    let hidden = row.priority.hidden_fraction;
    let mut result = ExperimentResult::analytic("overlap_trace", hidden, hidden);
    result.extra = vec![
        ("unit".into(), Json::Str("hidden fraction".into())),
        ("elems".into(), Json::Num(row.elems as f64)),
        ("ranks".into(), Json::Num(row.ranks as f64)),
        ("layers".into(), Json::Num(row.layers as f64)),
        ("iters".into(), Json::Num(row.iters as f64)),
        (
            "hidden_frac_barriered".into(),
            Json::Num(row.barriered.hidden_fraction),
        ),
        ("hidden_frac_priority".into(), Json::Num(hidden)),
        (
            "comm_busy_s_barriered".into(),
            Json::Num(row.barriered.comm_busy_s),
        ),
        (
            "comm_busy_s_priority".into(),
            Json::Num(row.priority.comm_busy_s),
        ),
        ("hidden_s_priority".into(), Json::Num(row.priority.hidden_s)),
        (
            "events_barriered".into(),
            Json::Num(row.barriered.events as f64),
        ),
        (
            "events_priority".into(),
            Json::Num(row.priority.events as f64),
        ),
        (
            "dropped_events".into(),
            Json::Num((row.barriered.dropped + row.priority.dropped) as f64),
        ),
        (
            "drift_mean_abs_rel_err".into(),
            Json::Num(row.drift.mean_abs_rel_err()),
        ),
        (
            "drift_max_abs_rel_err".into(),
            Json::Num(row.drift.max_abs_rel_err()),
        ),
        ("drift_scale".into(), Json::Num(row.drift.scale)),
        (
            "drift_steps".into(),
            Json::Arr(
                row.drift
                    .steps
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("label".into(), Json::Str(s.label.clone())),
                            ("predicted_s".into(), Json::Num(s.predicted_s)),
                            ("measured_s".into(), Json::Num(s.measured_s)),
                            ("rel_err".into(), Json::Num(s.rel_err)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ];
    let failures = row
        .violations()
        .into_iter()
        .map(|v| format!("overlap_trace: {v}"))
        .collect();
    (result, failures)
}

/// The measured plan-cache row: one cold [`Autotuner::tune_cached`]
/// sweep of the Adam workload against the fastest of
/// [`PLAN_CACHE_WARM_ITERS`](crate::plancache::PLAN_CACHE_WARM_ITERS)
/// warm cache hits. The row's baseline is the cold wall capped at
/// `warm × PLAN_CACHE_MIN_SPEEDUP` — the same treatment as the
/// zero-copy microbenchmark — so a healthy run pins the gated speedup
/// at exactly the 50x floor while the raw ratio (typically far larger)
/// rides along in `measured_speedup`. Cache-contract violations — a
/// warm winner that isn't bit-identical to the cold one, a hit that
/// still costed configurations, a sub-50x lookup — are gate failures.
fn plan_cache_experiment() -> (ExperimentResult, Vec<String>) {
    use crate::plancache::{plan_cache_bench, PLAN_CACHE_MIN_SPEEDUP, PLAN_CACHE_WARM_ITERS};
    let row = plan_cache_bench("adam", TUNE_WORKERS);
    let gated_baseline = row.cold_s.min(row.warm_s * PLAN_CACHE_MIN_SPEEDUP);
    let mut result = ExperimentResult::analytic("plan_cache", gated_baseline, row.warm_s);
    result.extra = vec![
        ("cold_s".into(), Json::Num(row.cold_s)),
        ("measured_speedup".into(), Json::Num(row.measured_speedup())),
        ("warm_iters".into(), Json::Num(PLAN_CACHE_WARM_ITERS as f64)),
        (
            "cold_configs_evaluated".into(),
            Json::Num(row.cold_configs_evaluated as f64),
        ),
        (
            "warm_configs_evaluated".into(),
            Json::Num(row.warm_configs_evaluated as f64),
        ),
        ("cache_hits".into(), Json::Num(row.stats.hits as f64)),
        ("cache_misses".into(), Json::Num(row.stats.misses as f64)),
        (
            "cache_evictions".into(),
            Json::Num(row.stats.evictions as f64),
        ),
        ("winner".into(), Json::Str(row.warm_best.label())),
        (
            "bit_identical".into(),
            Json::Str(if row.bit_identical() { "yes" } else { "no" }.into()),
        ),
    ];
    let failures = row
        .violations()
        .into_iter()
        .map(|v| format!("plan_cache: {v}"))
        .collect();
    (result, failures)
}

/// The multi-tenant contention row: the tuned Adam winner lowered at
/// [`MT_JOBS`](crate::multitenant::MT_JOBS) scaled problem sizes,
/// replayed through the shared-fabric simulator. The row's baseline is
/// the serial (no-consolidation) wall and its `coconet_s` is the
/// contention-aware makespan, so the gated speedup is the
/// consolidation win CI tracks. The scheduling-theory invariants —
/// SRPT strictly beating FIFO's mean completion, work-conserving
/// makespans agreeing within slack, sharing beating serial — are gate
/// failures.
fn multitenant_experiment() -> (ExperimentResult, Vec<String>) {
    use crate::multitenant::{multitenant_bench, MT_JOBS};
    let row = multitenant_bench("adam", TUNE_WORKERS);
    let mut result = ExperimentResult::analytic(
        "multitenant_throughput",
        row.serial_s(),
        row.aware_makespan_s(),
    );
    result.extra = vec![
        ("jobs".into(), Json::Num(MT_JOBS as f64)),
        ("winner".into(), Json::Str(row.winner.clone())),
        (
            "fifo_makespan_s".into(),
            Json::Num(row.report.fifo.makespan_s),
        ),
        (
            "aware_makespan_s".into(),
            Json::Num(row.report.aware.makespan_s),
        ),
        (
            "fifo_mean_completion_s".into(),
            Json::Num(row.report.fifo.mean_completion_s),
        ),
        (
            "aware_mean_completion_s".into(),
            Json::Num(row.report.aware.mean_completion_s),
        ),
        (
            "solo_s".into(),
            Json::Arr(row.solo_s.iter().map(|&(_, s)| Json::Num(s)).collect()),
        ),
    ];
    let failures = row
        .violations()
        .into_iter()
        .map(|v| format!("multitenant_throughput: {v}"))
        .collect();
    (result, failures)
}

/// The wire-format ablation at one message size: AllReduce of
/// `2^log2_elems` FP16 gradients on 256 GPUs, each format at its own
/// best `algorithm × protocol`. The row's baseline is the dense wire
/// and its `coconet_s` is the best format — the small row shows dense
/// winning the latency-bound regime (speedup 1.0), the large row shows
/// the sparse wire's win, and the 100 ‰ point pins the sparse↔dense
/// switchover (its time equals dense exactly).
fn compression_ablation(name: &'static str, log2_elems: u32) -> ExperimentResult {
    use crate::compression::{ablation_formats, format_winner};
    let rows = ablation_formats(log2_elems);
    let dense = rows.iter().find(|r| r.0 == "dense").expect("dense row").1;
    let best = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let winner = format_winner(&rows);
    let mut row = ExperimentResult::analytic(name, dense, best);
    row.extra = rows
        .iter()
        .map(|&(label, t)| (format!("{label}_s"), Json::Num(t)))
        .collect();
    row.extra.push(("winner".into(), Json::Str(winner.into())));
    row.extra
        .push(("log2_elems".into(), Json::Num(f64::from(log2_elems))));
    row
}

/// The measured compressed-collective row: real ring AllReduces of
/// [`LEDGER_ELEMS`](crate::compression::LEDGER_ELEMS) F32 elements
/// over 8 rank threads under the dense, FP16, and 10 ‰ top-k wires.
/// The row's baseline/coconet pair is *bytes per rank* (dense over
/// top-k), so its speedup is the ledger-verified volume reduction the
/// regression gate tracks (~29x, deterministic). Analytic-volume
/// deviations — dense off the ring formula, FP16 not exactly half,
/// top-k off the sparse formula or ≥ 5 % of dense — are gate failures.
fn compression_ledger() -> (ExperimentResult, Vec<String>) {
    use crate::compression::{compression_ledger_bench, LEDGER_ELEMS, LEDGER_RANKS};
    let row = compression_ledger_bench(LEDGER_ELEMS, LEDGER_RANKS);
    let mut result = ExperimentResult::analytic(
        "ledger_compression",
        row.dense_bytes as f64,
        row.topk_bytes as f64,
    );
    result.extra = vec![
        ("unit".into(), Json::Str("bytes per rank".into())),
        ("elems".into(), Json::Num(row.elems as f64)),
        ("ranks".into(), Json::Num(row.ranks as f64)),
        ("dense_bytes".into(), Json::Num(row.dense_bytes as f64)),
        ("fp16_bytes".into(), Json::Num(row.fp16_bytes as f64)),
        ("topk10_bytes".into(), Json::Num(row.topk_bytes as f64)),
        (
            "topk_fraction_of_dense".into(),
            Json::Num(row.topk_bytes as f64 / row.dense_bytes as f64),
        ),
    ];
    let failures = row
        .violations()
        .into_iter()
        .map(|v| format!("ledger_compression: {v}"))
        .collect();
    (result, failures)
}

/// Table 2 (Adam): scattered-tensor fused update vs contiguous.
/// "Baseline" here is the scattered layout — the row tracks how small
/// CoCoNet keeps the scattered-tensor overhead, so its speedup sits
/// just below 1.
fn tab2() -> ExperimentResult {
    let (scattered, contiguous) = experiments::table2(Optimizer::Adam);
    ExperimentResult::analytic("tab2_scattered_params", contiguous, scattered)
}

/// Table 4's first row (BERT 336M, Adam): the strongest non-CoCoNet
/// baseline vs CoCoNet's iteration time.
fn tab4() -> ExperimentResult {
    let sim = Simulator::new(MachineSpec::paper_testbed(), experiments::DP_RANKS, 1);
    let memory = MemoryModel::default();
    let cfg = ModelConfig::bert_336m();
    let est = |s: Strategy| {
        coconet_models::training::estimate_iteration(
            &sim,
            &memory,
            &cfg,
            Optimizer::Adam,
            s,
            experiments::DP_RANKS,
            8192,
        )
    };
    let coconet = est(Strategy::ALL[3]).expect("CoCoNet always trains");
    let best_baseline = Strategy::ALL[..3]
        .iter()
        .filter_map(|&s| est(s))
        .map(|e| e.total())
        .fold(f64::INFINITY, f64::min);
    ExperimentResult::analytic("tab4_bert_training", best_baseline, coconet.total())
}

/// One workload's pair of searches (invariant violations, if any, are
/// reported alongside by [`tab3_run`]).
struct Tab3Run {
    name: &'static str,
    baseline_s: f64,
    pruned: coconet_core::TuneReport,
    pruned_best: coconet_core::Candidate,
    exhaustive: coconet_core::TuneReport,
}

/// The Table 3 autotuner rows: each workload runs the pruned tuner and
/// the exhaustive reference on the same worker count
/// ([`TUNE_WORKERS`]), proving pruning changes nothing but the work
/// done — identical winner, strictly fewer configurations costed, and
/// (aggregated across the workloads, wall-clock being the one noisy
/// measurement) strictly less tuning time. Invariant violations are
/// returned alongside the rows rather than in place of them, so the
/// trajectory file is always written for diagnosis.
fn tab3_experiments(workloads: &[&str]) -> Result<(Vec<ExperimentResult>, Vec<String>), String> {
    let run_all = || -> Result<(Vec<Tab3Run>, Vec<String>), String> {
        let mut runs = Vec::new();
        let mut failures = Vec::new();
        for w in workloads {
            let (run, mut violations) = tab3_run(w)?;
            runs.push(run);
            failures.append(&mut violations);
        }
        Ok((runs, failures))
    };
    let wall = |runs: &[Tab3Run], f: fn(&Tab3Run) -> std::time::Duration| -> std::time::Duration {
        runs.iter().map(f).sum()
    };
    let (mut runs, mut gate_failures) = run_all()?;
    // Up to two retries of the wall-clock comparison; each keeps the
    // fastest timing seen per workload per mode (min-of-attempts
    // approximates the true cost — the counts and winner are
    // deterministic, so mixing attempts is sound). This keeps the gate
    // meaningful without letting one noisy scheduler hiccup on a
    // shared runner fail the job. Deterministic violations (winner
    // mismatch, no configuration savings) are not retried — they can
    // only repeat.
    if gate_failures.is_empty() {
        for _ in 0..2 {
            if wall(&runs, |r| r.pruned.elapsed) < wall(&runs, |r| r.exhaustive.elapsed) {
                break;
            }
            let (again, fresh_failures) = run_all()?;
            gate_failures.extend(fresh_failures);
            for (best, fresh) in runs.iter_mut().zip(again) {
                if fresh.pruned.elapsed < best.pruned.elapsed {
                    best.pruned = fresh.pruned;
                    best.pruned_best = fresh.pruned_best;
                }
                if fresh.exhaustive.elapsed < best.exhaustive.elapsed {
                    best.exhaustive = fresh.exhaustive;
                }
            }
        }
        let pruned_wall = wall(&runs, |r| r.pruned.elapsed);
        let exhaustive_wall = wall(&runs, |r| r.exhaustive.elapsed);
        if pruned_wall >= exhaustive_wall {
            gate_failures.push(format!(
                "pruned search was not faster in aggregate over {workloads:?}: \
                 {pruned_wall:?} vs exhaustive {exhaustive_wall:?}"
            ));
        }
    }
    let rows = runs
        .into_iter()
        .map(|run| ExperimentResult {
            name: run.name,
            baseline_s: run.baseline_s,
            coconet_s: run.pruned_best.time,
            schedules_explored: run.pruned.schedules_explored,
            configs_evaluated: run.pruned.configs_evaluated,
            tune_wall_ms: run.pruned.elapsed.as_secs_f64() * 1e3,
            extra: vec![
                ("winner".into(), Json::Str(run.pruned_best.label())),
                (
                    "configs_pruned".into(),
                    Json::Num(run.pruned.configs_pruned as f64),
                ),
                (
                    "exhaustive_configs_evaluated".into(),
                    Json::Num(run.exhaustive.configs_evaluated as f64),
                ),
                (
                    "exhaustive_tune_wall_ms".into(),
                    Json::Num(run.exhaustive.elapsed.as_secs_f64() * 1e3),
                ),
            ],
        })
        .collect();
    Ok((rows, gate_failures))
}

/// Runs one workload in both modes and returns the run plus any
/// violations of the deterministic invariants (winner identity,
/// strict configuration savings). Each mode runs three times keeping
/// the fastest wall-clock — the standard noise-robust benchmark
/// statistic; the winner and the configuration counts are identical
/// across repeats by construction.
fn tab3_run(workload: &str) -> Result<(Tab3Run, Vec<String>), String> {
    let (program, binding, sim) = experiments::autotune_setup(workload);

    let run = |tuner: &Autotuner| {
        let mut fastest: Option<coconet_core::TuneReport> = None;
        for _ in 0..3 {
            let report = tuner
                .tune(&program, &binding, &sim)
                .map_err(|e| format!("{workload}: tuning failed: {e}"))?;
            if fastest.as_ref().is_none_or(|f| report.elapsed < f.elapsed) {
                fastest = Some(report);
            }
        }
        let report = fastest.expect("three runs happened");
        let best = report
            .best()
            .map_err(|e| format!("{workload}: {e}"))?
            .clone();
        Ok::<_, String>((report, best))
    };
    let (pruned, pruned_best) = run(&Autotuner::default().with_workers(TUNE_WORKERS))?;
    let (exhaustive, exhaustive_best) =
        run(&Autotuner::default().exhaustive().with_workers(TUNE_WORKERS))?;

    let mut violations = Vec::new();
    // The winner must be identical — pruning is a pure work-saver.
    if pruned_best.schedule != exhaustive_best.schedule
        || pruned_best.config != exhaustive_best.config
    {
        violations.push(format!(
            "{workload}: pruned winner {:?} @ {} != exhaustive winner {:?} @ {}",
            pruned_best.schedule,
            pruned_best.config,
            exhaustive_best.schedule,
            exhaustive_best.config,
        ));
    }
    if pruned.configs_evaluated >= exhaustive.configs_evaluated {
        violations.push(format!(
            "{workload}: pruned search costed {} configs, exhaustive {} — pruning saved nothing",
            pruned.configs_evaluated, exhaustive.configs_evaluated,
        ));
    }

    let baseline = exhaustive
        .candidates
        .iter()
        .find(|c| c.schedule.is_empty())
        .ok_or_else(|| format!("{workload}: exhaustive search lost the baseline schedule"))?
        .time;

    let name: &'static str = match workload {
        "adam" => "tab3_autotuner_adam",
        "lamb" => "tab3_autotuner_lamb",
        "model-parallel" => "tab3_autotuner_model_parallel",
        "pipeline" => "tab3_autotuner_pipeline",
        other => return Err(format!("unknown workload {other}")),
    };
    Ok((
        Tab3Run {
            name,
            baseline_s: baseline,
            pruned,
            pruned_best,
            exhaustive,
        },
        violations,
    ))
}

/// Renders the results as the `BENCH_coconet.json` document.
pub fn to_json(results: &[ExperimentResult]) -> Json {
    Json::Obj(
        results
            .iter()
            .map(|r| {
                let mut row = vec![
                    ("baseline_s".to_string(), Json::Num(r.baseline_s)),
                    ("coconet_s".to_string(), Json::Num(r.coconet_s)),
                    ("speedup".to_string(), Json::Num(r.speedup())),
                    (
                        "schedules_explored".to_string(),
                        Json::Num(r.schedules_explored as f64),
                    ),
                    (
                        "configs_evaluated".to_string(),
                        Json::Num(r.configs_evaluated as f64),
                    ),
                    ("tune_wall_ms".to_string(), Json::Num(r.tune_wall_ms)),
                ];
                row.extend(r.extra.iter().cloned());
                (r.name.to_string(), Json::Obj(row))
            })
            .collect(),
    )
}

/// Compares a fresh trajectory against the committed baseline: every
/// experiment present in the baseline must still exist and keep its
/// speedup within `tolerance` (e.g. `0.10` = may lose up to 10 %).
/// Wall-clock fields are intentionally not compared — only the
/// schedule-quality ratios are stable across machines.
///
/// # Errors
///
/// Returns the list of regressions, one message per failing
/// experiment, or a message describing a malformed document.
pub fn regression_check(current: &Json, baseline: &Json, tolerance: f64) -> Result<(), String> {
    let baseline_rows = baseline
        .entries()
        .ok_or("baseline document is not a JSON object")?;
    let mut failures = Vec::new();
    for (name, row) in baseline_rows {
        let want = row
            .get("speedup")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("baseline `{name}` has no numeric speedup"))?;
        let Some(got) = current.get(name).and_then(|r| r.get("speedup")) else {
            failures.push(format!(
                "experiment `{name}` disappeared from the trajectory"
            ));
            continue;
        };
        let got = got
            .as_f64()
            .ok_or_else(|| format!("current `{name}` has no numeric speedup"))?;
        if got < want * (1.0 - tolerance) {
            failures.push(format!(
                "`{name}` speedup regressed: {got:.3}x vs baseline {want:.3}x \
                 (tolerance {:.0} %)",
                tolerance * 100.0
            ));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_trajectory_covers_the_headline_experiments() {
        let trajectory = collect(true).expect("trajectory collects");
        assert!(
            trajectory.gate_failures.is_empty(),
            "tuner gate failed: {:?}",
            trajectory.gate_failures
        );
        let results = trajectory.results;
        assert!(results.len() >= 6, "only {} experiments", results.len());
        let doc = to_json(&results);
        let text = doc.render_pretty();
        let back = Json::parse(&text).expect("self-parse");
        assert_eq!(doc, back);
        for r in &results {
            let row = back.get(r.name).expect("row present");
            for field in [
                "baseline_s",
                "coconet_s",
                "speedup",
                "schedules_explored",
                "configs_evaluated",
                "tune_wall_ms",
            ] {
                assert!(
                    row.get(field).and_then(Json::as_f64).is_some(),
                    "{}.{field} missing",
                    r.name
                );
            }
            assert!(r.baseline_s > 0.0 && r.coconet_s > 0.0);
        }
        // The algorithm-ablation rows exhibit the size crossover: tree
        // wins the small message, ring stays optimal at the large one.
        let small = back.get("ablation_algo_small").expect("small algo row");
        assert_eq!(
            small.get("winner").and_then(Json::as_str),
            Some("tree"),
            "small-message winner"
        );
        assert!(small.get("speedup").and_then(Json::as_f64).unwrap() > 1.0);
        let large = back.get("ablation_algo_large").expect("large algo row");
        assert_eq!(
            large.get("winner").and_then(Json::as_str),
            Some("ring"),
            "large-message winner"
        );
        assert_eq!(large.get("speedup").and_then(Json::as_f64), Some(1.0));
        // Every size row carries the fourth (switch) column.
        assert!(large.get("switch_s").and_then(Json::as_f64).unwrap() > 0.0);
        // The worker-count ablation exhibits the in-network crossover:
        // the ring wins the 2-worker group, the switch wins at 32.
        let sw = back.get("ablation_switch_workers").expect("switch row");
        assert_eq!(sw.get("winner_2").and_then(Json::as_str), Some("ring"));
        assert_eq!(sw.get("winner_32").and_then(Json::as_str), Some("switch"));
        assert!(
            sw.get("speedup").and_then(Json::as_f64).unwrap() > 1.0,
            "switch must beat every host-side algorithm at 32 workers"
        );
        // The measured switch-ledger row: exactly 2·n quantization
        // words per worker, identical at both group sizes.
        let sledger = back.get("ledger_switch").expect("switch ledger row");
        assert_eq!(sledger.get("speedup").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            sledger.get("small_group_bytes").and_then(Json::as_f64),
            sledger.get("analytic_bytes").and_then(Json::as_f64),
        );
        assert_eq!(
            sledger.get("bytes_sent").and_then(Json::as_f64).unwrap() * 2.0,
            sledger
                .get("analytic_bytes")
                .and_then(Json::as_f64)
                .unwrap(),
        );
        // The measured zero-copy rows: the substrate beats the
        // deep-copy reconstruction, and the ledger matches the
        // analytic wire volume exactly (speedup is bytes/bytes = 1).
        let micro = back.get("microbench_zero_copy").expect("microbench row");
        assert!(
            micro.get("speedup").and_then(Json::as_f64).unwrap() > 1.0,
            "zero-copy runtime must beat the deep-copy baseline"
        );
        assert!(
            micro
                .get("measured_speedup")
                .and_then(Json::as_f64)
                .unwrap()
                >= micro.get("speedup").and_then(Json::as_f64).unwrap()
        );
        assert_eq!(
            micro.get("elems").and_then(Json::as_f64),
            Some(crate::zerocopy::ZC_ELEMS as f64)
        );
        let ledger = back.get("ledger_allreduce").expect("ledger row");
        assert_eq!(ledger.get("speedup").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            ledger.get("bytes_sent").and_then(Json::as_f64),
            ledger.get("analytic_bytes").and_then(Json::as_f64),
        );
        assert_eq!(ledger.get("cow_bytes").and_then(Json::as_f64), Some(0.0));
        // The measured kernel-engine row: the monomorphized loops beat
        // the per-element dispatch baseline, and the GB/s columns are
        // present and ordered the same way as the walls.
        let kernel = back.get("kernel_throughput").expect("kernel row");
        assert!(
            kernel.get("speedup").and_then(Json::as_f64).unwrap() > 1.0,
            "kernel engine must beat the dispatch baseline"
        );
        assert!(
            kernel
                .get("measured_speedup")
                .and_then(Json::as_f64)
                .unwrap()
                >= kernel.get("speedup").and_then(Json::as_f64).unwrap()
        );
        assert!(
            kernel.get("mono_gb_s").and_then(Json::as_f64).unwrap()
                > kernel.get("dispatch_gb_s").and_then(Json::as_f64).unwrap()
        );
        assert_eq!(
            kernel.get("elems").and_then(Json::as_f64),
            Some(crate::kernelbench::KB_ELEMS as f64)
        );
        // The channel-striping sweep: every width byte-exact against
        // the analytic ring volume and bit-identical to one channel.
        let ch = back.get("ablation_channels").expect("channels row");
        assert_eq!(ch.get("bit_identical").and_then(Json::as_str), Some("yes"));
        for width in crate::striping::CH_WIDTHS {
            assert_eq!(
                ch.get(&format!("channels_{width}_bytes"))
                    .and_then(Json::as_f64),
                ch.get("analytic_bytes").and_then(Json::as_f64),
                "width {width} wire volume"
            );
            assert!(
                ch.get(&format!("channels_{width}_s"))
                    .and_then(Json::as_f64)
                    .unwrap()
                    > 0.0
            );
        }
        assert_eq!(ch.get("speedup").and_then(Json::as_f64), Some(1.0));
        // The wire-compression ablation rows: dense wins the
        // latency-bound small regime, the sparse wire wins large.
        let small = back
            .get("compression_ablation_small")
            .expect("compression small row");
        assert_eq!(small.get("winner").and_then(Json::as_str), Some("dense"));
        assert_eq!(small.get("speedup").and_then(Json::as_f64), Some(1.0));
        let large = back
            .get("compression_ablation_large")
            .expect("compression large row");
        assert!(large
            .get("winner")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("topk"));
        assert!(large.get("speedup").and_then(Json::as_f64).unwrap() > 2.0);
        // 100 ‰ has switched over to the dense wire: identical time.
        assert_eq!(
            large.get("topk100_s").and_then(Json::as_f64),
            large.get("dense_s").and_then(Json::as_f64),
        );
        // The steady-state rows: the costed barrier-free schedule
        // beats the barriered loop (bounded by the 2x pipelining
        // ceiling), and the measured witnesses row moved exactly its
        // analytic volume on every priority class.
        let steady = back.get("steady_state_stream").expect("steady row");
        let speedup = steady.get("speedup").and_then(Json::as_f64).unwrap();
        assert!(
            speedup > 1.0 && speedup <= 2.0,
            "steady-state speedup {speedup}"
        );
        assert!(
            steady
                .get("streamed_iters_per_sec")
                .and_then(Json::as_f64)
                .unwrap()
                > steady
                    .get("barriered_iters_per_sec")
                    .and_then(Json::as_f64)
                    .unwrap(),
            "barrier-free iterations/sec must beat barriered"
        );
        let pledger = back.get("ledger_priority_stream").expect("priority ledger");
        assert_eq!(pledger.get("speedup").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            pledger.get("params_match").and_then(Json::as_str),
            Some("yes")
        );
        // The traced overlap row: the priority schedule hides strictly
        // more communication than the barriered one, the drift report
        // aligned all sixteen plan steps, and the row's speedup is
        // pinned at 1.0 (the hidden fraction is machine-dependent and
        // must not be diffed by the regression gate).
        let ot = back.get("overlap_trace").expect("overlap trace row");
        assert_eq!(ot.get("speedup").and_then(Json::as_f64), Some(1.0));
        let hid_p = ot
            .get("hidden_frac_priority")
            .and_then(Json::as_f64)
            .unwrap();
        let hid_b = ot
            .get("hidden_frac_barriered")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(
            hid_p > hid_b,
            "priority must hide more comm than barriered: {hid_p} vs {hid_b}"
        );
        assert!(hid_p > 0.0);
        let drift_steps = ot.get("drift_steps").expect("drift steps");
        assert!(
            matches!(drift_steps, Json::Arr(steps) if steps.len() == 16),
            "all sixteen plan steps align"
        );
        assert!(
            ot.get("drift_mean_abs_rel_err")
                .and_then(Json::as_f64)
                .unwrap()
                >= 0.0
        );
        // The measured ledger-compression row: the gated speedup IS the
        // volume reduction, and FP16 is exactly half of dense.
        let comp = back.get("ledger_compression").expect("ledger row");
        assert!(comp.get("speedup").and_then(Json::as_f64).unwrap() > 25.0);
        assert_eq!(
            comp.get("fp16_bytes").and_then(Json::as_f64).unwrap() * 2.0,
            comp.get("dense_bytes").and_then(Json::as_f64).unwrap(),
        );
        // The plan-cache row: the gated speedup is pinned at the 50x
        // floor, the hit costed nothing, and the warm winner is
        // bit-identical to the cold one.
        let pc = back.get("plan_cache").expect("plan cache row");
        assert_eq!(
            pc.get("speedup").and_then(Json::as_f64),
            Some(crate::plancache::PLAN_CACHE_MIN_SPEEDUP)
        );
        assert!(
            pc.get("measured_speedup").and_then(Json::as_f64).unwrap()
                >= crate::plancache::PLAN_CACHE_MIN_SPEEDUP
        );
        assert_eq!(
            pc.get("warm_configs_evaluated").and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(
            pc.get("cold_configs_evaluated")
                .and_then(Json::as_f64)
                .unwrap()
                > 0.0
        );
        assert_eq!(pc.get("bit_identical").and_then(Json::as_str), Some("yes"));
        assert_eq!(pc.get("cache_misses").and_then(Json::as_f64), Some(1.0));
        // The multi-tenant row: consolidation beats serial, and SRPT
        // beats fair sharing on mean completion.
        let mt = back.get("multitenant_throughput").expect("multitenant row");
        assert!(mt.get("speedup").and_then(Json::as_f64).unwrap() > 1.0);
        assert_eq!(mt.get("jobs").and_then(Json::as_f64), Some(4.0));
        assert!(
            mt.get("aware_mean_completion_s")
                .and_then(Json::as_f64)
                .unwrap()
                < mt.get("fifo_mean_completion_s")
                    .and_then(Json::as_f64)
                    .unwrap()
        );
        // The tuner rows carry the pruned-vs-exhaustive evidence.
        let adam = back.get("tab3_autotuner_adam").expect("adam row");
        let costed = adam
            .get("configs_evaluated")
            .and_then(Json::as_f64)
            .unwrap();
        let exhaustive = adam
            .get("exhaustive_configs_evaluated")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(
            costed < exhaustive,
            "pruning saved nothing: {costed} vs {exhaustive}"
        );
    }

    #[test]
    fn regression_check_flags_drops_and_disappearances() {
        let baseline =
            Json::parse(r#"{"a": {"speedup": 2.0}, "b": {"speedup": 1.5}, "c": {"speedup": 1.0}}"#)
                .unwrap();
        let current = Json::parse(r#"{"a": {"speedup": 1.5}, "c": {"speedup": 0.95}}"#).unwrap();
        let err = regression_check(&current, &baseline, 0.10).unwrap_err();
        assert!(err.contains("`a` speedup regressed"), "{err}");
        assert!(err.contains("`b` disappeared"), "{err}");
        assert!(!err.contains("`c`"), "c is within tolerance: {err}");
        // Identical trajectories pass.
        regression_check(&baseline, &baseline, 0.10).unwrap();
    }
}
