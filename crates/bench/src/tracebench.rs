//! The traced overlap experiment (`overlap_trace`): runs the
//! steady-state training loop through the [`StreamExecutor`] under the
//! barriered and the barrier-free schedule *with span recording on*,
//! and distills the traces into what the row checks:
//!
//! - the **overlap profile** — the fraction of collective in-flight
//!   time hidden under compute spans, per schedule. The barriered loop
//!   services every hop inside the end-of-iteration drain (no compute
//!   runs concurrently), while the priority stream keeps jobs in
//!   flight under the next iteration's forward — so the hidden
//!   fraction under [`CommSched::Priority`] must strictly exceed
//!   [`CommSched::Barriered`]'s. The fractions themselves depend on
//!   the host: they are readings, only the ordering is checked;
//! - the **sim-vs-measured drift report** — the simulator's per-step
//!   predictions for the same plan (`bwd{l}` backward kernels,
//!   `grad{l}` gradient AllReduces) aligned against traced actuals
//!   (mean backward-span duration per layer; mean first-hop-to-
//!   completion in-flight time per layer's job stream). Every step
//!   must align — an unmatched label means the trace lost a step. The
//!   drift itself is a reading;
//! - **well-formedness** — both traces must have properly nested
//!   spans, per-thread monotone records, every scheduler enqueue
//!   matched by a completion, and no dropped event; and the priority
//!   run's Chrome trace-event export (Perfetto-loadable, `report
//!   --trace-out`) must have the trace-event structure
//!   ([`chrome_trace_check`]).
//!
//! Tracing is process-global, so the experiment serializes behind a
//! gate and filters the snapshot down to the rank threads it spawned —
//! other traced work sharing the process (the test harness runs suites
//! concurrently) cannot perturb the analysis.

use std::collections::HashMap;
use std::sync::Mutex;

use coconet_compress::WireFormat;
use coconet_core::CommSched;
use coconet_runtime::{run_ranks, Group, StreamExecutor};
use coconet_sim::Simulator;
use coconet_tensor::Tensor;
use coconet_topology::MachineSpec;
use coconet_trace as trace;
use coconet_trace::drift::{drift_report, DriftReport};
use coconet_trace::{Event, EventKind, JOB_NONE};

use crate::json::Json;
use crate::steady::{
    apply_update, forward_pass, init_param, local_grad, steady_plan, STEADY_ITERS, STEADY_LAYERS,
    STEADY_MEASURED_ELEMS, STEADY_RANKS,
};
use crate::trajectory::{Check, Operand};

/// Serializes traced sections within the process: the enable flag is
/// global, and two interleaved experiments would see each other's
/// clears.
static ENABLE_GATE: Mutex<()> = Mutex::new(());

/// One schedule's traced run, distilled.
#[derive(Clone, Debug)]
pub struct TraceRun {
    /// Fraction of collective in-flight time hidden under compute.
    pub hidden_fraction: f64,
    /// Events recorded on the run's rank threads.
    pub events: usize,
    /// Global dropped-event count over the run's window.
    pub dropped: u64,
    /// The well-formedness verdict for the run's trace.
    pub wellformed: Result<(), String>,
}

/// The `overlap_trace` experiment outcome.
#[derive(Clone, Debug)]
pub struct TraceRow {
    /// Total gradient elements per iteration.
    pub elems: usize,
    /// Rank threads.
    pub ranks: usize,
    /// Layers (= priority classes = job streams).
    pub layers: usize,
    /// Iterations per schedule.
    pub iters: u64,
    /// The barriered run's profile.
    pub barriered: TraceRun,
    /// The barrier-free run's profile.
    pub priority: TraceRun,
    /// Sim-vs-measured per-step drift, from the priority run.
    pub drift: DriftReport,
    /// The priority run's Chrome trace-event JSON.
    pub chrome_json: String,
    /// [`chrome_trace_check`]'s verdict on it.
    pub chrome_export: Result<String, String>,
}

impl TraceRow {
    /// The trace gates as checks: the priority schedule hides strictly
    /// more communication than the barriered one (so a nonzero
    /// amount), every simulated step aligns with a measured one,
    /// nothing was dropped, and both traces and the Chrome export are
    /// well formed.
    pub fn checks(&self) -> Vec<Check> {
        let runs = [&self.barriered, &self.priority];
        vec![
            Check::lt(
                "priority_hides_more_comm_than_barriered",
                Operand::Host(self.barriered.hidden_fraction),
                Operand::Host(self.priority.hidden_fraction),
            ),
            Check::eq(
                "sim_steps_aligned_with_the_trace",
                self.drift.steps.len(),
                2 * self.layers,
            ),
            Check::eq(
                "sim_steps_unmatched_in_the_trace",
                self.drift.unmatched.len(),
                0usize,
            ),
            Check::eq(
                "dropped_events",
                self.barriered.dropped + self.priority.dropped,
                0u64,
            ),
            Check::eq(
                "runs_without_events",
                runs.iter().filter(|r| r.events == 0).count(),
                0usize,
            ),
            Check::eq(
                "malformed_traces",
                runs.iter().filter(|r| r.wellformed.is_err()).count(),
                0usize,
            ),
            Check::eq(
                "malformed_chrome_exports",
                usize::from(self.chrome_export.is_err()),
                0usize,
            ),
        ]
    }

    /// What the run measured on this host, for `report` to print: the
    /// hidden fractions, the drift summary and per-step drift, event
    /// counts, and why a trace or export is malformed if one is.
    pub fn readings(&self) -> Vec<(String, String)> {
        let mut out = vec![
            (
                "hidden fraction barriered".to_string(),
                format!("{:.3}", self.barriered.hidden_fraction),
            ),
            (
                "hidden fraction priority".into(),
                format!("{:.3}", self.priority.hidden_fraction),
            ),
            (
                "events barriered / priority".into(),
                format!("{} / {}", self.barriered.events, self.priority.events),
            ),
            (
                "drift scale / mean / max rel err".into(),
                format!(
                    "{:.1}x / {:.2} / {:.2}",
                    self.drift.scale,
                    self.drift.mean_abs_rel_err(),
                    self.drift.max_abs_rel_err()
                ),
            ),
        ];
        for s in &self.drift.steps {
            out.push((
                format!("drift {}", s.label),
                format!(
                    "predicted {:.3e} s, measured {:.3e} s, rel err {:.2}",
                    s.predicted_s, s.measured_s, s.rel_err
                ),
            ));
        }
        for (label, run) in [("barriered", &self.barriered), ("priority", &self.priority)] {
            if let Err(e) = &run.wellformed {
                out.push((format!("{label} trace malformed"), e.clone()));
            }
        }
        match &self.chrome_export {
            Ok(summary) => out.push(("chrome export".into(), summary.clone())),
            Err(e) => out.push(("chrome export malformed".into(), e.clone())),
        }
        out
    }
}

/// Checks a Chrome trace-event document's structure: a root object
/// whose `traceEvents` is a non-empty array in which every event
/// carries a string `ph` and `name`, numeric `pid` and `tid`, a
/// numeric `ts` on every non-metadata phase, and a numeric `dur` on
/// every `"X"` complete event. At least one complete event and one
/// instant must be present (a trace with only metadata rows means the
/// recorder captured nothing). Returns a one-line summary.
///
/// # Errors
///
/// Returns what is wrong with the first offending event.
pub fn chrome_trace_check(text: &str) -> Result<String, String> {
    let doc = Json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        return Err("root object has no `traceEvents` array".into());
    };
    let (mut complete, mut instants, mut metadata) = (0usize, 0usize, 0usize);
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: no string `ph`"))?;
        ev.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: no string `name`"))?;
        let numeric = |field: &str| {
            ev.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("event {i} (`{ph}`): no numeric `{field}`"))
        };
        numeric("pid")?;
        numeric("tid")?;
        match ph {
            "M" => metadata += 1,
            "X" => {
                numeric("ts")?;
                numeric("dur")?;
                complete += 1;
            }
            "i" => {
                numeric("ts")?;
                instants += 1;
            }
            other => return Err(format!("event {i}: unexpected phase `{other}`")),
        }
    }
    if complete == 0 {
        return Err("no complete (`X`) span events in the trace".into());
    }
    if instants == 0 {
        return Err("no instant (`i`) events in the trace".into());
    }
    Ok(format!(
        "{complete} spans, {instants} instants, {metadata} metadata rows"
    ))
}

/// Runs the steady-state loop under `sched` with tracing on and
/// returns the events recorded by the spawned rank threads, plus the
/// global drop count over the window.
fn traced_run(sched: CommSched) -> (Vec<Event>, u64) {
    let layer_elems = STEADY_MEASURED_ELEMS / STEADY_LAYERS;
    trace::clear();
    trace::set_enabled(true);
    let rank_threads = run_ranks(STEADY_RANKS, move |comm| {
        let thread = trace::thread_id();
        let rank = comm.rank();
        let params: Vec<Tensor> = (0..STEADY_LAYERS)
            .map(|l| init_param(l, layer_elems))
            .collect();
        let mut exec = StreamExecutor::new(
            Group {
                start: 0,
                size: STEADY_RANKS,
            },
            params,
            sched,
            WireFormat::Dense,
        );
        let mut sink = 0.0f32;
        exec.run_iterations(
            &comm,
            STEADY_ITERS,
            |_, _, p| sink += forward_pass(p),
            move |l, iter, p| local_grad(l, iter, rank, p),
            |_, p, g| apply_update(p, g),
        );
        assert!(sink.is_finite());
        thread
    });
    trace::set_enabled(false);
    let dropped = trace::dropped_events();
    let events: Vec<Event> = trace::take_snapshot()
        .into_iter()
        .filter(|e| rank_threads.contains(&e.thread))
        .collect();
    trace::clear();
    (events, dropped)
}

/// Distills one traced run into its overlap profile.
fn profile(events: Vec<Event>, dropped: u64) -> (TraceRun, Vec<Event>) {
    let summary = trace::overlap::hidden_comm_fraction(&events);
    let run = TraceRun {
        hidden_fraction: summary.hidden_fraction(),
        events: events.len(),
        dropped,
        wellformed: trace::wellformed::check_well_formed(&events),
    };
    (run, events)
}

/// Derives the measured per-step timeline from a priority-run trace,
/// using the same labels as the simulator's steady-state plan:
///
/// - `bwd{l}` — the mean duration of layer `l`'s backward compute
///   spans (label `"grad"`, `a` = layer);
/// - `grad{l}` — the mean in-flight time of layer `l`'s gradient jobs
///   (first tagged hop to scheduler completion, per rank; job ids are
///   `iter * layers + layer`).
fn measured_steps(events: &[Event]) -> Vec<(String, f64)> {
    let layers = STEADY_LAYERS as u64;
    let mut bwd_ns = [(0u64, 0u64); STEADY_LAYERS];
    let mut first_hop: HashMap<(u32, u64), u64> = HashMap::new();
    let mut complete: HashMap<(u32, u64), u64> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::Compute if e.label == "grad" && (e.a as usize) < STEADY_LAYERS => {
                let (sum, n) = &mut bwd_ns[e.a as usize];
                *sum += e.dur_ns;
                *n += 1;
            }
            EventKind::Hop if e.a != JOB_NONE => {
                first_hop
                    .entry((e.rank, e.a))
                    .and_modify(|t| *t = (*t).min(e.ts_ns))
                    .or_insert(e.ts_ns);
            }
            EventKind::SchedComplete => {
                complete.insert((e.rank, e.a), e.ts_ns);
            }
            _ => {}
        }
    }
    let mut grad_ns = [(0u64, 0u64); STEADY_LAYERS];
    for ((rank, job), start) in &first_hop {
        if let Some(end) = complete.get(&(*rank, *job)) {
            let (sum, n) = &mut grad_ns[(job % layers) as usize];
            *sum += end.saturating_sub(*start);
            *n += 1;
        }
    }
    let mean_s = |(sum, n): (u64, u64)| {
        if n == 0 {
            None
        } else {
            Some(sum as f64 / n as f64 / 1e9)
        }
    };
    let mut out = Vec::new();
    for (l, &acc) in bwd_ns.iter().enumerate() {
        if let Some(s) = mean_s(acc) {
            out.push((format!("bwd{l}"), s));
        }
    }
    for (l, &acc) in grad_ns.iter().enumerate() {
        if let Some(s) = mean_s(acc) {
            out.push((format!("grad{l}"), s));
        }
    }
    out
}

/// Runs the traced overlap experiment: one barriered and one
/// barrier-free steady-state stream with recording on, profiled for
/// hidden-communication fraction, checked for well-formedness, and
/// aligned against the simulator's per-step predictions.
pub fn overlap_trace_bench() -> TraceRow {
    let _gate = ENABLE_GATE.lock().expect("trace gate poisoned");
    let (b_events, b_dropped) = traced_run(CommSched::Barriered);
    let (barriered, _) = profile(b_events, b_dropped);
    let (p_events, p_dropped) = traced_run(CommSched::Priority);
    let (priority, p_events) = profile(p_events, p_dropped);

    let sim = Simulator::new(MachineSpec::paper_testbed(), STEADY_RANKS, 1);
    let plan = steady_plan(STEADY_MEASURED_ELEMS, CommSched::Priority);
    let predicted: Vec<(String, f64)> = sim
        .time_plan(&plan)
        .steps
        .iter()
        .map(|s| (s.label.clone(), s.seconds))
        .collect();
    let drift = drift_report(&predicted, &measured_steps(&p_events));
    let chrome_json = trace::chrome::chrome_trace_json(&p_events);

    TraceRow {
        elems: STEADY_MEASURED_ELEMS,
        ranks: STEADY_RANKS,
        layers: STEADY_LAYERS,
        iters: STEADY_ITERS,
        barriered,
        priority,
        drift,
        chrome_export: chrome_trace_check(&chrome_json),
        chrome_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced experiment upholds every check: priority hides
    /// strictly more communication than barriered, all sixteen plan
    /// steps align with measured actuals, both traces and the Chrome
    /// export are well formed.
    #[test]
    fn traced_overlap_gates_hold() {
        let row = overlap_trace_bench();
        let failed: Vec<_> = row.checks().into_iter().filter(|c| !c.holds()).collect();
        assert_eq!(failed, Vec::new());
        assert!(row.priority.hidden_fraction > row.barriered.hidden_fraction);
        assert_eq!(row.drift.steps.len(), 2 * STEADY_LAYERS);
        assert!(row.drift.scale > 0.0);
        // The Chrome export is parseable, non-trivial JSON.
        let doc = Json::parse(&row.chrome_json).expect("chrome export parses");
        let events = doc.get("traceEvents").expect("traceEvents present");
        assert!(matches!(events, Json::Arr(a) if !a.is_empty()));
    }

    /// The structure check names what is wrong with an export.
    #[test]
    fn chrome_trace_check_rejects_broken_exports() {
        let ev = |ph: &str, extra: &str| {
            format!(r#"{{"ph": "{ph}", "name": "n", "pid": 0, "tid": 1{extra}}}"#)
        };
        let doc = |events: &[String]| format!(r#"{{"traceEvents": [{}]}}"#, events.join(", "));
        let span = ev("X", r#", "ts": 1, "dur": 2"#);
        let instant = ev("i", r#", "ts": 3"#);
        let ok = doc(&[ev("M", ""), span.clone(), instant.clone()]);
        assert_eq!(
            chrome_trace_check(&ok).unwrap(),
            "1 spans, 1 instants, 1 metadata rows"
        );
        let err = |text: String| chrome_trace_check(&text).unwrap_err();
        assert!(err("[]".into()).contains("no `traceEvents`"));
        assert!(err(doc(&[])).contains("no complete"));
        assert!(err(doc(std::slice::from_ref(&span))).contains("no instant"));
        assert!(err(doc(&[ev("X", r#", "ts": 1"#), instant.clone()])).contains("`dur`"));
        assert!(err(doc(&[ev("B", ""), span, instant])).contains("unexpected phase `B`"));
    }
}
