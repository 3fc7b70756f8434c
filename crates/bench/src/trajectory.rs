//! `BENCH_coconet.json`: the reproducible record of what the cost model
//! predicts and what the runtime provably does. Every row is one of two
//! kinds —
//!
//! - **`costed`**: a paper figure or table priced by the simulator on
//!   the DGX-2 preset — `baseline_s`, `coconet_s`, `speedup`;
//! - **`invariant`**: named exact checks, `lhs == rhs` or `lhs < rhs`,
//!   over bytes, counts and bit-identity, read off a real run on rank
//!   threads. No `speedup`: nothing is being priced.
//!
//! A costed row may carry checks too (a crossover that must not
//! collapse). Nothing that depends on the machine or on thread timing
//! is written: such [`Row::readings`] are printed by `report`, and an
//! operand of that sort ([`Operand::Host`]) is evaluated but left out
//! of the file. Wall-clocks are `benchmark/`'s job. The file is
//! therefore the same on every run, and the gate is equality
//! ([`check_against`]), not a tolerance.
//!
//! ```json
//! {
//!   "fig1_overlap": {
//!     "kind": "costed",
//!     "baseline_s": 0.0099, "coconet_s": 0.0062, "speedup": 1.58
//!   },
//!   "ledger_priority_stream": {
//!     "kind": "invariant",
//!     "elems": 262144,
//!     "checks": [
//!       { "name": "class0_bytes_sent", "lhs": 917504, "rel": "==", "rhs": 917504 }
//!     ]
//!   }
//! }
//! ```

use coconet_core::Autotuner;
use coconet_models::Optimizer;

use crate::experiments;
use crate::json::Json;

/// What a row records.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// A schedule pair priced by the simulator, seconds.
    Costed {
        /// Baseline schedule time.
        baseline_s: f64,
        /// CoCoNet's best schedule time.
        coconet_s: f64,
    },
    /// Exact checks only.
    Invariant,
}

/// How a check compares its operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rel {
    /// `lhs == rhs`.
    Eq,
    /// `lhs < rhs`.
    Lt,
}

/// One side of a check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Operand {
    /// Reproducible: written to the file.
    Exact(f64),
    /// Depends on the machine or on thread timing: evaluated and
    /// printed, never written.
    Host(f64),
}

impl Operand {
    fn value(self) -> f64 {
        match self {
            Operand::Exact(v) | Operand::Host(v) => v,
        }
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Operand {
        Operand::Exact(v)
    }
}

impl From<u64> for Operand {
    fn from(v: u64) -> Operand {
        Operand::Exact(v as f64)
    }
}

impl From<usize> for Operand {
    fn from(v: usize) -> Operand {
        Operand::Exact(v as f64)
    }
}

/// One named relation a row asserts. A check that does not hold fails
/// the `report` run.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// What is being asserted.
    pub name: String,
    /// Left operand.
    pub lhs: Operand,
    /// The relation.
    pub rel: Rel,
    /// Right operand.
    pub rhs: Operand,
}

impl Check {
    /// `lhs == rhs`.
    pub fn eq(name: impl Into<String>, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Check {
        Check {
            name: name.into(),
            lhs: lhs.into(),
            rel: Rel::Eq,
            rhs: rhs.into(),
        }
    }

    /// `lhs < rhs`.
    pub fn lt(name: impl Into<String>, lhs: impl Into<Operand>, rhs: impl Into<Operand>) -> Check {
        Check {
            rel: Rel::Lt,
            ..Check::eq(name, lhs, rhs)
        }
    }

    /// Whether the relation holds.
    pub fn holds(&self) -> bool {
        match self.rel {
            Rel::Eq => self.lhs.value() == self.rhs.value(),
            Rel::Lt => self.lhs.value() < self.rhs.value(),
        }
    }

    fn rel_str(&self) -> &'static str {
        match self.rel {
            Rel::Eq => "==",
            Rel::Lt => "<",
        }
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![("name".to_string(), Json::Str(self.name.clone()))];
        if let Operand::Exact(v) = self.lhs {
            fields.push(("lhs".into(), Json::Num(v)));
        }
        fields.push(("rel".into(), Json::Str(self.rel_str().into())));
        if let Operand::Exact(v) = self.rhs {
            fields.push(("rhs".into(), Json::Num(v)));
        }
        Json::Obj(fields)
    }
}

/// One row of the file.
#[derive(Clone, Debug)]
pub struct Row {
    /// Stable experiment key (JSON object key).
    pub name: &'static str,
    /// Costed or invariant.
    pub kind: Kind,
    /// Reproducible context, written after the kind's own fields.
    pub fields: Vec<(String, Json)>,
    /// The relations the row asserts.
    pub checks: Vec<Check>,
    /// Machine- or timing-dependent `(label, value)` readings: printed
    /// by `report`, never written.
    pub readings: Vec<(String, String)>,
}

impl Row {
    fn new(name: &'static str, kind: Kind) -> Row {
        Row {
            name,
            kind,
            fields: Vec::new(),
            checks: Vec::new(),
            readings: Vec::new(),
        }
    }

    fn costed(name: &'static str, baseline_s: f64, coconet_s: f64) -> Row {
        Row::new(
            name,
            Kind::Costed {
                baseline_s,
                coconet_s,
            },
        )
    }

    fn num(mut self, key: &str, value: f64) -> Row {
        self.fields.push((key.into(), Json::Num(value)));
        self
    }

    fn text(mut self, key: &str, value: impl Into<String>) -> Row {
        self.fields.push((key.into(), Json::Str(value.into())));
        self
    }

    fn to_json(&self) -> Json {
        let mut row = match self.kind {
            Kind::Costed {
                baseline_s,
                coconet_s,
            } => vec![
                ("kind".to_string(), Json::Str("costed".into())),
                ("baseline_s".into(), Json::Num(baseline_s)),
                ("coconet_s".into(), Json::Num(coconet_s)),
                ("speedup".into(), Json::Num(baseline_s / coconet_s)),
            ],
            Kind::Invariant => vec![("kind".to_string(), Json::Str("invariant".into()))],
        };
        row.extend(self.fields.iter().cloned());
        if !self.checks.is_empty() {
            row.push((
                "checks".into(),
                Json::Arr(self.checks.iter().map(Check::to_json).collect()),
            ));
        }
        Json::Obj(row)
    }
}

/// Everything one `report` run produced.
#[derive(Clone, Debug)]
pub struct Trajectory {
    /// All rows, in emission order.
    pub rows: Vec<Row>,
    /// Chrome trace-event JSON of the `overlap_trace` priority run
    /// (`report --trace-out`).
    pub trace_json: String,
}

impl Trajectory {
    /// One message per check that does not hold; empty on a healthy
    /// run. The rows are complete either way, so the file can be
    /// written for diagnosis before the run is declared red.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            for c in row.checks.iter().filter(|c| !c.holds()) {
                out.push(format!(
                    "{}: {}: {} {} {} does not hold",
                    row.name,
                    c.name,
                    c.lhs.value(),
                    c.rel_str(),
                    c.rhs.value()
                ));
            }
        }
        out
    }

    /// The `BENCH_coconet.json` document.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.rows
                .iter()
                .map(|r| (r.name.to_string(), r.to_json()))
                .collect(),
        )
    }
}

/// Runs every row. There is no quick subset: the whole set takes
/// seconds.
///
/// # Errors
///
/// Returns a description of the failure only when a row cannot run at
/// all (a workload failing to build or tune); a check that does not
/// hold lands in [`Trajectory::failures`] instead.
pub fn collect() -> Result<Trajectory, String> {
    let mut rows = vec![
        fig1(),
        fig10(),
        fig11(),
        algo_ablation("ablation_algo_small", 14),
        algo_ablation("ablation_algo_large", 30),
        compression_ablation("compression_ablation_small", 14),
        compression_ablation("compression_ablation_large", 28),
        switch_worker_ablation(),
        steady_state_stream(),
        ledger_priority_stream(),
    ];
    let (trace_row, trace_json) = overlap_trace();
    rows.push(trace_row);
    for workload in experiments::AUTOTUNE_WORKLOADS {
        rows.push(tab3(workload)?);
    }
    Ok(Trajectory { rows, trace_json })
}

/// Figure 1's largest point: overlapped MatMul+AllReduce vs
/// sequential at batch 64.
fn fig1() -> Row {
    let row = experiments::figure1().pop().expect("figure1 has rows");
    Row::costed("fig1_overlap", row.sequential, row.overlapped)
}

/// Figure 10 at 2^30 elements: Adam, baseline AR+FusedOpt vs
/// `fuse(RS-Opt-AG)`.
fn fig10() -> Row {
    let row = experiments::figure10(Optimizer::Adam, &[30])
        .pop()
        .expect("figure10 has rows");
    Row::costed(
        "fig10_data_parallel",
        row.baseline,
        row.baseline / row.fused,
    )
}

/// Figure 11's first group (self-attention epilogue, batch 8):
/// Megatron-LM vs the overlapped schedule.
fn fig11() -> Row {
    let rows = experiments::figure11();
    let group = &rows[..4];
    Row::costed("fig11_model_parallel", group[0].time, group[3].time)
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
fn algo_ablation(name: &'static str, log2_elems: u32) -> Row {
    let (_, times) = experiments::ablation_algorithms(&[log2_elems])
        .pop()
        .expect("one exponent");
    let [ring, tree, hier, switch] = times;
    let best = ring.min(tree).min(hier).min(switch);
    Row::costed(name, ring, best)
        .num("ring_s", ring)
        .num("tree_s", tree)
        .num("hierarchical_s", hier)
        .num("switch_s", switch)
        .text("winner", experiments::algo_winner(&times))
        .num("log2_elems", f64::from(log2_elems))
}

/// The in-network aggregation ablation over *worker count*: AllReduce
/// of 2^18 F32 elements at 1 rank/node, every algorithm at its own
/// best `protocol × channels`, at 2 and at 32 workers. The row's
/// baseline is the best host-side algorithm at 32 workers and its
/// `coconet_s` is the switch — so the speedup is the in-network win at
/// scale, while the 2-worker columns pin the other side of the
/// crossover (a plain ring beats the switch's quantize/dequantize
/// latency in a tiny group). Both ends of the crossover are checks.
fn switch_worker_ablation() -> Row {
    let rows = experiments::ablation_switch_workers(&[2, 32]);
    let (_, [ring_2, tree_2, hier_2, switch_2]) = rows[0];
    let (_, [ring_32, tree_32, hier_32, switch_32]) = rows[1];
    let host_best_2 = ring_2.min(tree_2).min(hier_2);
    let host_best_32 = ring_32.min(tree_32).min(hier_32);
    let mut row = Row::costed("ablation_switch_workers", host_best_32, switch_32)
        .num("ring_2_s", ring_2)
        .num("switch_2_s", switch_2)
        .num("ring_32_s", ring_32)
        .num("tree_32_s", tree_32)
        .num("hierarchical_32_s", hier_32)
        .num("switch_32_s", switch_32)
        .text("winner_2", experiments::algo_winner(&rows[0].1))
        .text("winner_32", experiments::algo_winner(&rows[1].1))
        .num("log2_elems", 18.0);
    row.checks = vec![
        // In-network aggregation must win at scale …
        Check::lt(
            "switch_beats_every_host_algorithm_at_32_workers",
            switch_32,
            host_best_32,
        ),
        // … and lose in a tiny group; if it does not, the crossover
        // collapsed (check the `switch_process` knob).
        Check::lt(
            "a_host_algorithm_beats_the_switch_at_2_workers",
            host_best_2,
            switch_2,
        ),
    ];
    row
}

/// The costed steady-state row: barriered vs barrier-free seconds per
/// iteration at 2^24 gradient elements over 8 ranks — cost-model
/// output, so the file tracks the overlap win directly.
fn steady_state_stream() -> Row {
    use crate::steady::{steady_state_sim, STEADY_ELEMS, STEADY_LAYERS, STEADY_RANKS};
    let sim = steady_state_sim();
    Row::costed("steady_state_stream", sim.barriered_s, sim.streamed_s)
        .num("elems", STEADY_ELEMS as f64)
        .num("ranks", STEADY_RANKS as f64)
        .num("layers", STEADY_LAYERS as f64)
        .num("barriered_iters_per_sec", sim.barriered_iters_per_sec())
        .num("streamed_iters_per_sec", sim.streamed_iters_per_sec())
}

/// The barrier-free witnesses: a real [`StreamExecutor`] run against
/// the classic blocking loop — final parameters bit-identical, every
/// iteration's layer-0 gradient synchronized before its last-layer
/// one, and each priority class moving exactly its layer's analytic
/// ring volume.
///
/// [`StreamExecutor`]: coconet_runtime::StreamExecutor
fn ledger_priority_stream() -> Row {
    let run = crate::steady::steady_state_bench();
    let mut row = Row::new("ledger_priority_stream", Kind::Invariant)
        .num("elems", run.elems as f64)
        .num("ranks", run.ranks as f64)
        .num("layers", run.layers as f64)
        .num("iters", run.iters as f64);
    row.checks = run.checks();
    row
}

/// The traced overlap row: the steady-state loop under both schedules
/// *with span recording on*. The hidden-communication fractions and the
/// per-step sim-vs-measured drift are readings; what the file records
/// is that the priority schedule hides strictly more collective time
/// than the barriered one, every simulated plan step aligned with a
/// traced measurement, no event was dropped, and both traces and the
/// Chrome export are well formed. Returns the row and the priority
/// run's Chrome trace JSON.
fn overlap_trace() -> (Row, String) {
    let run = crate::tracebench::overlap_trace_bench();
    let mut row = Row::new("overlap_trace", Kind::Invariant)
        .num("elems", run.elems as f64)
        .num("ranks", run.ranks as f64)
        .num("layers", run.layers as f64)
        .num("iters", run.iters as f64);
    row.checks = run.checks();
    row.readings = run.readings();
    (row, run.chrome_json)
}

/// The wire-format ablation at one message size: AllReduce of
/// `2^log2_elems` FP16 gradients on 256 GPUs, each format at its own
/// best `algorithm × protocol`. The row's baseline is the dense wire
/// and its `coconet_s` is the best format — the small row shows dense
/// winning the latency-bound regime (speedup 1.0), the large row shows
/// the sparse wire's win, and the 100 ‰ point pins the sparse↔dense
/// switchover (its time equals dense exactly).
fn compression_ablation(name: &'static str, log2_elems: u32) -> Row {
    use crate::compression::{ablation_formats, format_winner};
    let rows = ablation_formats(log2_elems);
    let dense = rows.iter().find(|r| r.0 == "dense").expect("dense row").1;
    let best = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let mut row = Row::costed(name, dense, best);
    for &(label, t) in &rows {
        row = row.num(&format!("{label}_s"), t);
    }
    row.text("winner", format_winner(&rows))
        .num("log2_elems", f64::from(log2_elems))
}

/// One Table 3 autotuner row: the workload tuned by the pruned search
/// and by the exhaustive reference. The row prices the baseline
/// schedule against the winner; its checks prove pruning changes
/// nothing but the work done — identical winner, strictly fewer
/// configurations costed. The search is serial, so how many
/// configurations the pruned search costs (and prunes) repeats from
/// run to run; those counts are readings beside the two tune walls
/// (`autotune_cold` in `benchmark/` measures tune time).
fn tab3(workload: &str) -> Result<Row, String> {
    let name = match workload {
        "adam" => "tab3_autotuner_adam",
        "lamb" => "tab3_autotuner_lamb",
        "model-parallel" => "tab3_autotuner_model_parallel",
        "pipeline" => "tab3_autotuner_pipeline",
        other => return Err(format!("unknown workload {other}")),
    };
    let (program, binding, sim) = experiments::autotune_setup(workload);
    let tune = |tuner: Autotuner| {
        let report = tuner
            .tune(&program, &binding, &sim)
            .map_err(|e| format!("{workload}: tuning failed: {e}"))?;
        let best = report
            .best()
            .map_err(|e| format!("{workload}: {e}"))?
            .clone();
        Ok::<_, String>((report, best))
    };
    let (pruned, best) = tune(Autotuner::default())?;
    let (exhaustive, reference) = tune(Autotuner::default().exhaustive())?;
    let baseline_s = exhaustive
        .candidates
        .iter()
        .find(|c| c.schedule.is_empty())
        .ok_or_else(|| format!("{workload}: exhaustive search lost the baseline schedule"))?
        .time;

    let mut row = Row::costed(name, baseline_s, best.time)
        .text("winner", best.label())
        .num("schedules_explored", pruned.schedules_explored as f64)
        .num(
            "exhaustive_configs_evaluated",
            exhaustive.configs_evaluated as f64,
        );
    let same_winner = best.schedule == reference.schedule && best.config == reference.config;
    row.checks = vec![
        Check::eq(
            "pruned_winners_differing_from_exhaustive",
            usize::from(!same_winner),
            0usize,
        ),
        Check::lt(
            "pruned_costs_fewer_configs_than_exhaustive",
            Operand::Host(pruned.configs_evaluated as f64),
            exhaustive.configs_evaluated,
        ),
    ];
    let ms = |d: std::time::Duration| format!("{:.1} ms", d.as_secs_f64() * 1e3);
    row.readings = vec![
        (
            "configs costed".into(),
            pruned.configs_evaluated.to_string(),
        ),
        ("configs pruned".into(), pruned.configs_pruned.to_string()),
        ("tune wall".into(), ms(pruned.elapsed)),
        ("exhaustive tune wall".into(), ms(exhaustive.elapsed)),
    ];
    Ok(row)
}

/// The `report --check` gate: the freshly generated document must
/// equal the committed one. Any difference, in either direction —
/// a row on one side only, a field added, removed or changed — is
/// reported by its path.
///
/// # Errors
///
/// Returns one line per difference.
pub fn check_against(committed: &Json, fresh: &Json) -> Result<(), String> {
    let mut diffs = Vec::new();
    diff_into(&mut diffs, "", committed, fresh);
    if diffs.is_empty() && committed != fresh {
        diffs.push("same rows and fields, in a different order".into());
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join("\n"))
    }
}

fn diff_into(out: &mut Vec<String>, path: &str, committed: &Json, fresh: &Json) {
    let join = |key: &str| {
        if path.is_empty() {
            key.to_string()
        } else {
            format!("{path}.{key}")
        }
    };
    match (committed, fresh) {
        (Json::Obj(old), Json::Obj(new)) => {
            for (key, a) in old {
                match fresh.get(key) {
                    Some(b) => diff_into(out, &join(key), a, b),
                    None => out.push(format!(
                        "`{}` is committed but no longer generated",
                        join(key)
                    )),
                }
            }
            for (key, _) in new {
                if committed.get(key).is_none() {
                    out.push(format!("`{}` is generated but not committed", join(key)));
                }
            }
        }
        (Json::Arr(old), Json::Arr(new)) if old.len() == new.len() => {
            for (i, (a, b)) in old.iter().zip(new).enumerate() {
                diff_into(out, &format!("{path}[{i}]"), a, b);
            }
        }
        (a, b) if a != b => out.push(format!(
            "`{path}`: committed {}, generated {}",
            a.render_pretty().trim_end(),
            b.render_pretty().trim_end()
        )),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(row: &Json, field: &str) -> f64 {
        row.get(field)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("numeric `{field}` in {row:?}"))
    }

    #[test]
    fn trajectory_covers_the_headline_experiments() {
        let trajectory = collect().expect("trajectory collects");
        assert_eq!(trajectory.failures(), Vec::<String>::new());
        let text = trajectory.to_json().render_pretty();
        let back = Json::parse(&text).expect("self-parse");
        assert_eq!(trajectory.to_json(), back);
        // Every row is typed, and only costed rows are priced.
        for r in &trajectory.rows {
            let row = back.get(r.name).expect("row present");
            match r.kind {
                Kind::Costed {
                    baseline_s,
                    coconet_s,
                } => {
                    assert_eq!(row.get("kind").and_then(Json::as_str), Some("costed"));
                    assert!(baseline_s > 0.0 && coconet_s > 0.0);
                    assert_eq!(num(row, "speedup"), baseline_s / coconet_s);
                }
                Kind::Invariant => {
                    assert_eq!(row.get("kind").and_then(Json::as_str), Some("invariant"));
                    assert!(row.get("speedup").is_none(), "{}", r.name);
                    assert!(!r.checks.is_empty(), "{} asserts nothing", r.name);
                }
            }
        }
        // The algorithm-ablation rows exhibit the size crossover: tree
        // wins the small message, ring stays optimal at the large one.
        let small = back.get("ablation_algo_small").expect("small algo row");
        assert_eq!(small.get("winner").and_then(Json::as_str), Some("tree"));
        assert!(num(small, "speedup") > 1.0);
        let large = back.get("ablation_algo_large").expect("large algo row");
        assert_eq!(large.get("winner").and_then(Json::as_str), Some("ring"));
        assert_eq!(num(large, "speedup"), 1.0);
        // Every size row carries the fourth (switch) column.
        assert!(num(large, "switch_s") > 0.0);
        // The worker-count ablation exhibits the in-network crossover:
        // the ring wins the 2-worker group, the switch wins at 32.
        let sw = back.get("ablation_switch_workers").expect("switch row");
        assert_eq!(sw.get("winner_2").and_then(Json::as_str), Some("ring"));
        assert_eq!(sw.get("winner_32").and_then(Json::as_str), Some("switch"));
        assert!(
            num(sw, "speedup") > 1.0,
            "switch must beat every host-side algorithm at 32 workers"
        );
        // The wire-compression ablation rows: dense wins the
        // latency-bound small regime, the sparse wire wins large.
        let small = back
            .get("compression_ablation_small")
            .expect("compression small row");
        assert_eq!(small.get("winner").and_then(Json::as_str), Some("dense"));
        assert_eq!(num(small, "speedup"), 1.0);
        let large = back
            .get("compression_ablation_large")
            .expect("compression large row");
        assert!(large
            .get("winner")
            .and_then(Json::as_str)
            .unwrap()
            .starts_with("topk"));
        assert!(num(large, "speedup") > 2.0);
        // 100 ‰ has switched over to the dense wire: identical time.
        assert_eq!(num(large, "topk100_s"), num(large, "dense_s"));
        // The costed barrier-free schedule beats the barriered loop,
        // bounded by the 2x pipelining ceiling.
        let steady = back.get("steady_state_stream").expect("steady row");
        let speedup = num(steady, "speedup");
        assert!(
            speedup > 1.0 && speedup <= 2.0,
            "steady-state speedup {speedup}"
        );
        assert!(
            num(steady, "streamed_iters_per_sec") > num(steady, "barriered_iters_per_sec"),
            "barrier-free iterations/sec must beat barriered"
        );
        // All four tuner rows are there, none with a timing-dependent
        // counter.
        for w in ["adam", "lamb", "model_parallel", "pipeline"] {
            let row = back
                .get(&format!("tab3_autotuner_{w}"))
                .unwrap_or_else(|| panic!("tab3 row {w}"));
            assert!(num(row, "exhaustive_configs_evaluated") > 0.0);
            for gone in ["configs_evaluated", "configs_pruned", "tune_wall_ms"] {
                assert!(row.get(gone).is_none(), "{w} still writes {gone}");
            }
        }
        // The trace export rides along for `--trace-out`.
        assert!(trajectory.trace_json.contains("traceEvents"));
    }

    /// The file is reproducible: two collections render the same
    /// bytes, and every number survives the file — render → parse →
    /// render is a fixed point, so comparing parsed documents compares
    /// the bytes.
    #[test]
    fn consecutive_collections_render_identical_documents() {
        let doc = collect().unwrap().to_json();
        let text = doc.render_pretty();
        assert_eq!(text, collect().unwrap().to_json().render_pretty());
        let parsed = Json::parse(&text).expect("parses");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render_pretty(), text);
        check_against(&parsed, &doc).expect("a document equals itself");
    }

    /// An operand that depends on the host is evaluated, not written.
    #[test]
    fn host_operands_are_evaluated_but_not_written() {
        let c = Check::lt("pruned_below", Operand::Host(7.0), 9usize);
        assert!(c.holds());
        let json = c.to_json();
        assert!(json.get("lhs").is_none());
        assert_eq!(json.get("rhs").and_then(Json::as_f64), Some(9.0));
        assert!(!Check::lt("x", Operand::Host(9.0), 9usize).holds());
        assert!(!Check::eq("y", 1usize, 0usize).holds());
    }

    const COMMITTED: &str = r#"{
        "a": {"kind": "costed", "baseline_s": 2.0, "coconet_s": 1.0, "speedup": 2.0},
        "b": {"kind": "invariant", "checks": [{"name": "n", "lhs": 8, "rel": "==", "rhs": 8}]}
    }"#;

    #[test]
    fn check_rejects_one_changed_number() {
        let committed = Json::parse(COMMITTED).unwrap();
        let fresh = Json::parse(&COMMITTED.replace("\"lhs\": 8", "\"lhs\": 9")).unwrap();
        let err = check_against(&committed, &fresh).unwrap_err();
        assert_eq!(err, "`b.checks[0].lhs`: committed 8, generated 9");
        // In either direction, improvements included.
        let faster = Json::parse(&COMMITTED.replace("\"speedup\": 2.0", "\"speedup\": 2.5"));
        let err = check_against(&committed, &faster.unwrap()).unwrap_err();
        assert!(err.contains("`a.speedup`"), "{err}");
    }

    #[test]
    fn check_rejects_a_missing_and_an_added_row() {
        let committed = Json::parse(COMMITTED).unwrap();
        let only_a = Json::obj([("a", committed.get("a").unwrap().clone())]);
        let err = check_against(&committed, &only_a).unwrap_err();
        assert_eq!(err, "`b` is committed but no longer generated");
        let err = check_against(&only_a, &committed).unwrap_err();
        assert_eq!(err, "`b` is generated but not committed");
        check_against(&committed, &committed).unwrap();
    }
}
