//! The metric catalogue and how each value is computed from passes
//! and probes. `BENCHMARK.json` is generated from the definitions here
//! (`benchmark manifest`), so the names the binary emits and the names
//! the contract lists cannot drift apart.

use std::collections::BTreeMap;

use coconet_core::CommSched;
use coconet_models::OptimizerSchedule;
use coconet_tensor::kernels;

use crate::harness::{
    host_cores, peak_rss_mb, run_rounds, Pass, Round, RoundCfg, RUN_SECONDS, WARMUP_ITERS,
};
use crate::json::{text, Json};
use crate::probes;
use crate::reference::wire_bytes;
use crate::spans;
use crate::stats::{iqr_frac, median, quantile};
use crate::workloads::{adam, autotune, coll, mp, stream, Workload};

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One catalogue entry.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// Budget residual above which a traced run is reported incorrect.
pub const MAX_BUDGET_RESIDUAL: f64 = 0.05;

/// The end-to-end metrics, the same on every workload.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    let bounded = |name, unit, better, bound| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    };
    vec![
        bounded("setup_s", "s", LOWER, 0.25),
        bounded("iter_ms_p50", "ms", LOWER, 0.25),
        bounded("iters_per_s", "1/s", HIGHER, 0.25),
        bounded("peak_rss_mb", "MB", LOWER, 0.10),
    ]
}

/// The per-layer metrics, grouped by the layer that owns them.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut defs = vec![
        def("core.tune_cold_ms_p50", "ms", LOWER),
        def("core.tune_warm_us_p50", "us", LOWER),
        def("core.schedules_explored", "count", LOWER),
        def("core.configs_evaluated", "count", LOWER),
        def("core.configs_pruned", "count", HIGHER),
        def("core.plan_cache_hit_ratio", "ratio", HIGHER),
        def("core.lower_us_p50", "us", LOWER),
        def("core.xform_us_p50", "us", LOWER),
        def("sim.time_plan_us_p50", "us", LOWER),
        def("sim.eval_calls_per_tune", "count", LOWER),
        def("sim.eval_ms_per_tune", "ms", LOWER),
        def("tensor.gemm_gflop_s", "GFLOP/s", HIGHER),
        def("tensor.reduce_f32_gb_s", "GB/s", HIGHER),
        def("tensor.axpy_gb_s", "GB/s", HIGHER),
        def("tensor.f16_encode_gb_s", "GB/s", HIGHER),
        def("tensor.f16_decode_gb_s", "GB/s", HIGHER),
        def("tensor.allocs_per_iter", "count", LOWER),
        def("tensor.alloc_mb_per_iter", "MB", LOWER),
        def("tensor.cow_mb_per_iter", "MB", LOWER),
        def("tensor.pool_width", "count", HIGHER),
        def("compress.topk_select_melem_s", "Melem/s", HIGHER),
        def("compress.quantize_gb_s", "GB/s", HIGHER),
        def("compress.dequantize_gb_s", "GB/s", HIGHER),
        def("compress.wire_ratio_fp16", "ratio", LOWER),
        def("compress.wire_ratio_topk10", "ratio", LOWER),
        def("compress.wire_ratio_q1516", "ratio", LOWER),
        def("comm.hop_us_p50", "us", LOWER),
        def("comm.sends_per_iter", "count", LOWER),
        def("comm.spawn_join_us_p50", "us", LOWER),
    ];
    for e in coll::dense_mix().iter().chain(&coll::compressed_mix()) {
        defs.push(def(&entry_metric(e.name), "ms", LOWER));
    }
    defs.extend([
        def("coll.ledger_exact", "bool", HIGHER),
        def("stream.compute_ms_per_iter", "ms", LOWER),
        def("stream.exposed_comm_ms_per_iter", "ms", LOWER),
        def("stream.exposed_frac", "ratio", LOWER),
        def("stream.job_latency_ms_p50", "ms", LOWER),
        def("stream.jobs_per_iter", "count", LOWER),
        def("stream.order_inversions", "count", LOWER),
        def("stream.hidden_frac", "ratio", HIGHER),
        def("executor.unfused_iter_ms_p50", "ms", LOWER),
        def("executor.fused_over_unfused", "ratio", LOWER),
        def("executor.ns_per_elem", "ns", LOWER),
        def("executor.spawn_share", "ratio", LOWER),
        def("overlap.matmul_ms_p50", "ms", LOWER),
        def("overlap.allreduce_ms_p50", "ms", LOWER),
        def("overlap.overlapped_ms_p50", "ms", LOWER),
        def("overlap.hidden_ms", "ms", HIGHER),
        def("trace.overhead_frac", "ratio", LOWER),
        def("trace.events_per_iter", "count", LOWER),
        def("trace.dropped_events", "count", LOWER),
        def("harness.iter_ms_p90", "ms", LOWER),
        def("harness.iter_ms_iqr_frac", "ratio", LOWER),
        def("harness.samples", "count", HIGHER),
        def("harness.host_cores", "count", HIGHER),
        def("harness.budget_residual_frac", "ratio", LOWER),
        // Demoted from the end-to-end set: it is 0 on `autotune_cold`,
        // and an end-to-end metric may never be 0.
        def("harness.wire_mb_per_iter", "MB", LOWER),
    ]);
    defs
}

fn entry_metric(entry: &str) -> String {
    format!("coll.{entry}.ms_p50")
}

/// `BENCHMARK.json`, from the catalogue and the workload table.
pub fn manifest() -> Json {
    let metric = |d: &MetricDef| {
        let mut pairs = vec![
            ("name", text(d.name.clone())),
            ("unit", text(d.unit)),
            ("better", text(d.better)),
        ];
        if let Some(b) = d.bound {
            pairs.push(("bound", Json::Num(b)));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(text)
                .to_vec(),
            ),
        ),
        ("paths", Json::Arr(vec![text("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| Json::obj([("name", text(w.name())), ("why", text(w.why()))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end_defs().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer_defs().iter().map(metric).collect()),
        ),
    ])
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Vec<Metric> {
    let wall_s: f64 = pass.iter_ms.iter().sum::<f64>() / 1e3;
    let values = [
        median(&pass.setup_s),
        median(&pass.iter_ms),
        if wall_s > 0.0 {
            pass.iter_ms.len() as f64 / wall_s
        } else {
            0.0
        },
        peak_rss_mb().unwrap_or(0.0),
    ];
    end_to_end_defs()
        .into_iter()
        .zip(values)
        .map(|(d, value)| Metric {
            name: d.name,
            value,
            unit: d.unit,
        })
        .collect()
}

/// The passes a workload's own traced run makes.
pub struct TracedRun {
    /// A quarter of the iterations, tracing off.
    pub untraced: Pass,
    /// The same again with the benchmark's spans and `coconet_trace` on.
    pub traced: Pass,
}

/// Per-layer values by metric name.
pub type Values = BTreeMap<String, f64>;

fn put(m: &mut Values, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `stream.*` from a traced pass of the stream loop.
fn stream_metrics(m: &mut Values, s: &Pass) {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let (wall, compute) = (mean(&s.iter_ms), mean(s.series("compute_ms")));
    put(m, "stream.compute_ms_per_iter", compute);
    put(m, "stream.exposed_comm_ms_per_iter", wall - compute);
    put(m, "stream.exposed_frac", ratio(wall - compute, wall));
    put(
        m,
        "stream.job_latency_ms_p50",
        median(s.series("job_latency_ms")),
    );
    put(m, "stream.jobs_per_iter", s.count_per_iter("jobs"));
    put(
        m,
        "stream.order_inversions",
        s.counts.get("order_inversions").copied().unwrap_or(0.0),
    );
    put(
        m,
        "stream.hidden_frac",
        ratio(s.program_trace.hidden_s, s.program_trace.comm_busy_s),
    );
}

/// The `coll.*.ms_p50` entries of `mix` (and, for the compressed mix,
/// the `compress.wire_ratio_*`) from a pass over it. Returns whether
/// every entry's ledger bytes equalled its analytic volume.
fn coll_metrics(m: &mut Values, mix: &[coll::Entry], pass: &Pass) -> bool {
    for e in mix {
        put(m, &entry_metric(e.name), median(pass.series(e.name)));
    }
    let rounds = pass.setup_s.len().max(1) as f64;
    let dense = wire_bytes::ring(1 << 20, 4) as f64;
    for (metric, entry) in [
        ("compress.wire_ratio_fp16", "ring-fp16-c1-e20"),
        ("compress.wire_ratio_topk10", "ring-topk10-c1-e20"),
        ("compress.wire_ratio_q1516", "switch-q1516-c1-e20"),
    ] {
        if let Some(sent) = pass.counts.get(&format!("sent:{entry}")) {
            put(m, metric, sent / rounds / dense);
        }
    }
    pass.counts.get("ledger_exact_rounds").copied() == Some(rounds)
}

/// `core.*` and `sim.*` search counters from a traced pass of cold tunes.
fn tune_metrics(m: &mut Values, a: &Pass) {
    let tunes = a.counts.get("tunes").copied().unwrap_or(0.0).max(1.0);
    let per_tune = |name: &str| a.counts.get(name).copied().unwrap_or(0.0) / tunes;
    put(m, "core.tune_cold_ms_p50", median(a.series("tune_ms")));
    put(m, "core.schedules_explored", per_tune("schedules_explored"));
    put(m, "core.configs_evaluated", per_tune("configs_evaluated"));
    put(m, "core.configs_pruned", per_tune("configs_pruned"));
    put(m, "sim.eval_calls_per_tune", per_tune("eval_calls"));
    put(m, "sim.eval_ms_per_tune", per_tune("eval_ms"));
}

/// The `executor.*` ratios of a fused iteration time against the
/// unfused time and the spawn/join cost already in `m`.
fn executor_metrics(m: &mut Values, fused_ms: f64) {
    let unfused_ms = m["executor.unfused_iter_ms_p50"];
    let spawn_join_us = m["comm.spawn_join_us_p50"];
    put(
        m,
        "executor.fused_over_unfused",
        ratio(fused_ms, unfused_ms),
    );
    put(m, "executor.ns_per_elem", fused_ms * 1e6 / adam::N as f64);
    put(
        m,
        "executor.spawn_share",
        ratio(spawn_join_us, fused_ms * 1e3),
    );
}

/// Iterations of the short owner rounds the probe step runs.
const PROBE_ITERS: usize = 5;
const PROBE_STREAM_ITERS: usize = 20;
const PROBE_COLL_ITERS: usize = 3;
const PROBE_TUNE_ITERS: usize = 10;

/// The probe step: every layer number from outside any workload's own
/// passes — one short round of each layer's owning workload, then the
/// micro-probes. A workload's traced run overrides the numbers it owns
/// with those of its full passes ([`per_layer`]).
pub fn probe_step(seed: u64) -> Values {
    let mut m = Values::new();
    let round = |label: &str, iters, traced, f: &dyn Fn(&RoundCfg) -> Round| {
        run_rounds(label, seed, 1, iters, traced, f)
    };

    let streamed = round("probe:stream", PROBE_STREAM_ITERS, true, &|cfg| {
        stream::round(cfg, CommSched::Priority, stream::LAYER_ELEMS)
    });
    stream_metrics(&mut m, &streamed);

    let adam_ms = |schedule| {
        let pass = round("probe:adam", PROBE_ITERS, false, &move |cfg| {
            adam::round(cfg, schedule, adam::N)
        });
        median(&pass.iter_ms)
    };
    let fused_ms = adam_ms(OptimizerSchedule::FusedRsOptAg);
    put(
        &mut m,
        "executor.unfused_iter_ms_p50",
        adam_ms(OptimizerSchedule::ArOpt),
    );

    let [matmul, allreduce, overlapped] =
        mp::parts(seed, mp::DIM, PROBE_ITERS).map(|series| median(&series));
    put(&mut m, "overlap.matmul_ms_p50", matmul);
    put(&mut m, "overlap.allreduce_ms_p50", allreduce);
    put(&mut m, "overlap.overlapped_ms_p50", overlapped);
    put(&mut m, "overlap.hidden_ms", matmul + allreduce - overlapped);

    let mut ledger_exact = true;
    for mix in [coll::dense_mix(), coll::compressed_mix()] {
        let pass = round("probe:coll", PROBE_COLL_ITERS, false, &|cfg| {
            coll::round(cfg, &mix)
        });
        ledger_exact &= coll_metrics(&mut m, &mix, &pass);
    }
    put(
        &mut m,
        "coll.ledger_exact",
        f64::from(u8::from(ledger_exact)),
    );

    let tuned = round("probe:autotune", PROBE_TUNE_ITERS, true, &autotune::round);
    tune_metrics(&mut m, &tuned);

    let compile = probes::compile_latency();
    put(&mut m, "core.tune_warm_us_p50", compile.tune_warm_us_p50);
    put(
        &mut m,
        "core.plan_cache_hit_ratio",
        compile.plan_cache_hit_ratio,
    );
    put(&mut m, "core.lower_us_p50", compile.lower_us_p50);
    put(&mut m, "core.xform_us_p50", compile.xform_us_p50);
    put(&mut m, "sim.time_plan_us_p50", compile.time_plan_us_p50);
    let rates = probes::tensor_rates(seed);
    put(&mut m, "tensor.gemm_gflop_s", rates.gemm_gflop_s);
    put(&mut m, "tensor.reduce_f32_gb_s", rates.reduce_f32_gb_s);
    put(&mut m, "tensor.axpy_gb_s", rates.axpy_gb_s);
    put(&mut m, "tensor.f16_encode_gb_s", rates.f16_encode_gb_s);
    put(&mut m, "tensor.f16_decode_gb_s", rates.f16_decode_gb_s);
    put(&mut m, "tensor.pool_width", kernels::pool_width() as f64);
    let codecs = probes::codec_rates(seed);
    put(
        &mut m,
        "compress.topk_select_melem_s",
        codecs.topk_select_melem_s,
    );
    put(&mut m, "compress.quantize_gb_s", codecs.quantize_gb_s);
    put(&mut m, "compress.dequantize_gb_s", codecs.dequantize_gb_s);
    let fabric = probes::fabric_latency();
    put(&mut m, "comm.hop_us_p50", fabric.hop_us_p50);
    put(&mut m, "comm.spawn_join_us_p50", fabric.spawn_join_us_p50);
    put(&mut m, "harness.host_cores", host_cores() as f64);
    executor_metrics(&mut m, fused_ms);
    m
}

/// Every per-layer metric, for a traced run of workload `w`: the probe
/// step's numbers (`probes`, or a fresh [`probe_step`] when the caller
/// has none to share), overridden by what `w`'s own passes measure —
/// the layer group it owns and the per-workload counters. Also returns
/// the broken invariants, if any, that make the traced run incorrect.
pub fn per_layer(
    w: Workload,
    seed: u64,
    run: &TracedRun,
    probes: Option<Values>,
) -> (Vec<Metric>, Vec<String>) {
    let (u, t) = (&run.untraced, &run.traced);
    let mut m = probes.unwrap_or_else(|| probe_step(seed));
    let mut broken = Vec::new();

    // --- the layer group this workload owns --------------------------
    let mut own_ledger_exact = true;
    match w {
        Workload::StreamPriority | Workload::StreamBarriered => stream_metrics(&mut m, t),
        Workload::AdamFused => executor_metrics(&mut m, median(&u.iter_ms)),
        Workload::CollDense => own_ledger_exact = coll_metrics(&mut m, &coll::dense_mix(), u),
        Workload::CollCompressed => {
            own_ledger_exact = coll_metrics(&mut m, &coll::compressed_mix(), u);
        }
        Workload::AutotuneCold => tune_metrics(&mut m, t),
        // `overlap.*` times the parts separately, which no iteration of
        // the workload itself does: the probe step's numbers stand.
        Workload::MpOverlap => {}
    }
    if !own_ledger_exact {
        put(&mut m, "coll.ledger_exact", 0.0);
    }
    if m["coll.ledger_exact"] != 1.0 {
        broken.push("a collective's ledger bytes differ from its analytic volume".into());
    }
    if w == Workload::CollDense && t.program_trace.codec_events != 0 {
        broken.push(format!(
            "coll_dense recorded {} codec events",
            t.program_trace.codec_events
        ));
    }

    // --- per-workload counters ---------------------------------------
    put(&mut m, "tensor.allocs_per_iter", u.count_per_iter("allocs"));
    put(
        &mut m,
        "tensor.alloc_mb_per_iter",
        u.count_per_iter("alloc_bytes") / 1e6,
    );
    put(
        &mut m,
        "tensor.cow_mb_per_iter",
        u.count_per_iter("cow_bytes") / 1e6,
    );
    // Wire volume: the ledger where the benchmark owns the rank threads;
    // the program's `Hop` events where `run_program` owns them. The
    // tracer is on for a round's warm-up too, and a warm-up iteration
    // does the same work as a timed one.
    let traced_iters = (t.attempted + t.setup_s.len() * WARMUP_ITERS).max(1) as f64;
    let (wire_per_iter, sends_per_iter) = if u.counts.contains_key("wire_bytes") {
        (u.count_per_iter("wire_bytes"), u.count_per_iter("sends"))
    } else {
        (
            t.program_trace.rank0_hop_bytes as f64 / traced_iters,
            t.program_trace.rank0_hops as f64 / traced_iters,
        )
    };
    put(&mut m, "comm.sends_per_iter", sends_per_iter);
    put(&mut m, "harness.wire_mb_per_iter", wire_per_iter / 1e6);
    if w == Workload::AutotuneCold && wire_per_iter != 0.0 {
        broken.push(format!(
            "autotune_cold moved {wire_per_iter} wire bytes per iteration"
        ));
    }

    // --- trace, harness ----------------------------------------------
    put(
        &mut m,
        "trace.overhead_frac",
        ratio(median(&t.iter_ms) - median(&u.iter_ms), median(&u.iter_ms)),
    );
    put(
        &mut m,
        "trace.events_per_iter",
        t.program_trace.events as f64 / traced_iters,
    );
    put(
        &mut m,
        "trace.dropped_events",
        t.program_trace.dropped as f64,
    );
    if t.program_trace.dropped != 0 {
        broken.push(format!(
            "the program's tracer dropped {} events",
            t.program_trace.dropped
        ));
    }
    put(&mut m, "harness.iter_ms_p90", quantile(&u.iter_ms, 0.9));
    put(&mut m, "harness.iter_ms_iqr_frac", iqr_frac(&u.iter_ms));
    put(&mut m, "harness.samples", u.iter_ms.len() as f64);
    let residual = spans::by_thread(&t.spans)
        .iter()
        .find(|(rank, _)| *rank == 0)
        .map_or(0.0, |(_, rank0)| spans::budget(rank0).residual_frac());
    put(&mut m, "harness.budget_residual_frac", residual);
    if residual > MAX_BUDGET_RESIDUAL {
        broken.push(format!(
            "{:.1}% of the traced wall is attributed to no layer",
            residual * 100.0
        ));
    }

    let metrics = per_layer_defs()
        .into_iter()
        .filter_map(|d| match m.get(&d.name) {
            Some(&value) => Some(Metric {
                name: d.name,
                unit: d.unit,
                value,
            }),
            None => {
                broken.push(format!("per-layer metric {} was never computed", d.name));
                None
            }
        })
        .collect();
    (metrics, broken)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_has_the_issue_metric_counts_and_unique_valid_names() {
        let (e2e, layers) = (end_to_end_defs(), per_layer_defs());
        assert_eq!(e2e.len(), 4);
        // The issue's 73 plus the demoted wire metric.
        assert_eq!(layers.len(), 74);
        assert_eq!(e2e[0].name, "setup_s");
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(
            e2e.iter().all(|d| e2e[0].bound >= d.bound),
            "setup_s has the largest bound"
        );
        assert!(layers.iter().all(|d| d.bound.is_none()));
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 78);
        for d in e2e.iter().chain(&layers) {
            assert!(d.unit.len() <= 16, "{}", d.unit);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == LOWER || d.better == HIGHER);
        }
    }

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let committed = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(committed, manifest());
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    fn own_passes_override_shared_probes_and_a_bad_ledger_breaks_the_run() {
        let probes: Values = per_layer_defs()
            .into_iter()
            .map(|d| (d.name, 1.0))
            .collect();
        let run = TracedRun {
            untraced: Pass::default(),
            traced: Pass::default(),
        };
        let (m, broken) = per_layer(Workload::MpOverlap, 0, &run, Some(probes.clone()));
        assert_eq!(m.len(), per_layer_defs().len());
        assert_eq!(broken, Vec::<String>::new());
        let value = |m: &[Metric], name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(value(&m, "overlap.hidden_ms"), 1.0, "from the probes");
        assert_eq!(value(&m, "harness.samples"), 0.0, "from the empty pass");
        // An empty coll_dense pass never saw an exact ledger.
        let (m, broken) = per_layer(Workload::CollDense, 0, &run, Some(probes));
        assert_eq!(value(&m, "coll.ledger_exact"), 0.0);
        assert_eq!(value(&m, "coll.ring-fp16-c1-e20.ms_p50"), 1.0);
        assert_eq!(value(&m, "coll.ring-dense-c1-e20.ms_p50"), 0.0);
        assert_eq!(broken.len(), 1);
    }

    #[test]
    fn end_to_end_uses_medians_and_total_wall() {
        let pass = Pass {
            setup_s: vec![0.3, 0.1, 0.2],
            iter_ms: vec![10.0, 20.0, 30.0, 40.0],
            attempted: 4,
            ..Pass::default()
        };
        let m = end_to_end(&pass);
        assert_eq!(m[0].value, 0.2);
        assert_eq!(m[1].value, 25.0);
        assert_eq!(m[2].value, 40.0);
        assert_eq!(m[1].unit, "ms");
    }
}
