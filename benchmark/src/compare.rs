//! `benchmark compare <a.json> <b.json>`: per workload and end-to-end
//! metric, is B within its bound of A, worse, or unresolved?
//!
//! A is the parent, B the change; for the A/A check both are the same
//! commit on different seeds. Each file holds one or more runs of every
//! workload. A metric is compared by its median over the runs; its
//! spread is the quartile distance over the median, taken over each
//! file's runs (the larger of the two). A spread wider than the bound
//! makes the verdict `unresolved` rather than `within`: the instrument
//! cannot see a change of the size the bound is about.
//!
//! Wire volume is judged too, with bound 0: every workload's per-layer
//! `harness.wire_mb_per_iter` must read the same, to the byte, in every
//! run of both files (0 = 0 on `autotune_cold`). It is not in the
//! end-to-end list only because an end-to-end metric may never be 0.

use crate::json::{Json, JsonExt};
use crate::metrics::MetricDef;
use crate::stats::{iqr_frac, median};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub median_a: f64,
    pub median_b: f64,
    /// By how much B is worse than A, as a share of A (negative: better).
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges one metric. `a` and `b` are its values over each file's runs.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let bound = def.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse = if def.better == "lower" {
        mb - ma
    } else {
        ma - mb
    };
    // Away from a zero base any change is beyond every bound.
    let worse_by = match (ma == 0.0, worse == 0.0) {
        (_, true) => 0.0,
        (true, false) => f64::INFINITY.copysign(worse),
        (false, false) => worse / ma.abs(),
    };
    let spread = iqr_frac(a).max(iqr_frac(b));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Within
    };
    (worse_by, spread, verdict)
}

/// The per-layer metric `compare` judges next to the end-to-end ones.
fn wire_def() -> MetricDef {
    MetricDef {
        name: "harness.wire_mb_per_iter".into(),
        unit: "MB",
        better: "lower",
        bound: Some(0.0),
    }
}

/// The values of `metric` in `section` (`end_to_end` or `per_layer`) of
/// `workload` over every run in a result file.
fn values(result: &Json, workload: &str, section: &str, metric: &str) -> Vec<f64> {
    result
        .get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get(section)?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Compares two parsed result files under the given end-to-end
/// definitions (name, direction, bound) and [`wire_def`]. A pairing
/// absent from either file is an error: a comparison that silently
/// skips rows proves nothing.
pub fn compare(
    a: &Json,
    b: &Json,
    workloads: &[&str],
    defs: &[MetricDef],
) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    let wire = wire_def();
    for w in workloads {
        let end_to_end = defs.iter().map(|d| ("end_to_end", d));
        for (section, def) in end_to_end.chain([("per_layer", &wire)]) {
            let va = values(a, w, section, &def.name);
            let vb = values(b, w, section, &def.name);
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{w} / {} is missing from a result file", def.name));
            }
            let (worse_by, spread, verdict) = judge(def, &va, &vb);
            rows.push(Row {
                workload: w.to_string(),
                metric: def.name.clone(),
                median_a: median(&va),
                median_b: median(&vb),
                worse_by,
                spread,
                bound: def.bound.unwrap_or(0.0),
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Replaces the built-in bounds of `defs` with the ones `BENCHMARK.json`
/// states, so that `compare` judges by the contract file. Every metric
/// must be listed there with a bound the contract allows.
pub fn with_manifest_bounds(
    mut defs: Vec<MetricDef>,
    manifest: &Json,
) -> Result<Vec<MetricDef>, String> {
    let listed = manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list in the manifest")?;
    for def in &mut defs {
        let entry = listed
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(def.name.as_str()))
            .ok_or_else(|| format!("{} is not in the manifest", def.name))?;
        let bound = entry
            .get("bound")
            .and_then(Json::as_f64)
            .filter(|b| (0.0..=0.25).contains(b))
            .ok_or_else(|| format!("{} has no bound in 0..=0.25", def.name))?;
        def.bound = Some(bound);
    }
    Ok(defs)
}

/// The table `compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<17} {:<24} {:>12} {:>12} {:>9} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<17} {:<24} {:>12.4} {:>12.4} {:>+8.1}% {:>7.1}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label(),
        ));
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} within, {} worse, {} unresolved\n",
        count(Verdict::Within),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::text;

    fn lower(bound: f64) -> MetricDef {
        MetricDef {
            name: "iter_ms_p50".into(),
            unit: "ms",
            better: "lower",
            bound: Some(bound),
        }
    }

    fn higher(bound: f64) -> MetricDef {
        MetricDef {
            name: "iters_per_s".into(),
            unit: "1/s",
            better: "higher",
            bound: Some(bound),
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        let (by, _, v) = judge(&lower(0.1), &[100.0], &[120.0]);
        assert_eq!((by, v), (0.2, Verdict::Worse));
        let (by, _, v) = judge(&lower(0.1), &[100.0], &[80.0]);
        assert_eq!((by, v), (-0.2, Verdict::Within));
        let (by, _, v) = judge(&higher(0.1), &[100.0], &[80.0]);
        assert_eq!((by, v), (0.2, Verdict::Worse));
        let (_, _, v) = judge(&higher(0.1), &[100.0], &[105.0]);
        assert_eq!(v, Verdict::Within);
        let (_, _, v) = judge(&lower(0.1), &[100.0], &[109.0]);
        assert_eq!(v, Verdict::Within);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_within() {
        let noisy = [90.0, 100.0, 110.0, 95.0, 105.0];
        let (_, spread, v) = judge(&lower(0.1), &noisy, &[100.0, 100.0]);
        assert!(spread > 0.1);
        assert_eq!(v, Verdict::Unresolved);
        // The same data under a bound wider than the spread resolves.
        let (_, _, v) = judge(&lower(0.25), &noisy, &[140.0, 160.0]);
        assert_eq!(v, Verdict::Worse);
    }

    /// A result file with one run per value of `iter_ms_p50`, each
    /// reporting `wire` MB per iteration.
    fn result(values: &[f64], wire: f64) -> Json {
        let metric = |name: &str, v: f64, unit: &str| {
            Json::obj([(
                name,
                Json::obj([("value", Json::Num(v)), ("unit", text(unit))]),
            )])
        };
        let run = |v: f64| {
            let workload = Json::obj([
                ("end_to_end", metric("iter_ms_p50", v, "ms")),
                ("per_layer", metric("harness.wire_mb_per_iter", wire, "MB")),
            ]);
            Json::obj([("workloads", Json::obj([("w", workload)]))])
        };
        Json::obj([("runs", Json::Arr(values.iter().map(|&v| run(v)).collect()))])
    }

    #[test]
    fn compare_reads_medians_over_runs_and_refuses_missing_rows() {
        let (a, b) = (result(&[10.0, 11.0, 12.0], 4.5), result(&[11.5], 4.5));
        let rows = compare(&a, &b, &["w"], &[lower(0.25)]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!((rows[0].median_a, rows[0].median_b), (11.0, 11.5));
        assert_eq!(rows[0].verdict, Verdict::Within);
        assert_eq!(rows[1].metric, "harness.wire_mb_per_iter");
        assert_eq!((rows[1].bound, rows[1].verdict), (0.0, Verdict::Within));
        assert!(render(&rows).contains("2 within, 0 worse, 0 unresolved"));
        assert!(compare(&a, &b, &["absent"], &[lower(0.1)]).is_err());
    }

    #[test]
    fn wire_volume_must_match_to_the_byte() {
        let verdict = |wire_a, wire_b| {
            let rows = compare(
                &result(&[10.0], wire_a),
                &result(&[10.0], wire_b),
                &["w"],
                &[lower(0.25)],
            );
            rows.unwrap()[1].verdict
        };
        assert_eq!(verdict(4.5, 4.500001), Verdict::Worse);
        assert_eq!(verdict(4.5, 4.4), Verdict::Within, "fewer bytes is a gain");
        assert_eq!(
            verdict(0.0, 0.0),
            Verdict::Within,
            "autotune_cold sends none"
        );
        assert_eq!(verdict(0.0, 0.001), Verdict::Worse);
    }

    #[test]
    fn manifest_bounds_override_the_built_in_ones_and_are_validated() {
        let ok = crate::json::parse(
            r#"{"end_to_end":[{"name":"iter_ms_p50","unit":"ms","better":"lower","bound":0.2}]}"#,
        )
        .unwrap();
        let defs = with_manifest_bounds(vec![lower(0.1)], &ok).unwrap();
        assert_eq!(defs[0].bound, Some(0.2));
        for bad in [
            r#"{"end_to_end":[{"name":"iter_ms_p50","bound":0.5}]}"#,
            r#"{"end_to_end":[{"name":"other","bound":0.1}]}"#,
            r#"{}"#,
        ] {
            let bad = crate::json::parse(bad).unwrap();
            assert!(with_manifest_bounds(vec![lower(0.1)], &bad).is_err());
        }
    }
}
