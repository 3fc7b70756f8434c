//! Regenerates or checks `BENCH_coconet.json`, the reproducible record
//! of the simulator's paper-figure predictions (`costed` rows) and the
//! runtime's exact byte/bit invariants (`invariant` rows).
//!
//! ```text
//! report [--out PATH] [--check] [--trace-out PATH]
//! ```
//!
//! - `--out`        the file (default `BENCH_coconet.json`)
//! - `--check`      do not write: regenerate the document and fail on
//!   any difference from the file, in either direction — a row on one
//!   side only, a field added, removed, or changed in any digit
//! - `--trace-out`  also write the `overlap_trace` priority run's
//!   Chrome trace-event JSON to PATH — loadable in Perfetto
//!   (ui.perfetto.dev) or `chrome://tracing`, one pid per rank, one
//!   tid per stripe lane
//!
//! Readings that depend on the host (hidden-communication fractions,
//! sim-vs-measured drift, tuner walls and pruning counts) are printed,
//! never written.
//!
//! Exit status: `0` on success; `1` when a row's check does not hold
//! or, under `--check`, when the file is not what this build generates.

use std::process::ExitCode;

use coconet_bench::json::Json;
use coconet_bench::{fmt_time, fmt_x, trajectory, Kind, Report};

struct Args {
    out: String,
    check: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: "BENCH_coconet.json".to_string(),
        check: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--out" => args.out = value("--out")?,
            "--check" => args.check = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let trajectory = trajectory::collect()?;
    let doc = trajectory.to_json();

    let mut table = Report::new(
        "BENCH_coconet.json",
        &["row", "kind", "baseline", "coconet", "speedup", "checks"],
    );
    for r in &trajectory.rows {
        let held = r.checks.iter().filter(|c| c.holds()).count();
        let checks = if r.checks.is_empty() {
            "-".to_string()
        } else {
            format!("{held}/{}", r.checks.len())
        };
        let [kind, baseline, coconet, speedup] = match r.kind {
            Kind::Costed {
                baseline_s,
                coconet_s,
            } => [
                "costed".to_string(),
                fmt_time(baseline_s),
                fmt_time(coconet_s),
                fmt_x(baseline_s / coconet_s),
            ],
            Kind::Invariant => ["invariant", "-", "-", "-"].map(String::from),
        };
        table.row(&[r.name.to_string(), kind, baseline, coconet, speedup, checks]);
    }
    table.print();

    let mut readings = Report::new(
        "Host-dependent readings (printed, never written)",
        &["row", "reading", "value"],
    );
    for r in &trajectory.rows {
        for (label, value) in &r.readings {
            readings.row(&[r.name.to_string(), label.clone(), value.clone()]);
        }
    }
    readings.print();

    if let Some(path) = &args.trace_out {
        std::fs::write(path, &trajectory.trace_json).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path} (load it at ui.perfetto.dev or chrome://tracing)");
    }

    let mut errors = trajectory.failures();
    if args.check {
        let path = &args.out;
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let committed = Json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        match trajectory::check_against(&committed, &doc) {
            Ok(()) => println!("{path} is exactly what this build generates"),
            Err(diffs) => errors.push(format!(
                "{path} is not what this build generates — rerun `report` and \
                 commit the result if the change is intended:\n{diffs}"
            )),
        }
    } else {
        // Written whether or not every check held, so the file is
        // there for diagnosis on a failing run.
        std::fs::write(&args.out, doc.render_pretty())
            .map_err(|e| format!("writing {}: {e}", args.out))?;
        println!("wrote {}", args.out);
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
