//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--probes <file>]
//! benchmark run (--all | --workload <name>) [--seed <n>] [--seconds <s>]
//!               [--quick] [--runs <n>] [--out <file>]
//! benchmark compare <a.json> <b.json> [--bounds <BENCHMARK.json>]
//! benchmark manifest
//! ```
//!
//! The first form measures one workload in this process and prints one
//! JSON object as the last line of its output. `run` starts that form
//! once per workload and pass, each in a child process of its own, and
//! writes a result file; `compare` judges two result files. `--probes`
//! is how `run` hands the first traced child's probe-step numbers to
//! the later ones, so that one `run` makes the probe step once.

mod compare;
mod harness;
mod json;
mod metrics;
mod probes;
mod reference;
mod spans;
mod stats;
mod workloads;

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use harness::{host_cores, run_pass, RANKS, ROUNDS, RUN_SECONDS};
use json::{text, Json, JsonExt};
use metrics::{Metric, TracedRun, Values};
use workloads::Workload;

/// A child that has not finished by then is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("manifest") => cmd_manifest(&args[1..]),
        Some(flag) if flag.starts_with("--") => cmd_measure(&args),
        _ => Err(format!("usage:\n{}", usage())),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

fn usage() -> &'static str {
    "  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--probes <file>]\n  \
     benchmark run (--all | --workload <name>) [--seed <n>] [--seconds <s>] [--quick] [--runs <n>] [--out <file>]\n  \
     benchmark compare <a.json> <b.json> [--bounds <BENCHMARK.json>]\n  \
     benchmark manifest"
}

/// `--key value` pairs and bare `--switch`es, checked against what the
/// subcommand knows. Positional arguments come back in order.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut f = Flags {
            pairs: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if valued.contains(&arg.as_str()) {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                f.pairs.push((arg.clone(), value.clone()));
            } else if switches.contains(&arg.as_str()) {
                f.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(format!("unknown option {arg}\n{}", usage()));
            } else {
                f.positional.push(arg.clone());
            }
        }
        Ok(f)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn number<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| v.parse().map_err(|_| format!("{key}: cannot read {v:?}")))
            .transpose()
    }
}

fn workload_named(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

fn seconds_arg(flags: &Flags) -> Result<f64, String> {
    let s = flags
        .number::<f64>("--seconds")?
        .unwrap_or(RUN_SECONDS as f64);
    if s.is_finite() && s > 0.0 && s <= 60.0 {
        Ok(s)
    } else {
        Err(format!("--seconds must be in (0, 60], got {s}"))
    }
}

// ---------------------------------------------------------------- measure

/// What one measurement of one workload produced.
struct Measurement {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    checksum: u64,
    notes: Vec<String>,
    /// Invariants of a traced run that did not hold.
    broken: Vec<String>,
}

/// `probes`: the probe-step numbers of an earlier traced run with the
/// same seed, to use in place of making the probe step again.
fn measure(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    probes: Option<Values>,
) -> Measurement {
    let iters = w.iters_for(seconds);
    if !trace {
        let pass = run_pass(w, seed, iters, false);
        return Measurement {
            correct: pass.failed == 0 && !pass.iter_ms.is_empty(),
            attempted: pass.attempted,
            failed: pass.failed,
            metrics: metrics::end_to_end(&pass),
            checksum: pass.checksum,
            notes: Vec::new(),
            broken: Vec::new(),
        };
    }
    // The traced run: a quarter of the iterations with tracing off, the
    // same again with the benchmark's spans and the program's tracer
    // on, then the probe step.
    let quarter = (iters / 4).max(ROUNDS);
    let run = TracedRun {
        untraced: run_pass(w, seed, quarter, false),
        traced: run_pass(w, seed, quarter, true),
    };
    let (metrics, mut broken) = metrics::per_layer(w, seed, &run, probes);
    let mut notes = Vec::new();
    match write_trace(w, seed, &run.traced.spans) {
        Ok(path) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => broken.push(format!("could not write the span file: {e}")),
    }
    let failed = run.untraced.failed + run.traced.failed;
    Measurement {
        correct: failed == 0 && broken.is_empty(),
        attempted: run.untraced.attempted + run.traced.attempted,
        failed,
        metrics,
        checksum: run.untraced.checksum,
        notes,
        broken,
    }
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_trace(
    w: Workload,
    seed: u64,
    spans: &[(u32, Vec<spans::Span>)],
) -> Result<PathBuf, String> {
    let path = out_dir().join(format!("{}-seed{seed}.trace.json", w.name()));
    let trace = spans::chrome_trace(&spans::by_thread(spans));
    write_file(&path, &trace.render())?;
    Ok(path)
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", text(m.unit))]),
        )
    }))
}

/// The probe-step numbers in the `metrics` object an earlier traced run
/// printed (`run` saves it to a file for the later ones). Every
/// per-layer name must be there, so that what is computed from them
/// later cannot miss one.
fn probes_from(saved: &Json) -> Result<Values, String> {
    metrics::per_layer_defs()
        .into_iter()
        .map(|d| {
            let value = saved
                .get(&d.name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("no value for {}", d.name))?;
            Ok((d.name, value))
        })
        .collect()
}

fn cmd_measure(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace", "--probes"],
        &[],
    )?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", flags.positional[0]));
    }
    let w = workload_named(flags.get("--workload").ok_or("--workload is required")?)?;
    let seed: u64 = flags.number("--seed")?.unwrap_or(1);
    let seconds = seconds_arg(&flags)?;
    let trace = match flags.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let probes = flags
        .get("--probes")
        .map(|path| probes_from(&read_json(path)?).map_err(|e| format!("{path}: {e}")))
        .transpose()?;
    if host_cores() < RANKS {
        return Err(format!(
            "this host reports {} core(s); the workloads pin {RANKS} rank threads and are not \
             measured with ranks sharing a core",
            host_cores()
        ));
    }

    harness::settle_allocator();
    let started = Instant::now();
    let m = measure(w, seed, seconds, trace, probes);
    println!(
        "workload {}  seed {seed}  seconds {seconds}  trace {}  host_cores {}  took {:.1} s",
        w.name(),
        u8::from(trace),
        host_cores(),
        started.elapsed().as_secs_f64()
    );
    for metric in &m.metrics {
        println!(
            "  {:<36} {:>16.6} {}",
            metric.name, metric.value, metric.unit
        );
    }
    for note in &m.notes {
        println!("  note: {note}");
    }
    for broken in &m.broken {
        println!("!!!! BROKEN: {broken} !!!!");
    }
    println!("checksum {:#018x}", m.checksum);
    if m.failed > 0 {
        println!(
            "!!!! {} of {} operations FAILED on {} !!!!",
            m.failed,
            m.attempted,
            w.name()
        );
    }
    let line = Json::obj([
        ("correct", Json::Bool(m.correct)),
        ("attempted", Json::Num(m.attempted as f64)),
        ("failed", Json::Num(m.failed as f64)),
        ("metrics", metrics_json(&m.metrics)),
    ]);
    println!("{}", line.render());
    Ok(ExitCode::SUCCESS)
}

// -------------------------------------------------------------------- run

/// Runs one measurement in a child process and returns its printed
/// lines. The child is killed if it outlives [`CHILD_TIMEOUT`], and is
/// always waited for.
fn run_child(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    probes: Option<&Path>,
) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(
            probes
                .iter()
                .flat_map(|p| [OsStr::new("--probes"), p.as_os_str()]),
        )
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    // Drain the pipe on a thread so a chatty child never blocks on it.
    let mut pipe = child.stdout.take().expect("stdout was piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut pipe, &mut text).map(|_| text)
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("timed out after {} s", CHILD_TIMEOUT.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(50)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("cannot wait for the child: {e}"));
            }
        }
    };
    let text = reader
        .join()
        .map_err(|_| "the pipe reader panicked".to_string())?
        .map_err(|e| format!("cannot read the child's output: {e}"))?;
    let status = status?;
    if !status.success() {
        return Err(format!("child exited with {status}"));
    }
    Ok(text.lines().map(str::to_string).collect())
}

/// One child measurement as it goes into the result file.
fn child_record(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    probes: Option<&Path>,
) -> (Json, bool) {
    let failed_record = |why: String| {
        println!(
            "!!!! {} (trace {}) FAILED: {why} !!!!",
            w.name(),
            u8::from(trace)
        );
        (
            Json::obj([("correct", Json::Bool(false)), ("error", text(why))]),
            false,
        )
    };
    let lines = match run_child(w, seed, seconds, trace, probes) {
        Ok(lines) => lines,
        Err(why) => return failed_record(why),
    };
    let Some((last, shown)) = lines.split_last() else {
        return failed_record("the child printed nothing".into());
    };
    for line in shown {
        println!("{line}");
    }
    let Ok(result) = json::parse(last) else {
        return failed_record("the child's last line is not JSON".into());
    };
    let checksum = shown
        .iter()
        .find_map(|l| l.strip_prefix("checksum "))
        .unwrap_or("")
        .to_string();
    let ok = result.get("correct").and_then(Json::as_bool) == Some(true);
    let mut pairs = match result {
        Json::Obj(pairs) => pairs,
        _ => return failed_record("the child's last line is not an object".into()),
    };
    pairs.push(("checksum".into(), Json::Str(checksum)));
    (Json::Obj(pairs), ok)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--runs", "--out"],
        &["--all", "--quick"],
    )?;
    let selected: Vec<Workload> = match (flags.has("--all"), flags.get("--workload")) {
        (true, None) => Workload::ALL.to_vec(),
        (false, Some(name)) => vec![workload_named(name)?],
        _ => return Err("give exactly one of --all and --workload <name>".into()),
    };
    let seed: u64 = flags.number("--seed")?.unwrap_or(1);
    let runs: u64 = flags.number("--runs")?.unwrap_or(1).max(1);
    let quick = flags.has("--quick");
    let seconds = seconds_arg(&flags)? / if quick { 10.0 } else { 1.0 };
    let out = flags.get("--out").map_or_else(
        || out_dir().join(format!("result-seed{seed}.json")),
        PathBuf::from,
    );

    let mut all_ok = true;
    let mut run_records = Vec::new();
    for r in 0..runs {
        let run_seed = seed + r;
        let mut workload_records = Vec::new();
        // The first traced child makes the probe step; its numbers are
        // saved here and handed to the later ones.
        let probes_path = out_dir().join(format!("probes-seed{run_seed}.json"));
        let mut probes_saved = false;
        for &w in &selected {
            let (plain, plain_ok) = child_record(w, run_seed, seconds, false, None);
            let (traced, traced_ok) = child_record(
                w,
                run_seed,
                seconds,
                true,
                probes_saved.then_some(&probes_path),
            );
            all_ok &= plain_ok && traced_ok;
            let part = |record: &Json, key: &str| record.get(key).cloned().unwrap_or(Json::Null);
            if traced_ok && !probes_saved {
                write_file(&probes_path, &part(&traced, "metrics").render_pretty())?;
                probes_saved = true;
            }
            workload_records.push((
                w.name().to_string(),
                Json::obj([
                    ("correct", Json::Bool(plain_ok && traced_ok)),
                    ("attempted", part(&plain, "attempted")),
                    ("failed", part(&plain, "failed")),
                    ("checksum", part(&plain, "checksum")),
                    ("end_to_end", part(&plain, "metrics")),
                    ("traced_attempted", part(&traced, "attempted")),
                    ("traced_failed", part(&traced, "failed")),
                    ("per_layer", part(&traced, "metrics")),
                ]),
            ));
        }
        // Both stream schedules must end on the same parameters, bit
        // for bit, having moved the same bytes.
        let field = |name: &str, path: &[&str]| {
            let (_, record) = workload_records.iter().find(|(n, _)| n == name)?;
            path.iter().try_fold(record, |j, key| j.get(key)).cloned()
        };
        let (p, b) = ("stream_priority", "stream_barriered");
        if selected.len() == Workload::ALL.len() {
            let wire = ["per_layer", "harness.wire_mb_per_iter", "value"];
            let same = field(p, &["checksum"]).is_some()
                && field(p, &["checksum"]) == field(b, &["checksum"])
                && field(p, &wire) == field(b, &wire);
            if !same {
                println!("!!!! {p} and {b} DISAGREE on final parameters or wire bytes !!!!");
                all_ok = false;
            }
        }
        run_records.push(Json::obj([
            ("seed", Json::Num(run_seed as f64)),
            ("workloads", Json::Obj(workload_records)),
        ]));
    }

    let result = Json::obj([
        ("schema", text("coconet-benchmark/1")),
        (
            "env",
            Json::obj([
                ("seed", Json::Num(seed as f64)),
                ("runs", Json::Num(runs as f64)),
                ("seconds", Json::Num(seconds)),
                ("quick", Json::Bool(quick)),
                ("nproc", Json::Num(host_cores() as f64)),
                ("ranks", Json::Num(RANKS as f64)),
                ("rustc", Json::Str(command_line("rustc", &["-V"]))),
                (
                    "git_sha",
                    // Of the repo the binary was built from, wherever it runs.
                    Json::Str(command_line(
                        "git",
                        &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
                    )),
                ),
                (
                    "pool_width",
                    Json::Num(coconet_tensor::kernels::pool_width() as f64),
                ),
            ]),
        ),
        ("runs", Json::Arr(run_records)),
    ]);
    write_file(&out, &result.render_pretty())?;
    println!("result written to {}", out.display());
    if !all_ok {
        println!("!!!! at least one workload FAILED; see above !!!!");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

// --------------------------------------------------------------- compare

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(args, &["--bounds"], &[])?;
    let [a, b] = flags.positional.as_slice() else {
        return Err("compare takes two result files".into());
    };
    let manifest = read_json(flags.get("--bounds").unwrap_or("BENCHMARK.json"))?;
    let defs = compare::with_manifest_bounds(metrics::end_to_end_defs(), &manifest)?;
    let (a, b) = (read_json(a)?, read_json(b)?);
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let rows = compare::compare(&a, &b, &names, &defs)?;
    print!("{}", compare::render(&rows));
    if rows.iter().any(|r| r.verdict == compare::Verdict::Worse) {
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

// -------------------------------------------------------------- manifest

fn cmd_manifest(args: &[String]) -> Result<ExitCode, String> {
    if let Some(arg) = args.first() {
        return Err(format!("manifest takes no argument, got {arg:?}"));
    }
    print!("{}", metrics::manifest().render_pretty());
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_values_switches_and_positionals() {
        let f = Flags::parse(
            &strings(&["a.json", "--seed", "7", "--all", "b.json", "--seed", "9"]),
            &["--seed"],
            &["--all"],
        )
        .unwrap();
        assert_eq!(f.get("--seed"), Some("9"), "the last value wins");
        assert!(f.has("--all") && !f.has("--quick"));
        assert_eq!(f.positional, strings(&["a.json", "b.json"]));
        assert_eq!(f.number::<u64>("--seed").unwrap(), Some(9));
        assert_eq!(f.number::<u64>("--runs").unwrap(), None);
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        assert!(Flags::parse(&strings(&["--seed"]), &["--seed"], &[]).is_err());
        assert!(Flags::parse(&strings(&["--nope"]), &["--seed"], &[]).is_err());
        let f = Flags::parse(&strings(&["--seed", "x"]), &["--seed"], &[]).unwrap();
        assert!(f.number::<u64>("--seed").is_err());
        assert!(workload_named("nope").is_err());
        let f = Flags::parse(&strings(&["--seconds", "0"]), &["--seconds"], &[]).unwrap();
        assert!(seconds_arg(&f).is_err());
        let f = Flags::parse(&strings(&["--seconds", "1e9"]), &["--seconds"], &[]).unwrap();
        assert!(seconds_arg(&f).is_err());
    }

    #[test]
    fn saved_probes_must_name_every_per_layer_metric() {
        let all: Vec<Metric> = metrics::per_layer_defs()
            .into_iter()
            .enumerate()
            .map(|(i, d)| Metric {
                name: d.name,
                value: i as f64,
                unit: d.unit,
            })
            .collect();
        let probes = probes_from(&metrics_json(&all)).unwrap();
        assert_eq!(probes.len(), all.len());
        assert_eq!(probes[&all[3].name], 3.0);
        assert!(probes_from(&metrics_json(&all[1..])).is_err());
        assert!(probes_from(&Json::Null).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let metrics = vec![Metric {
            name: "setup_s".into(),
            value: 0.8127,
            unit: "s",
        }];
        let j = metrics_json(&metrics);
        assert_eq!(j.render(), r#"{"setup_s":{"value":0.8127,"unit":"s"}}"#);
    }
}
