//! The benchmark's own span recorder: one in-memory list per thread,
//! written out once at exit as Chrome trace JSON.
//!
//! Spans wrap the calls the benchmark makes *into* a layer and the
//! callbacks the program makes back *out* to the benchmark; nothing
//! here reaches inside the program. Timestamps come from
//! `coconet_trace::now_ns`, so spans share a clock with the program's
//! own completion records.
//!
//! A span's self time is its duration minus its direct children's. The
//! per-iteration container span belongs to the layer [`HARNESS`]; its
//! self time is wall the benchmark could not attribute to any layer
//! call — the budget residual.

use std::cell::RefCell;
use std::collections::BTreeMap;

use crate::json::{text, Json};

/// Layer tag of spans that are the benchmark's own loop, not a call
/// into the program.
pub const HARNESS: &str = "harness";

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The repo layer the spanned call belongs to (or [`HARNESS`]).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Timed-iteration id the span belongs to.
    pub iter: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<usize>,
    iter: u64,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread.
pub fn start() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recorder::default()));
}

/// Stops recording on the calling thread and returns what it held.
/// Spans still open are closed at the current time.
pub fn finish() -> Vec<Span> {
    let now = coconet_trace::now_ns();
    let Some(mut rec) = RECORDER.with(|r| r.borrow_mut().take()) else {
        return Vec::new();
    };
    for idx in rec.open.drain(..) {
        rec.spans[idx].end_ns = now;
    }
    rec.spans
}

/// Stamps spans begun from now on with iteration id `iter`.
pub fn set_iter(iter: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.iter = iter;
        }
    });
}

/// Opens a span; a no-op when the thread is not recording.
pub fn begin(name: &'static str, layer: &'static str) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            let idx = rec.spans.len();
            rec.spans.push(Span {
                name,
                layer,
                start_ns: coconet_trace::now_ns(),
                end_ns: 0,
                parent: rec.open.last().copied(),
                iter: rec.iter,
            });
            rec.open.push(idx);
        }
    });
}

/// Closes the innermost open span.
pub fn end() {
    let now = coconet_trace::now_ns();
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            if let Some(idx) = rec.open.pop() {
                rec.spans[idx].end_ns = now;
            }
        }
    });
}

/// Runs `f` inside a span.
pub fn scope<T>(name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
    begin(name, layer);
    let out = f();
    end();
    out
}

/// Self time of every span: duration minus direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Where one thread's timed wall went.
#[derive(Clone, Debug, PartialEq)]
pub struct Budget {
    /// Summed duration of the root spans: the timed wall.
    pub wall_ns: u64,
    /// Summed self time per layer; the values add up to `wall_ns`.
    pub by_layer: BTreeMap<&'static str, u64>,
}

impl Budget {
    /// Share of the wall that no layer call accounts for.
    pub fn residual_frac(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.by_layer.get(HARNESS).copied().unwrap_or(0) as f64 / self.wall_ns as f64
    }
}

/// Attributes one thread's spans to layers by self time.
pub fn budget(spans: &[Span]) -> Budget {
    let mut by_layer = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *by_layer.entry(s.layer).or_insert(0) += own;
    }
    let wall_ns = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    Budget { wall_ns, by_layer }
}

/// Concatenates the span lists that share a thread id (one list per
/// round) into one list per thread, re-basing parent indices.
pub fn by_thread(lists: &[(u32, Vec<Span>)]) -> Vec<(u32, Vec<Span>)> {
    let mut merged: Vec<(u32, Vec<Span>)> = Vec::new();
    for (tid, list) in lists {
        let at = match merged.iter().position(|(t, _)| t == tid) {
            Some(at) => at,
            None => {
                merged.push((*tid, Vec::new()));
                merged.len() - 1
            }
        };
        let all = &mut merged[at].1;
        let base = all.len();
        all.extend(list.iter().cloned().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    merged
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span, one `tid` per recording thread. `args` carries the
/// iteration id, the span's own index and its parent's, and self time.
pub fn chrome_trace(threads: &[(u32, Vec<Span>)]) -> Json {
    let mut events = Vec::new();
    for (tid, spans) in threads {
        let own = self_times_ns(spans);
        for (idx, s) in spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", text(s.name)),
                ("cat", text(s.layer)),
                ("ph", text("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(0.0)),
                ("tid", Json::Num(f64::from(*tid))),
                (
                    "args",
                    Json::obj([
                        ("iter", Json::Num(s.iter as f64)),
                        ("id", Json::Num(idx as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_us", Json::Num(own[idx] as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([
        ("displayTimeUnit", text("ms")),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonExt;

    fn span(
        name: &'static str,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent,
            iter: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("iter", HARNESS, 0, 100, None),
            span("call", "runtime", 10, 90, Some(0)),
            span("callback", "tensor", 20, 50, Some(1)),
            span("callback", "tensor", 60, 70, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 40, 30, 10]);
    }

    #[test]
    fn budget_sums_to_the_wall_and_reports_the_residual() {
        let spans = vec![
            span("iter", HARNESS, 0, 100, None),
            span("a", "runtime", 0, 60, Some(0)),
            span("b", "tensor", 60, 98, Some(0)),
            span("iter", HARNESS, 100, 200, None),
            span("a", "runtime", 100, 200, Some(3)),
        ];
        let b = budget(&spans);
        assert_eq!(b.wall_ns, 200);
        assert_eq!(b.by_layer.values().sum::<u64>(), b.wall_ns);
        assert_eq!(b.by_layer[HARNESS], 2);
        assert_eq!(b.by_layer["runtime"], 160);
        assert_eq!(b.residual_frac(), 0.01);
        assert_eq!(budget(&[]).residual_frac(), 0.0);
    }

    #[test]
    fn recorder_nests_stamps_iterations_and_is_inert_when_off() {
        begin("ignored", HARNESS);
        end();
        assert!(finish().is_empty());

        start();
        set_iter(7);
        begin("iter", HARNESS);
        let v = scope("call", "runtime", || 42);
        assert_eq!(v, 42);
        begin("left-open", "tensor");
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.iter == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        assert!(finish().is_empty());
    }

    #[test]
    fn by_thread_concatenates_rounds_and_rebases_parents() {
        let round = || {
            vec![
                span("iter", HARNESS, 0, 10, None),
                span("call", "runtime", 1, 9, Some(0)),
            ]
        };
        let merged = by_thread(&[(0, round()), (1, round()), (0, round())]);
        assert_eq!(merged.len(), 2);
        let (tid, spans) = &merged[0];
        assert_eq!((*tid, spans.len()), (0, 4));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(budget(spans).wall_ns, 20);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span("iter", HARNESS, 1_000, 5_000, None),
            span("call", "runtime", 2_000, 4_000, Some(0)),
        ];
        let j = chrome_trace(&[(0, spans)]);
        let events = j.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(2.0));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(args.get("self_us").and_then(Json::as_f64), Some(2.0));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
