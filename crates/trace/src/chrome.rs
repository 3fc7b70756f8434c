//! Chrome trace-event JSON export (the `chrome://tracing` / Perfetto
//! format): one process (`pid`) per rank, one thread (`tid`) per
//! stripe lane, kernel-pool workers grouped under their own process
//! with one tid per worker thread.
//!
//! Spans become `"ph": "X"` complete events, instants become
//! `"ph": "i"` thread-scoped instants; timestamps and durations are
//! microseconds with nanosecond precision kept in the fraction.
//! Metadata events name every process and thread. The document is a
//! single `{"traceEvents": [...]}` object, the strictest of the
//! format's accepted containers — and the one the in-repo JSON parser
//! and `coconet-bench`'s `chrome_trace_check` (the `overlap_trace`
//! row's `malformed_chrome_exports` check) validate.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::{Event, RANK_UNATTRIBUTED};

/// The `pid` the kernel-pool workers (and any other unattributed
/// thread) are grouped under; real ranks use their rank as pid, and
/// real-world rank counts stay far below this.
pub const POOL_PID: u64 = 1_000_000;

fn pid_tid(ev: &Event) -> (u64, u64) {
    if ev.rank == RANK_UNATTRIBUTED {
        (POOL_PID, u64::from(ev.thread))
    } else {
        (u64::from(ev.rank), u64::from(ev.lane))
    }
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_meta(out: &mut String, name: &str, pid: u64, tid: u64, value: &str) {
    let _ = write!(
        out,
        "    {{\"ph\": \"M\", \"name\": \"{name}\", \"pid\": {pid}, \"tid\": {tid}, \
         \"args\": {{\"name\": \""
    );
    escape(value, out);
    out.push_str("\"}},\n");
}

/// Renders `events` as a Chrome trace-event JSON document. The result
/// loads directly in Perfetto (`ui.perfetto.dev`) or
/// `chrome://tracing`.
#[must_use]
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 64);
    out.push_str("{\n  \"traceEvents\": [\n");

    // Process/thread name metadata first, one entry per distinct id.
    let mut pids: BTreeSet<u64> = BTreeSet::new();
    let mut tids: BTreeSet<(u64, u64)> = BTreeSet::new();
    for ev in events {
        let (pid, tid) = pid_tid(ev);
        pids.insert(pid);
        tids.insert((pid, tid));
    }
    for &pid in &pids {
        let name = if pid == POOL_PID {
            "kernel-pool".to_string()
        } else {
            format!("rank {pid}")
        };
        push_meta(&mut out, "process_name", pid, 0, &name);
    }
    for &(pid, tid) in &tids {
        let name = if pid == POOL_PID {
            format!("worker {tid}")
        } else {
            format!("lane {tid}")
        };
        push_meta(&mut out, "thread_name", pid, tid, &name);
    }

    for (i, ev) in events.iter().enumerate() {
        let (pid, tid) = pid_tid(ev);
        let ts_us = ev.ts_ns as f64 / 1e3;
        out.push_str("    {\"name\": \"");
        escape(ev.label, &mut out);
        let _ = write!(
            out,
            "\", \"cat\": \"{}\", \"pid\": {pid}, \"tid\": {tid}, \"ts\": {ts_us:.3}, ",
            ev.kind.name()
        );
        if ev.dur_ns == 0 {
            out.push_str("\"ph\": \"i\", \"s\": \"t\", ");
        } else {
            let _ = write!(
                out,
                "\"ph\": \"X\", \"dur\": {:.3}, ",
                ev.dur_ns as f64 / 1e3
            );
        }
        let _ = write!(out, "\"args\": {{\"a\": {}, \"b\": {}}}}}", ev.a, ev.b);
        out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
    }
    // Trailing-comma fixup when there were metadata rows but no
    // events: the format (and our parser) rejects `[x,]`.
    if events.is_empty() && out.ends_with(",\n") {
        out.truncate(out.len() - 2);
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(kind: EventKind, rank: u32, lane: u32, ts: u64, dur: u64) -> Event {
        Event {
            ts_ns: ts,
            dur_ns: dur,
            kind,
            label: "t\"est",
            rank,
            lane,
            thread: 7,
            a: 1,
            b: 2,
        }
    }

    #[test]
    fn emits_complete_and_instant_phases_with_metadata() {
        let doc = chrome_trace_json(&[
            ev(EventKind::Compute, 0, 0, 1_000, 2_000),
            ev(EventKind::Hop, 0, 3, 1_500, 0),
            ev(EventKind::Kernel, RANK_UNATTRIBUTED, 0, 2_000, 500),
        ]);
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("\"ph\": \"X\""));
        assert!(doc.contains("\"ph\": \"i\""));
        assert!(doc.contains("\"ts\": 1.000"));
        assert!(doc.contains("\"dur\": 2.000"));
        assert!(doc.contains("rank 0"));
        assert!(doc.contains("lane 3"));
        assert!(doc.contains("kernel-pool"));
        assert!(doc.contains("worker 7"));
        assert!(doc.contains("t\\\"est"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let doc = chrome_trace_json(&[]);
        assert!(doc.contains("\"traceEvents\": [\n  ]"));
    }
}
