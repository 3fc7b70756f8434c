//! The shared run structure: rounds, passes and the per-process facts
//! (cores, peak memory) every result carries.
//!
//! A *round* is one fresh start of a workload: new inputs, new rank
//! threads, warm-up, then a fixed number of timed iterations. A *pass*
//! is [`ROUNDS`] rounds. Iteration counts are fixed by the workload and
//! `--seconds`, never by a clock, so byte and call counts repeat
//! exactly on any host.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use coconet_trace::{Event, EventKind};

use crate::spans::Span;
use crate::workloads::Workload;

/// Rank threads of every workload: pinned, so counts repeat on any
/// host and ranks never outnumber the reference host's two cores.
pub const RANKS: usize = 2;

/// Seconds one run measures: what `BENCHMARK.json` states as
/// `run_seconds` and what `--seconds` defaults to.
pub const RUN_SECONDS: u64 = 10;

/// Rounds per pass.
pub const ROUNDS: usize = 5;

/// Untimed iterations at the start of every round.
pub const WARMUP_ITERS: usize = 2;

/// Layer tags, named after the repo's modules.
pub mod layer {
    pub const CORE: &str = "core";
    pub const TENSOR: &str = "tensor";
    pub const COLLECTIVES: &str = "runtime.collectives";
    pub const STREAM: &str = "runtime.stream";
    pub const EXECUTOR: &str = "runtime.executor";
    pub const OVERLAP: &str = "runtime.overlap_exec";
}

/// What one round is asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RoundCfg {
    pub seed: u64,
    pub round: usize,
    pub iters: usize,
    /// Record the benchmark's spans and time the callbacks.
    pub traced: bool,
}

impl RoundCfg {
    /// Counter offset that keeps every round's and every tensor's
    /// random stream apart: `tensor` numbers the tensors of one round.
    pub fn offset(&self, tensor: u64) -> u64 {
        ((self.round as u64) << 40) | (tensor << 32)
    }
}

/// What one round measured.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Wall seconds of set-up: input generation, schedule build, thread
    /// spawn and warm-up. Reference answers are computed off this clock.
    pub setup_s: f64,
    /// Wall milliseconds of each timed iteration that completed and
    /// passed its check.
    pub iter_ms: Vec<f64>,
    /// Timed iterations that returned an error or failed their check.
    pub failed: usize,
    /// Named per-iteration series (milliseconds unless the name says
    /// otherwise), e.g. one per collective mix entry.
    pub series: BTreeMap<String, Vec<f64>>,
    /// Named totals over the timed iterations: bytes, sends, allocations.
    pub counts: BTreeMap<String, f64>,
    /// The benchmark's spans, per recording thread (rank).
    pub spans: Vec<(u32, Vec<Span>)>,
    /// Order-sensitive digest of the final output bits.
    pub checksum: u64,
}

/// Rounds merged.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    pub setup_s: Vec<f64>,
    pub iter_ms: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    pub series: BTreeMap<String, Vec<f64>>,
    pub counts: BTreeMap<String, f64>,
    pub spans: Vec<(u32, Vec<Span>)>,
    pub checksum: u64,
    /// What the program's own tracer recorded (traced passes only).
    pub program_trace: ProgramTrace,
}

impl Pass {
    /// Iterations behind `counts`: every attempted one ran to the end
    /// unless its round panicked.
    pub fn count_per_iter(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0) / self.attempted.max(1) as f64
    }

    pub fn series(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Totals over the events `coconet_trace` recorded during a pass.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProgramTrace {
    pub events: u64,
    pub dropped: u64,
    pub codec_events: u64,
    /// Rank 0 `Hop` events and the wire bytes they carry.
    pub rank0_hops: u64,
    pub rank0_hop_bytes: u64,
    /// Seconds of in-flight communication, and of that hidden under
    /// compute spans, by the program's own overlap profiler.
    pub comm_busy_s: f64,
    pub hidden_s: f64,
}

impl ProgramTrace {
    fn absorb(&mut self, events: &[Event], dropped: u64) {
        self.events += events.len() as u64;
        self.dropped += dropped;
        for e in events {
            match e.kind {
                EventKind::Codec => self.codec_events += 1,
                EventKind::Hop if e.rank == 0 => {
                    self.rank0_hops += 1;
                    self.rank0_hop_bytes += e.b;
                }
                _ => {}
            }
        }
        let overlap = coconet_trace::overlap::hidden_comm_fraction(events);
        self.comm_busy_s += overlap.comm_busy_s;
        self.hidden_s += overlap.hidden_s;
    }
}

/// Splits `total` iterations over [`ROUNDS`] rounds, at least one each.
pub fn iters_per_round(total: usize) -> usize {
    total.div_ceil(ROUNDS).max(1)
}

/// Runs `rounds` rounds of `iters` timed iterations each and merges
/// them. A round that panics (a rank thread died, an assertion inside
/// the program fired) marks all of its iterations failed and the next
/// round still runs. With `traced`, the program's own tracer is on for
/// the duration of each round and summarized into the pass.
pub fn run_rounds(
    label: &str,
    seed: u64,
    rounds: usize,
    iters: usize,
    traced: bool,
    round_fn: impl Fn(&RoundCfg) -> Round,
) -> Pass {
    let mut pass = Pass::default();
    for round in 0..rounds {
        let cfg = RoundCfg {
            seed,
            round,
            iters,
            traced,
        };
        if traced {
            coconet_trace::clear();
            coconet_trace::set_enabled(true);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| round_fn(&cfg)));
        if traced {
            // Rank threads are joined (or dead) by now, so the cut is
            // consistent. A fresh thread registers a fresh buffer, so
            // clearing per round keeps every buffer under capacity.
            coconet_trace::set_enabled(false);
            let events = coconet_trace::take_snapshot();
            pass.program_trace
                .absorb(&events, coconet_trace::dropped_events());
            coconet_trace::clear();
        }
        pass.attempted += iters;
        match outcome {
            Ok(r) => {
                pass.setup_s.push(r.setup_s);
                pass.iter_ms.extend(r.iter_ms);
                pass.failed += r.failed;
                for (k, v) in r.series {
                    pass.series.entry(k).or_default().extend(v);
                }
                for (k, v) in r.counts {
                    *pass.counts.entry(k).or_insert(0.0) += v;
                }
                pass.spans.extend(r.spans);
                pass.checksum = pass.checksum.rotate_left(7) ^ r.checksum;
            }
            Err(_) => {
                eprintln!(
                    "!! {label}: round {round} panicked; its {iters} iterations count as failed"
                );
                pass.failed += iters;
            }
        }
    }
    pass
}

/// One pass of a workload: [`ROUNDS`] rounds covering `total_iters`.
pub fn run_pass(w: Workload, seed: u64, total_iters: usize, traced: bool) -> Pass {
    let iters = iters_per_round(total_iters);
    run_rounds(w.name(), seed, ROUNDS, iters, traced, |cfg| w.round(cfg))
}

/// Folds the bit patterns of `values` into an order-sensitive digest.
pub fn digest(acc: u64, values: &[f32]) -> u64 {
    values.iter().fold(acc, |h, v| {
        (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Milliseconds between two `coconet_trace::now_ns` readings.
pub fn ms_between(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 / 1e6
}

/// Puts the allocator in the state a long-running process reaches,
/// before anything is timed. glibc raises its mmap and heap-trim
/// thresholds to the size of the largest block freed so far (up to
/// 32 MB) and never lowers them; until some multi-MB block has been
/// freed, every tensor-sized allocation is its own `mmap`, faulted in
/// page by page and unmapped on drop. In that start-up state the
/// allocation-heavy workloads spend most of their time in the guest
/// kernel (`coll_dense` 20 ms a pass against 8 ms settled) and whole
/// rounds differ by 30 %; settled, rounds agree within a few percent.
/// Freeing one block just under the 32 MB cap settles it for good. The
/// block is never touched, so it costs no resident memory.
pub fn settle_allocator() {
    drop(std::hint::black_box(vec![0u8; (32 << 20) - (64 << 10)]));
}

/// Cores the host reports.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// Peak resident set of this process in MB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_cover_the_requested_iterations() {
        assert_eq!(iters_per_round(100), 20);
        assert_eq!(iters_per_round(101), 21);
        assert_eq!(iters_per_round(3), 1);
        assert_eq!(iters_per_round(0), 1);
    }

    #[test]
    fn offsets_do_not_collide_across_rounds_and_tensors() {
        let cfg = |round| RoundCfg {
            seed: 1,
            round,
            iters: 1,
            traced: false,
        };
        assert_ne!(cfg(0).offset(1), cfg(1).offset(0));
        assert!(cfg(0).offset(1) - cfg(0).offset(0) >= 1 << 32);
    }

    #[test]
    fn digest_depends_on_order() {
        assert_ne!(digest(0, &[1.0, 2.0]), digest(0, &[2.0, 1.0]));
        assert_eq!(digest(7, &[]), 7);
    }

    #[test]
    fn peak_rss_is_positive_where_reported() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
