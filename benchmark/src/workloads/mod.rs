//! The seven workloads. Each module owns one `round` function (fresh
//! inputs, fresh threads, warm-up, timed iterations, checks); this file
//! names them, says why each exists, and sizes them.

pub mod adam;
pub mod autotune;
pub mod coll;
pub mod mp;
pub mod stream;

use coconet_core::CommSched;
use coconet_models::OptimizerSchedule;
use coconet_runtime::BytesLedger;

use crate::harness::{Round, RoundCfg};

/// Folds per-rank iteration times into the round: the slowest rank sets
/// an iteration's time, and an iteration any rank failed is failed.
fn merge_rank_times<'a>(out: &mut Round, ranks: impl Iterator<Item = &'a [Option<f64>]>) {
    let ranks: Vec<&[Option<f64>]> = ranks.collect();
    let iters = ranks.iter().map(|r| r.len()).min().unwrap_or(0);
    for i in 0..iters {
        match ranks
            .iter()
            .map(|r| r[i])
            .try_fold(0.0f64, |m, t| t.map(|t| m.max(t)))
        {
            Some(ms) => out.iter_ms.push(ms),
            None => out.failed += 1,
        }
    }
}

/// Rank 0's ledger over the timed iterations, as named totals. Wire
/// bytes include what the rank moved while hosting the emulated switch
/// dataplane.
fn ledger_counts(out: &mut Round, ledger: &BytesLedger) {
    let wire = ledger.bytes_sent + ledger.switch_bytes_sent;
    out.counts.insert("wire_bytes".into(), wire as f64);
    out.counts.insert("sends".into(), ledger.sends as f64);
    out.counts
        .insert("allocs".into(), ledger.allocations as f64);
    out.counts
        .insert("alloc_bytes".into(), ledger.bytes_allocated as f64);
    out.counts
        .insert("cow_bytes".into(), ledger.cow_bytes as f64);
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AdamFused,
    MpOverlap,
    StreamPriority,
    StreamBarriered,
    CollDense,
    CollCompressed,
    AutotuneCold,
}

impl Workload {
    pub const ALL: [Workload; 7] = [
        Workload::AdamFused,
        Workload::MpOverlap,
        Workload::StreamPriority,
        Workload::StreamBarriered,
        Workload::CollDense,
        Workload::CollCompressed,
        Workload::AutotuneCold,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AdamFused => "adam_fused",
            Workload::MpOverlap => "mp_overlap",
            Workload::StreamPriority => "stream_priority",
            Workload::StreamBarriered => "stream_barriered",
            Workload::CollDense => "coll_dense",
            Workload::CollCompressed => "coll_compressed",
            Workload::AutotuneCold => "autotune_cold",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark: the layer that does most
    /// of its work and the ones it bypasses. `BENCHMARK.json` carries
    /// the same lines.
    pub fn why(self) -> &'static str {
        match self {
            Workload::AdamFused => {
                "Fig. 10 path: fused RS-Adam-AG through the SPMD interpreter and pointwise kernels; no codec, scheduler or GEMM work"
            }
            Workload::MpOverlap => {
                "Fig. 11 path: overlapped MatMul+AllReduce where tensor::matmul dominates; GEMM work shows here and nowhere else"
            }
            Workload::StreamPriority => {
                "runtime::stream under CommSched::Priority (scheduler polling, ready-epochs); a scheduler fix must show here"
            }
            Workload::StreamBarriered => {
                "the same loop and callbacks under CommSched::Barriered; a Priority gain that costs the drain path shows as a regression here"
            }
            Workload::CollDense => {
                "ring/tree/hierarchical x 1,4 channels x 2^12,2^20 on the dense wire: fabric hops and fold kernels, zero codec work"
            }
            Workload::CollCompressed => {
                "Fp16 ring/tree, TopK 10 permille and the Q15.16 switch: codecs and runtime::switch do most of the work"
            }
            Workload::AutotuneCold => {
                "cold Autotuner::tune of Adam, LAMB and the model-parallel block on the simulator: compile side only, no runtime work"
            }
        }
    }

    /// Timed iterations per second of `--seconds`, fixed from probes on
    /// the 2-core reference host so that a run there measures for about
    /// `--seconds`. A constant, not a calibration: the iteration count
    /// for a given `--seconds` is the same on every host and commit.
    pub fn iters_per_second(self) -> f64 {
        match self {
            Workload::AdamFused => 12.0,
            Workload::MpOverlap => 32.0,
            Workload::StreamPriority | Workload::StreamBarriered => 100.0,
            Workload::CollDense => 110.0,
            Workload::CollCompressed => 15.0,
            Workload::AutotuneCold => 55.0,
        }
    }

    /// Timed iterations of a pass that should measure for `seconds`.
    pub fn iters_for(self, seconds: f64) -> usize {
        (self.iters_per_second() * seconds).ceil().max(1.0) as usize
    }

    /// Runs one round.
    pub fn round(self, cfg: &RoundCfg) -> Round {
        match self {
            Workload::AdamFused => adam::round(cfg, OptimizerSchedule::FusedRsOptAg, adam::N),
            Workload::MpOverlap => mp::round(cfg, mp::DIM),
            Workload::StreamPriority => {
                stream::round(cfg, CommSched::Priority, stream::LAYER_ELEMS)
            }
            Workload::StreamBarriered => {
                stream::round(cfg, CommSched::Barriered, stream::LAYER_ELEMS)
            }
            Workload::CollDense => coll::round(cfg, &coll::dense_mix()),
            Workload::CollCompressed => coll::round(cfg, &coll::compressed_mix()),
            Workload::AutotuneCold => autotune::round(cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.why().len() <= 200,
                "{}: why is {} chars",
                w.name(),
                w.why().len()
            );
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn slowest_rank_sets_the_time_and_any_failure_fails_the_iteration() {
        let mut out = Round::default();
        let (a, b) = (
            [Some(1.0), Some(5.0), None],
            [Some(2.0), Some(3.0), Some(1.0)],
        );
        merge_rank_times(&mut out, [a.as_slice(), b.as_slice()].into_iter());
        assert_eq!(out.iter_ms, vec![2.0, 5.0]);
        assert_eq!(out.failed, 1);
    }

    #[test]
    fn iteration_counts_scale_with_seconds_and_never_reach_zero() {
        assert_eq!(Workload::AdamFused.iters_for(10.0), 120);
        assert_eq!(Workload::AdamFused.iters_for(0.01), 1);
        assert!(Workload::ALL.iter().all(|w| w.iters_for(10.0) >= 100));
    }
}
