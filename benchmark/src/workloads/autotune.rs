//! `autotune_cold`: a fresh, uncached `Autotuner::default().tune` of
//! Adam, LAMB and the model-parallel self-attention block against the
//! simulator. Compile side only: `core` (transformations, lowering,
//! search) and `sim` (plan costing) run; no tensor is touched and no
//! byte moves.

use std::sync::atomic::{AtomicU64, Ordering};

use coconet_core::{Autotuner, Binding, CommConfig, ExecPlan, PlanEvaluator, Program, TuneReport};
use coconet_models::model_parallel::{block_program, Block};
use coconet_models::optimizers::optimizer_program;
use coconet_models::{Hyper, Optimizer};
use coconet_sim::Simulator;
use coconet_topology::MachineSpec;

use crate::harness::{layer, ms_between, Round, RoundCfg, WARMUP_ITERS};
use crate::spans;

/// One program to tune, at the geometry the paper tunes it at.
pub struct Case {
    pub name: &'static str,
    pub program: Program,
    pub binding: Binding,
    pub sim: Simulator,
}

/// Adam and LAMB at 256 ranks × 2^26 elements on the paper testbed,
/// the self-attention epilogue on one 16-GPU node.
pub fn cases() -> Vec<Case> {
    let optimizer = |name, opt| Case {
        name,
        program: optimizer_program(opt, Hyper::default())
            .expect("optimizer program builds")
            .0,
        binding: Binding::new(256).bind("N", 1 << 26),
        sim: Simulator::new(MachineSpec::paper_testbed(), 256, 1),
    };
    vec![
        optimizer("tune:adam", Optimizer::Adam),
        optimizer("tune:lamb", Optimizer::Lamb),
        Case {
            name: "tune:model-parallel",
            program: block_program(Block::SelfAttention)
                .expect("block program builds")
                .0,
            binding: Binding::new(16)
                .bind("B", 8)
                .bind("S", 1024)
                .bind("H", 3072),
            sim: Simulator::new(MachineSpec::dgx2_cluster(1), 16, 1),
        },
    ]
}

/// A `PlanEvaluator` that forwards to the simulator and counts the
/// calls and the time spent in them, summed over the tuner's worker
/// threads. The counters are statistics that publish no other data, so
/// relaxed ordering suffices.
pub struct Metered<'a> {
    inner: &'a Simulator,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl<'a> Metered<'a> {
    pub fn new(inner: &'a Simulator) -> Metered<'a> {
        Metered {
            inner,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        }
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn millis(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }

    fn meter<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = coconet_trace::now_ns();
        let out = f();
        self.nanos.fetch_add(
            coconet_trace::now_ns().saturating_sub(start),
            Ordering::Relaxed,
        );
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl PlanEvaluator for Metered<'_> {
    fn evaluate(&self, plan: &ExecPlan) -> f64 {
        self.meter(|| self.inner.evaluate(plan))
    }

    fn lower_bound(&self, plan: &ExecPlan) -> f64 {
        self.meter(|| self.inner.lower_bound(plan))
    }

    fn descendant_lower_bound(&self, plan: &ExecPlan) -> f64 {
        self.meter(|| self.inner.descendant_lower_bound(plan))
    }

    fn lower_bound_sweep(&self, plan: &ExecPlan, configs: &[CommConfig]) -> (Vec<f64>, Vec<f64>) {
        self.meter(|| self.inner.lower_bound_sweep(plan, configs))
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

/// What must repeat from one tune of a program to the next. The
/// number of configurations costed is not part of it: workers prune
/// against a shared incumbent, so that count depends on thread timing
/// (805 to 1360 for the model-parallel block on two cores) while the
/// winner does not.
#[derive(Clone, Debug, PartialEq)]
struct Verdict {
    winner: String,
    config: CommConfig,
    time_bits: u64,
}

fn verdict(report: &TuneReport) -> Option<Verdict> {
    let best = report.best().ok()?;
    Some(Verdict {
        winner: best.label(),
        config: best.config,
        time_bits: best.time.to_bits(),
    })
}

pub fn round(cfg: &RoundCfg) -> Round {
    let mut out = Round::default();
    let setup_start = coconet_trace::now_ns();
    let cases = cases();
    let tune = |case: &Case, evaluator: &dyn PlanEvaluator| {
        Autotuner::default().tune(&case.program, &case.binding, evaluator)
    };
    let mut baseline: Vec<Option<Verdict>> = Vec::new();
    for w in 0..WARMUP_ITERS {
        for case in &cases {
            let v = tune(case, &case.sim).ok().as_ref().and_then(verdict);
            if w == 0 {
                baseline.push(v);
            }
        }
    }
    let first_timed = coconet_trace::now_ns();
    out.setup_s = ms_between(setup_start, first_timed) / 1e3;

    if cfg.traced {
        spans::start();
    }
    let meters: Vec<Metered> = cases.iter().map(|c| Metered::new(&c.sim)).collect();
    let mut tune_ms = Vec::new();
    let mut totals = [0usize; 3];
    for i in 0..cfg.iters {
        spans::set_iter(i as u64);
        spans::begin("iter", spans::HARNESS);
        let start = coconet_trace::now_ns();
        let mut ok = true;
        let mut mark = start;
        for (j, case) in cases.iter().enumerate() {
            // The metered evaluator only rides along in a traced round.
            let evaluator: &dyn PlanEvaluator = if cfg.traced { &meters[j] } else { &case.sim };
            let report = spans::scope(case.name, layer::CORE, || tune(case, evaluator));
            let now = coconet_trace::now_ns();
            tune_ms.push(ms_between(mark, now));
            mark = now;
            let v = report.as_ref().ok().and_then(verdict);
            ok &= v.is_some() && v == baseline[j];
            if let Ok(r) = &report {
                totals[0] += r.schedules_explored;
                totals[1] += r.configs_evaluated;
                totals[2] += r.configs_pruned;
            }
        }
        spans::end();
        if ok {
            out.iter_ms.push(ms_between(start, mark));
        } else {
            out.failed += 1;
        }
    }
    out.series.insert("tune_ms".into(), tune_ms);
    out.counts
        .insert("schedules_explored".into(), totals[0] as f64);
    out.counts
        .insert("configs_evaluated".into(), totals[1] as f64);
    out.counts.insert("configs_pruned".into(), totals[2] as f64);
    out.counts
        .insert("tunes".into(), (cfg.iters * cases.len()) as f64);
    if cfg.traced {
        out.counts.insert(
            "eval_calls".into(),
            meters.iter().map(Metered::calls).sum::<u64>() as f64,
        );
        out.counts
            .insert("eval_ms".into(), meters.iter().map(Metered::millis).sum());
        out.spans.push((0, spans::finish()));
    }
    out.checksum = baseline
        .iter()
        .flatten()
        .fold(0, |h: u64, v| h.rotate_left(21) ^ v.time_bits);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_tunes_repeat_their_verdict_and_send_nothing() {
        let cfg = RoundCfg {
            seed: 0,
            round: 0,
            iters: 2,
            traced: true,
        };
        let r = round(&cfg);
        assert_eq!(r.failed, 0);
        assert_eq!(r.iter_ms.len(), 2);
        assert_eq!(r.series["tune_ms"].len(), 6);
        assert_eq!(r.counts["tunes"], 6.0);
        assert!(r.counts["configs_evaluated"] > 0.0);
        assert!(r.counts["eval_calls"] > 0.0);
        assert!(!r.counts.contains_key("wire_bytes"));
        assert_eq!(r.spans[0].1.len(), 2 * 4);
    }

    #[test]
    fn metered_evaluator_agrees_with_the_simulator() {
        let case = &cases()[0];
        let metered = Metered::new(&case.sim);
        let a = Autotuner::default()
            .tune(&case.program, &case.binding, &metered)
            .unwrap();
        let b = Autotuner::default()
            .tune(&case.program, &case.binding, &case.sim)
            .unwrap();
        assert_eq!(
            verdict(&a).map(|v| (v.winner, v.time_bits)),
            verdict(&b).map(|v| (v.winner, v.time_bits))
        );
        assert!(metered.calls() > 0 && metered.millis() > 0.0);
    }
}
