//! `adam_fused`: one data-parallel Adam step through `run_program`
//! (the paper's Figure 10 path). The same round, given `ArOpt`, is the
//! unfused comparison the `executor.*` probes report.

use coconet_core::{Binding, DType};
use coconet_models::optimizers::apply_optimizer_schedule;
use coconet_models::{Hyper, Optimizer, OptimizerSchedule};
use coconet_runtime::{run_program, Inputs, RunOptions};
use coconet_tensor::{alloc_stats, CounterRng, Tensor};

use crate::harness::{digest, layer, ms_between, Round, RoundCfg, RANKS, WARMUP_ITERS};
use crate::reference::{adam_step, f16_round, normal_vec, AdamHyper, Expected};
use crate::spans;

/// Gradient elements.
pub const N: usize = 1 << 18;

const LR: f32 = 0.01;
const STEP: f32 = 3.0;
const V0: f32 = 0.01;

/// Largest allowed distance from the scalar reference step.
pub const TOLERANCE: f32 = 1e-5;

pub fn round(cfg: &RoundCfg, schedule: OptimizerSchedule, n: usize) -> Round {
    let mut out = Round::default();
    let hyper = Hyper::default();
    let rng = CounterRng::new(cfg.seed);

    let setup_start = coconet_trace::now_ns();
    let grads: Vec<Vec<f32>> = (0..RANKS as u64)
        .map(|r| normal_vec(rng, cfg.offset(r), n))
        .collect();
    let p0 = normal_vec(rng, cfg.offset(RANKS as u64), n);
    let tensor = |dtype, data: &[f32]| {
        Tensor::from_f32_vec([n], dtype, data.to_vec()).expect("length matches shape")
    };
    let inputs = Inputs::new()
        .per_rank("g", grads.iter().map(|g| tensor(DType::F16, g)).collect())
        .global("p", tensor(DType::F32, &p0))
        .global("m", Tensor::zeros([n], DType::F32))
        .global("v", Tensor::full([n], DType::F32, V0))
        .global("lr", Tensor::scalar(DType::F32, LR))
        .global("t", Tensor::scalar(DType::F32, STEP));
    let (program, _log) =
        apply_optimizer_schedule(Optimizer::Adam, hyper, schedule).expect("schedule applies");
    let binding = Binding::new(RANKS).bind("N", n as u64);
    let inputs_done = coconet_trace::now_ns();

    // Off the set-up clock: the scalar reference. Gradients are F16, so
    // each is rounded on the way in and their sum once more.
    let g_sum: Vec<f32> = (0..n)
        .map(|i| f16_round(grads.iter().map(|g| f16_round(g[i])).sum()))
        .collect();
    let h = AdamHyper {
        beta1: hyper.beta1 as f32,
        beta2: hyper.beta2 as f32,
        eps: hyper.eps as f32,
    };
    let expected = Expected::within(
        adam_step(h, &p0, &vec![0.0; n], &vec![V0; n], &g_sum, LR, STEP),
        TOLERANCE,
    );

    let warmup_start = coconet_trace::now_ns();
    for _ in 0..WARMUP_ITERS {
        let _ = run_program(&program, &binding, &inputs, RunOptions::default());
    }
    let first_timed = coconet_trace::now_ns();
    out.setup_s =
        (ms_between(setup_start, inputs_done) + ms_between(warmup_start, first_timed)) / 1e3;

    if cfg.traced {
        spans::start();
    }
    let allocs_before = alloc_stats();
    for i in 0..cfg.iters {
        spans::set_iter(i as u64);
        spans::begin("iter", spans::HARNESS);
        let start = coconet_trace::now_ns();
        let result = spans::scope("run_program", layer::EXECUTOR, || {
            run_program(&program, &binding, &inputs, RunOptions::default())
        });
        let end = coconet_trace::now_ns();
        spans::end();
        // After the reorder the output is the re-gathered parameter.
        let updated = result
            .ok()
            .and_then(|r| r.global("p_").or_else(|_| r.global("agp_")).ok());
        match updated.as_ref().and_then(Tensor::as_f32_slice) {
            Some(values) if expected.mismatches(values, 1) == 0 => {
                out.iter_ms.push(ms_between(start, end));
                out.checksum = digest(0, values);
            }
            _ => out.failed += 1,
        }
    }
    // Rank threads live inside `run_program`; what the caller can meter
    // is its own thread's materializations (output reassembly).
    let allocs = alloc_stats().since(allocs_before);
    out.counts
        .insert("allocs".into(), allocs.allocations as f64);
    out.counts
        .insert("alloc_bytes".into(), allocs.bytes_allocated as f64);
    out.counts
        .insert("cow_bytes".into(), allocs.cow_bytes as f64);
    if cfg.traced {
        out.spans.push((0, spans::finish()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(schedule: OptimizerSchedule) -> Round {
        let cfg = RoundCfg {
            seed: 5,
            round: 0,
            iters: 2,
            traced: true,
        };
        round(&cfg, schedule, 64)
    }

    #[test]
    fn every_schedule_matches_the_scalar_reference_on_a_tiny_shape() {
        for schedule in [OptimizerSchedule::FusedRsOptAg, OptimizerSchedule::ArOpt] {
            let r = tiny(schedule);
            assert_eq!(r.failed, 0, "{schedule:?}");
            assert_eq!(r.iter_ms.len(), 2);
            assert!(r.setup_s > 0.0);
            assert_eq!(r.spans[0].1.len(), 4, "iter + run_program per iteration");
        }
    }

    #[test]
    fn schedules_agree_on_the_output_bits() {
        assert_eq!(
            tiny(OptimizerSchedule::FusedRsOptAg).checksum,
            tiny(OptimizerSchedule::ArOpt).checksum
        );
    }
}
