//! The probe step: single layers timed from outside, through public
//! calls, at the geometry of the workload that owns them. Every probe
//! repeats a fixed number of times and reports a median.

use std::hint::black_box;

use coconet_compress::QuantChunk;
use coconet_core::{lower, Autotuner, CommConfig, PlanCache};
use coconet_models::optimizers::apply_optimizer_schedule;
use coconet_models::{Hyper, Optimizer, OptimizerSchedule};
use coconet_runtime::run_ranks;
use coconet_tensor::{kernels, CounterRng, DType, ReduceOp, Tensor, F16};

use crate::harness::RANKS;
use crate::reference::normal_vec;
use crate::stats::median;
use crate::workloads::{autotune, coll, mp, stream};

/// Median seconds of `reps` calls of `f`, after one untimed call.
fn time_s(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = coconet_trace::now_ns();
            f();
            coconet_trace::now_ns().saturating_sub(start) as f64 / 1e9
        })
        .collect();
    median(&samples)
}

fn normal_tensor(seed: u64, stream_id: u64, n: usize) -> Tensor {
    let data = normal_vec(CounterRng::new(seed), stream_id << 32, n);
    Tensor::from_f32_vec([n], DType::F32, data).expect("length matches shape")
}

/// `tensor.*` rates. GEMM at the `mp_overlap` shape, the fold at the
/// large `coll_dense` size, axpy at one `stream_*` layer, the FP16
/// codec passes at the large `coll_compressed` size.
pub struct TensorRates {
    pub gemm_gflop_s: f64,
    pub reduce_f32_gb_s: f64,
    pub axpy_gb_s: f64,
    pub f16_encode_gb_s: f64,
    pub f16_decode_gb_s: f64,
}

pub fn tensor_rates(seed: u64) -> TensorRates {
    let d = mp::DIM;
    let a = normal_tensor(seed, 1, d * d)
        .reshape([d, d])
        .expect("d*d elements");
    let b = normal_tensor(seed, 2, d * d)
        .reshape([d, d])
        .expect("d*d elements");
    let gemm_s = time_s(5, || {
        black_box(a.matmul(&b).expect("square operands"));
    });

    let n = 1usize << 20;
    let inc = normal_vec(CounterRng::new(seed), 3 << 32, n);
    let mut acc = vec![0.0f32; n];
    let reduce_s = time_s(9, || {
        kernels::reduce_f32(black_box(&mut acc), &inc, ReduceOp::Sum)
    });

    let n_axpy = stream::LAYER_ELEMS;
    let mut c = vec![0.0f32; n_axpy];
    let axpy_s = time_s(19, || kernels::axpy(black_box(&mut c), &inc[..n_axpy], 0.5));

    let n_codec = 1usize << 20;
    let mut half = vec![F16::ZERO; n_codec];
    let encode_s = time_s(9, || {
        kernels::f16_encode(&inc[..n_codec], black_box(&mut half))
    });
    let mut wide = vec![0.0f32; n_codec];
    let decode_s = time_s(9, || kernels::f16_decode(&half, black_box(&mut wide)));

    TensorRates {
        gemm_gflop_s: 2.0 * (d * d * d) as f64 / gemm_s / 1e9,
        // Two reads and one write of f32 per element.
        reduce_f32_gb_s: (12 * n) as f64 / reduce_s / 1e9,
        axpy_gb_s: (12 * n_axpy) as f64 / axpy_s / 1e9,
        // One f32 and one f16 per element.
        f16_encode_gb_s: (6 * n_codec) as f64 / encode_s / 1e9,
        f16_decode_gb_s: (6 * n_codec) as f64 / decode_s / 1e9,
    }
}

/// `compress.*` codec rates at the large `coll_compressed` size.
pub struct CodecRates {
    pub topk_select_melem_s: f64,
    pub quantize_gb_s: f64,
    pub dequantize_gb_s: f64,
}

pub fn codec_rates(seed: u64) -> CodecRates {
    let n = 1usize << 20;
    let t = normal_tensor(seed, 4, n);
    let k = n * usize::from(coll::TOPK_PERMILLE) / 1000;
    let select_s = time_s(5, || {
        black_box(coconet_compress::sparsify_top_k(&t, k));
    });
    let quantize_s = time_s(9, || {
        black_box(QuantChunk::quantize(&t));
    });
    let chunk = QuantChunk::quantize(&t);
    let dequantize_s = time_s(9, || {
        black_box(chunk.dequantize(DType::F32));
    });
    CodecRates {
        topk_select_melem_s: n as f64 / select_s / 1e6,
        // One f32 and one i32 word per element.
        quantize_gb_s: (8 * n) as f64 / quantize_s / 1e9,
        dequantize_gb_s: (8 * n) as f64 / dequantize_s / 1e9,
    }
}

/// `comm.*` latencies of the fabric itself.
pub struct FabricLatency {
    /// One-way latency of a 4 KiB tensor handle, from a ping-pong.
    pub hop_us_p50: f64,
    /// `run_ranks` with an empty body: spawn and join of the rank threads.
    pub spawn_join_us_p50: f64,
}

pub fn fabric_latency() -> FabricLatency {
    const ROUND_TRIPS: usize = 2000;
    let per_rank = run_ranks(RANKS, |comm| {
        let payload = Tensor::zeros([1024], DType::F32);
        let mut samples = Vec::with_capacity(ROUND_TRIPS);
        for _ in 0..ROUND_TRIPS {
            let start = coconet_trace::now_ns();
            if comm.rank() == 0 {
                comm.send(1, payload.clone());
                black_box(comm.recv(1));
            } else {
                let got = comm.recv(0);
                comm.send(0, got);
            }
            samples.push(coconet_trace::now_ns().saturating_sub(start) as f64 / 2e3);
        }
        median(&samples)
    });
    let spawn_join_s = time_s(50, || {
        run_ranks(RANKS, |_| ());
    });
    FabricLatency {
        hop_us_p50: per_rank[0],
        spawn_join_us_p50: spawn_join_s * 1e6,
    }
}

/// `core.*` and `sim.*` latencies that no workload iteration isolates.
pub struct CompileLatency {
    pub tune_warm_us_p50: f64,
    pub plan_cache_hit_ratio: f64,
    pub lower_us_p50: f64,
    pub xform_us_p50: f64,
    pub time_plan_us_p50: f64,
}

pub fn compile_latency() -> CompileLatency {
    const WARM_HITS: usize = 50;
    let cases = autotune::cases();
    let adam = &cases[0];
    let tuner = Autotuner::default();
    let mut cache = PlanCache::new(8);
    // One miss fills the cache; every later call is a hit.
    let tune = |cache: &mut PlanCache| {
        tuner
            .tune_cached(&adam.program, &adam.binding, &adam.sim, cache)
            .expect("adam tunes")
    };
    tune(&mut cache);
    let warm: Vec<f64> = (0..WARM_HITS)
        .map(|_| tune(&mut cache).elapsed.as_secs_f64() * 1e6)
        .collect();
    let stats = cache.stats();

    let xform_s = time_s(50, || {
        black_box(
            apply_optimizer_schedule(
                Optimizer::Adam,
                Hyper::default(),
                OptimizerSchedule::FusedRsOptAg,
            )
            .expect("schedule applies"),
        );
    });
    let (fused, _) = apply_optimizer_schedule(
        Optimizer::Adam,
        Hyper::default(),
        OptimizerSchedule::FusedRsOptAg,
    )
    .expect("schedule applies");
    let lower_s = time_s(50, || {
        black_box(lower(&fused, &adam.binding, CommConfig::default()).expect("fused adam lowers"));
    });
    let plan = lower(&fused, &adam.binding, CommConfig::default()).expect("fused adam lowers");
    let time_plan_s = time_s(200, || {
        black_box(adam.sim.time_plan(&plan));
    });

    CompileLatency {
        tune_warm_us_p50: median(&warm),
        plan_cache_hit_ratio: stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
        lower_us_p50: lower_s * 1e6,
        xform_us_p50: xform_s * 1e6,
        time_plan_us_p50: time_plan_s * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_s_reports_a_positive_median_and_runs_the_warmup_call() {
        let mut calls = 0;
        let s = time_s(3, || {
            calls += 1;
            black_box((0..1000).sum::<u64>());
        });
        assert_eq!(calls, 4);
        assert!(s > 0.0);
    }

    #[test]
    fn fabric_and_compile_probes_return_finite_positive_numbers() {
        let f = fabric_latency();
        assert!(f.hop_us_p50 > 0.0 && f.spawn_join_us_p50 > 0.0);
        let c = compile_latency();
        assert!(c.tune_warm_us_p50 > 0.0 && c.lower_us_p50 > 0.0);
        assert!(c.xform_us_p50 > 0.0 && c.time_plan_us_p50 > 0.0);
        assert_eq!(c.plan_cache_hit_ratio, 50.0 / 51.0);
    }
}
