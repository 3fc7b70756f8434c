//! A rank owns its cores: a world of as many ranks as the host has
//! cores runs every kernel on its rank's own thread, so neither a large
//! ring AllReduce through `run_ranks` nor a fused Adam step through
//! `run_program` hands a job to the shared kernel pool. The same kernel
//! called outside any world still fans out across the pool.

use coconet::compress::WireFormat;
use coconet::core::{Binding, CollAlgo};
use coconet::models::optimizers::apply_optimizer_schedule;
use coconet::models::{Hyper, Optimizer, OptimizerSchedule};
use coconet::runtime::{
    all_reduce_wire_striped, run_program, run_ranks, Group, Inputs, RunOptions,
};
use coconet::tensor::{kernels, DType, ReduceOp, Tensor};
use coconet_trace as trace;

/// The `pool_job` events recorded while `f` runs.
fn pool_jobs(f: impl FnOnce()) -> usize {
    trace::clear();
    trace::set_enabled(true);
    f();
    trace::set_enabled(false);
    let jobs = trace::take_snapshot()
        .iter()
        .filter(|e| e.label == "pool_job")
        .count();
    trace::clear();
    jobs
}

fn ring_world_all_reduce(ranks: usize, format: WireFormat) {
    run_ranks(ranks, move |comm| {
        let n = 1 << 20;
        let x = Tensor::from_fn([n], DType::F32, |i| (i % 1013) as f32 * 0.01);
        let group = Group {
            start: 0,
            size: ranks,
        };
        all_reduce_wire_striped(
            &comm,
            group,
            &x,
            ReduceOp::Sum,
            CollAlgo::Ring,
            1,
            format,
            None,
            1,
        )
    });
}

fn fused_adam(ranks: usize) {
    let n = 1 << 18;
    let grad = |r: usize| Tensor::from_fn([n], DType::F16, move |i| ((i + r) % 97) as f32 * 0.01);
    let inputs = Inputs::new()
        .per_rank("g", (0..ranks).map(grad).collect())
        .global(
            "p",
            Tensor::from_fn([n], DType::F32, |i| (i % 89) as f32 * 0.1),
        )
        .global("m", Tensor::zeros([n], DType::F32))
        .global("v", Tensor::full([n], DType::F32, 0.01))
        .global("lr", Tensor::scalar(DType::F32, 0.01))
        .global("t", Tensor::scalar(DType::F32, 3.0));
    let (program, _) = apply_optimizer_schedule(
        Optimizer::Adam,
        Hyper::default(),
        OptimizerSchedule::FusedRsOptAg,
    )
    .expect("schedule applies");
    let binding = Binding::new(ranks).bind("N", n as u64);
    run_program(&program, &binding, &inputs, RunOptions::default()).expect("the step runs");
}

// One test, so nothing else in this process records while it counts.
#[test]
fn a_full_world_never_touches_the_pool() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    for format in [WireFormat::Dense, WireFormat::Fp16] {
        let jobs = pool_jobs(|| ring_world_all_reduce(cores, format));
        assert_eq!(jobs, 0, "{format:?} ring AllReduce on {cores} ranks");
    }
    assert_eq!(
        pool_jobs(|| fused_adam(cores)),
        0,
        "fused Adam on {cores} ranks"
    );

    let outside = pool_jobs(|| {
        let mut acc = vec![1.0f32; 1 << 18];
        kernels::reduce_f32(&mut acc, &vec![2.0; 1 << 18], ReduceOp::Sum);
    });
    assert!(outside > 0, "a caller outside any world uses the pool");
}
