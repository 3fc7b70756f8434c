//! `mp_overlap`: the fine-grained MatMul + AllReduce overlap of
//! Figure 11, `[d×d]·[d×d]` per rank inside one persistent `run_ranks`.
//!
//! [`parts`] times the same product and the same AllReduce separately,
//! which is what the `overlap.*` probes report.

use std::sync::{Arc, Barrier};

use coconet_compress::WireFormat;
use coconet_core::CollAlgo;
use coconet_runtime::{
    all_reduce_wire_striped, overlapped_matmul_all_reduce, run_ranks, Group, RankComm,
};
use coconet_tensor::{CounterRng, DType, ReduceOp, Tensor};

use crate::harness::{digest, layer, ms_between, Round, RoundCfg, RANKS, WARMUP_ITERS};
use crate::reference::{matmul, matmul_checksum, normal_vec, Expected};
use crate::spans;

/// Matrix dimension of the timed shape.
pub const DIM: usize = 512;

/// Dimension of the down-scaled shape checked against a triple loop.
const SMALL_DIM: usize = 64;

/// Relative tolerance of both GEMM checks.
const REL_TOL: f64 = 1e-3;

const GROUP: Group = Group {
    start: 0,
    size: RANKS,
};

/// Per-rank operands of one round, as plain vectors and as tensors.
struct Operands {
    a: Vec<Vec<f32>>,
    w: Vec<Vec<f32>>,
    dim: usize,
}

impl Operands {
    fn generate(cfg: &RoundCfg, first_tensor: u64, dim: usize) -> Operands {
        let rng = CounterRng::new(cfg.seed);
        let gen = |t: u64| normal_vec(rng, cfg.offset(first_tensor + t), dim * dim);
        Operands {
            a: (0..RANKS as u64).map(|r| gen(2 * r)).collect(),
            w: (0..RANKS as u64).map(|r| gen(2 * r + 1)).collect(),
            dim,
        }
    }

    fn tensors(&self, rank: usize) -> (Tensor, Tensor) {
        let t = |v: &[f32]| {
            Tensor::from_f32_vec([self.dim, self.dim], DType::F32, v.to_vec())
                .expect("length matches shape")
        };
        (t(&self.a[rank]), t(&self.w[rank]))
    }
}

fn overlapped(comm: &RankComm, a: &Tensor, w: &Tensor) -> Option<Tensor> {
    overlapped_matmul_all_reduce(comm, GROUP, a, w, ReduceOp::Sum).ok()
}

fn sum_f64(t: &Tensor) -> Option<f64> {
    Some(t.as_f32_slice()?.iter().map(|&v| f64::from(v)).sum())
}

pub fn round(cfg: &RoundCfg, dim: usize) -> Round {
    let mut out = Round::default();
    let setup_start = coconet_trace::now_ns();
    let full = Arc::new(Operands::generate(cfg, 0, dim));
    let small = Arc::new(Operands::generate(cfg, 2 * RANKS as u64, SMALL_DIM));
    let inputs_done = coconet_trace::now_ns();

    // Off the set-up clock: the triple-loop answer at the small shape
    // and the entry-sum identity at the full one.
    let mut small_sum = vec![0.0f32; SMALL_DIM * SMALL_DIM];
    for r in 0..RANKS {
        let c = matmul(&small.a[r], &small.w[r], SMALL_DIM, SMALL_DIM, SMALL_DIM);
        for (s, v) in small_sum.iter_mut().zip(c) {
            *s += v;
        }
    }
    let scale = small_sum.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let small_expected = Arc::new(Expected::within(small_sum, REL_TOL as f32 * scale));
    let (mut want_sum, mut want_scale) = (0.0, 0.0);
    for r in 0..RANKS {
        let (s, a) = matmul_checksum(&full.a[r], &full.w[r], dim, dim, dim);
        want_sum += s;
        want_scale += a;
    }

    let spawn_start = coconet_trace::now_ns();
    let barrier = Arc::new(Barrier::new(RANKS));
    let (iters, traced) = (cfg.iters, cfg.traced);
    let per_rank = run_ranks(RANKS, move |comm| {
        let rank = comm.rank();
        let (a, w) = full.tensors(rank);
        let (sa, sw) = small.tensors(rank);
        let small_ok = overlapped(&comm, &sa, &sw)
            .as_ref()
            .and_then(Tensor::as_f32_slice)
            .is_some_and(|c| small_expected.mismatches(c, 1) == 0);
        for _ in 0..WARMUP_ITERS {
            let _ = overlapped(&comm, &a, &w);
        }
        if traced {
            spans::start();
        }
        comm.reset_ledger();
        let first_timed = coconet_trace::now_ns();
        let mut times = Vec::with_capacity(iters);
        let mut checksum = 0;
        for i in 0..iters {
            barrier.wait();
            spans::set_iter(i as u64);
            spans::begin("iter", spans::HARNESS);
            let start = coconet_trace::now_ns();
            let c = spans::scope("overlapped_matmul_all_reduce", layer::OVERLAP, || {
                overlapped(&comm, &a, &w)
            });
            let end = coconet_trace::now_ns();
            spans::end();
            let ok = small_ok
                && c.as_ref()
                    .and_then(sum_f64)
                    .is_some_and(|got| (got - want_sum).abs() <= REL_TOL * want_scale);
            times.push(ok.then(|| ms_between(start, end)));
            if let Some(values) = c.as_ref().and_then(Tensor::as_f32_slice) {
                checksum = digest(0, values);
            }
        }
        (first_timed, times, checksum, comm.ledger(), spans::finish())
    });

    out.setup_s =
        (ms_between(setup_start, inputs_done) + ms_between(spawn_start, per_rank[0].0)) / 1e3;
    super::merge_rank_times(&mut out, per_rank.iter().map(|r| r.1.as_slice()));
    out.checksum = per_rank[0].2;
    super::ledger_counts(&mut out, &per_rank[0].3);
    if traced {
        out.spans = per_rank
            .into_iter()
            .enumerate()
            .map(|(r, t)| (r as u32, t.4))
            .collect();
    }
    out
}

/// Times, `reps` times over, the product alone, the AllReduce of its
/// result alone, and the overlapped call. Returns the three series in
/// milliseconds (slowest rank per repetition).
pub fn parts(seed: u64, dim: usize, reps: usize) -> [Vec<f64>; 3] {
    let cfg = RoundCfg {
        seed,
        round: 0,
        iters: reps,
        traced: false,
    };
    let ops = Arc::new(Operands::generate(&cfg, 0, dim));
    let barrier = Arc::new(Barrier::new(RANKS));
    let per_rank = run_ranks(RANKS, move |comm| {
        let (a, w) = ops.tensors(comm.rank());
        let mut series = [Vec::new(), Vec::new(), Vec::new()];
        let mut timed = |slot: usize, f: &mut dyn FnMut()| {
            barrier.wait();
            let start = coconet_trace::now_ns();
            f();
            series[slot].push(ms_between(start, coconet_trace::now_ns()));
        };
        let mut product = None;
        for _ in 0..reps + 1 {
            timed(0, &mut || product = a.matmul(&w).ok());
            let product = product.as_ref().expect("square operands");
            timed(1, &mut || {
                let (algo, wire) = (CollAlgo::Ring, WireFormat::Dense);
                let _ = all_reduce_wire_striped(
                    &comm,
                    GROUP,
                    product,
                    ReduceOp::Sum,
                    algo,
                    0,
                    wire,
                    None,
                    1,
                );
            });
            timed(2, &mut || {
                let _ = overlapped(&comm, &a, &w);
            });
        }
        series
    });
    // The first repetition is warm-up; the slowest rank sets each time.
    std::array::from_fn(|slot| {
        (1..=reps)
            .map(|i| per_rank.iter().map(|s| s[slot][i]).fold(0.0, f64::max))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_round_passes_both_gemm_checks_and_sends_the_ring_volume() {
        let cfg = RoundCfg {
            seed: 9,
            round: 1,
            iters: 3,
            traced: true,
        };
        let r = round(&cfg, 64);
        assert_eq!(r.failed, 0);
        assert_eq!(r.iter_ms.len(), 3);
        // Two ranks: one reduce-scatter hop and one all-gather hop of
        // half the 64x64 f32 output each.
        assert_eq!(
            r.counts["wire_bytes"],
            3.0 * 2.0 * (64.0 * 64.0 / 2.0) * 4.0
        );
        assert_eq!(r.spans.len(), RANKS);
    }

    #[test]
    fn parts_time_three_series_of_the_requested_length() {
        let [mm, ar, ol] = parts(3, 64, 2);
        assert_eq!((mm.len(), ar.len(), ol.len()), (2, 2, 2));
        assert!(mm.iter().chain(&ar).chain(&ol).all(|&t| t > 0.0));
    }
}
