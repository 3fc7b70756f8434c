//! `stream_priority` / `stream_barriered`: a data-parallel training
//! loop on `StreamExecutor`, eight layers, ring / dense / one channel.
//! Both workloads run this file's one loop with the same callbacks;
//! only the `CommSched` differs.
//!
//! The executor owns the loop, so an iteration is seen through the
//! callbacks: its wall is the gap between successive `forward(layer 0)`
//! calls on rank 0 (the last one closes when `run_iterations` returns,
//! final drain included). All three callbacks are `kernels::axpy` over
//! `as_f32_slice` views, so their time is the tensor layer's. `axpy`
//! never dispatches to the kernel pool, on purpose: with a pooled
//! callback the two rank threads queue on the single pool worker a
//! 2-core host has, and whole rounds landed in one of two modes (8.7 ms
//! or 15 ms per iteration) by thread placement alone.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use coconet_compress::WireFormat;
use coconet_core::CommSched;
use coconet_runtime::{run_ranks, Completion, Group, StreamExecutor};
use coconet_tensor::{kernels, CounterRng, DType, Tensor};

use crate::harness::{digest, layer, ms_between, Round, RoundCfg, RANKS, WARMUP_ITERS};
use crate::reference::normal_vec;
use crate::spans;

pub const LAYERS: usize = 8;

/// Elements per layer of the timed shape.
pub const LAYER_ELEMS: usize = 1 << 19;

/// Elements per layer whose whole history the reference recurrence
/// replays (every `n / SAMPLES`-th one).
const SAMPLES: usize = 1024;

const LR: f32 = 1e-3;

fn grad_scale(layer: usize, rank: usize) -> f32 {
    1e-4 * (layer + 1) as f32 + 1e-5 * (rank + 1) as f32
}

fn grad_shift(iter: u64) -> f32 {
    1e-3 * (iter % 16) as f32
}

/// What rank threads hand back.
struct RankOut {
    first_timed: u64,
    /// `forward(layer 0)` timestamps of the timed iterations, then the
    /// return of `run_iterations`.
    stamps: Vec<u64>,
    /// Callback nanoseconds accumulated up to each stamp.
    compute_ns: Vec<u64>,
    /// `(job id, time the gradient was handed to the executor)`.
    enqueued: Vec<(u64, u64)>,
    completions: Vec<Completion>,
    params: Vec<Tensor>,
    ledger: coconet_runtime::BytesLedger,
    spans: Vec<spans::Span>,
}

pub fn round(cfg: &RoundCfg, sched: CommSched, layer_elems: usize) -> Round {
    let mut out = Round::default();
    let rng = CounterRng::new(cfg.seed);
    let setup_start = coconet_trace::now_ns();
    let init: Arc<Vec<Vec<f32>>> = Arc::new(
        (0..LAYERS as u64)
            .map(|l| normal_vec(rng, cfg.offset(l), layer_elems))
            .collect(),
    );
    let barrier = Arc::new(Barrier::new(RANKS));
    let (iters, traced) = (cfg.iters as u64, cfg.traced);
    let init_for_ranks = Arc::clone(&init);
    let mut per_rank = run_ranks(RANKS, move |comm| {
        let rank = comm.rank();
        let group = Group {
            start: 0,
            size: RANKS,
        };
        let params: Vec<Tensor> = init_for_ranks
            .iter()
            .map(|p| {
                Tensor::from_f32_vec([layer_elems], DType::F32, p.clone())
                    .expect("length matches shape")
            })
            .collect();
        let mut exec = StreamExecutor::new(group, params, sched, WireFormat::Dense);

        // Shared by the three callbacks, which the executor calls one at
        // a time on this thread.
        let compute = Cell::new(0u64);
        let stamps = RefCell::new(Vec::with_capacity(iters as usize + 1));
        let compute_at = RefCell::new(Vec::with_capacity(iters as usize + 1));
        let enqueued = RefCell::new(Vec::new());
        let timing = Cell::new(false);
        let activations = RefCell::new(vec![vec![0.0f32; layer_elems]; LAYERS]);
        // Wraps a callback body: spanned and timed in a traced round,
        // bare otherwise.
        let callback = |name: &'static str, body: &mut dyn FnMut()| {
            if traced && timing.get() {
                let start = coconet_trace::now_ns();
                spans::scope(name, layer::TENSOR, body);
                compute.set(compute.get() + coconet_trace::now_ns().saturating_sub(start));
            } else {
                body();
            }
        };
        let forward = |l: usize, iter: u64, p: &Tensor| {
            if l == 0 && timing.get() {
                if !stamps.borrow().is_empty() {
                    spans::end();
                }
                spans::set_iter(iter);
                spans::begin("iter", layer::STREAM);
                stamps.borrow_mut().push(coconet_trace::now_ns());
                compute_at.borrow_mut().push(compute.get());
            }
            callback("forward", &mut || {
                let p = p.as_f32_slice().expect("F32 parameters");
                kernels::axpy(&mut activations.borrow_mut()[l], p, 0.5);
            });
        };
        let grad = |l: usize, iter: u64, p: &Tensor| {
            let (scale, shift) = (grad_scale(l, rank), grad_shift(iter));
            let mut g = vec![shift; layer_elems];
            callback("grad", &mut || {
                let p = p.as_f32_slice().expect("F32 parameters");
                kernels::axpy(&mut g, p, scale);
            });
            if traced && timing.get() {
                enqueued
                    .borrow_mut()
                    .push((iter * LAYERS as u64 + l as u64, coconet_trace::now_ns()));
            }
            Tensor::from_f32_vec([layer_elems], DType::F32, g).expect("length matches shape")
        };
        let apply = |_l: usize, p: &mut Tensor, g: &Tensor| {
            callback("apply", &mut || {
                let g = g.as_f32_slice().expect("F32 gradients");
                kernels::axpy(p.as_f32_slice_mut().expect("F32 parameters"), g, -LR);
            });
        };

        exec.run_iterations(&comm, WARMUP_ITERS as u64, forward, grad, apply);
        if traced {
            spans::start();
        }
        comm.reset_ledger();
        let completions_before = exec.completion_events().len();
        barrier.wait();
        let first_timed = coconet_trace::now_ns();
        timing.set(true);
        exec.run_iterations(&comm, iters, forward, grad, apply);
        stamps.borrow_mut().push(coconet_trace::now_ns());
        compute_at.borrow_mut().push(compute.get());
        spans::end();
        RankOut {
            first_timed,
            stamps: stamps.take(),
            compute_ns: compute_at.take(),
            enqueued: enqueued.take(),
            completions: exec.completion_events()[completions_before..].to_vec(),
            params: exec.params(),
            ledger: comm.ledger(),
            spans: spans::finish(),
        }
    });
    out.setup_s = ms_between(setup_start, per_rank[0].first_timed) / 1e3;

    // The final parameters of both ranks against the recurrence, replayed
    // as plain loops on a sample of elements, and against each other.
    let total_iters = WARMUP_ITERS as u64 + iters;
    let step = (layer_elems / SAMPLES).max(1);
    let mut ok = per_rank.iter().all(|r| r.params.len() == LAYERS);
    for l in 0..LAYERS {
        if !ok {
            break;
        }
        let finals: Vec<&[f32]> = per_rank
            .iter()
            .filter_map(|r| r.params[l].as_f32_slice())
            .collect();
        ok &= finals.len() == RANKS
            && finals.iter().all(|f| f.len() == layer_elems)
            && finals[0]
                .iter()
                .zip(finals[1])
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !ok {
            break;
        }
        for i in (0..layer_elems).step_by(step) {
            let mut p = init[l][i];
            for iter in 0..total_iters {
                let shift = grad_shift(iter);
                let g: f32 = p * grad_scale(l, 0) + shift + (p * grad_scale(l, 1) + shift);
                p += -LR * g;
            }
            ok &= p.to_bits() == finals[0][i].to_bits();
        }
        out.checksum = digest(out.checksum, finals[0]);
    }

    let rank0 = per_rank.swap_remove(0);
    let walls: Vec<f64> = rank0
        .stamps
        .windows(2)
        .map(|w| ms_between(w[0], w[1]))
        .collect();
    if ok && walls.len() == cfg.iters {
        out.iter_ms = walls;
    } else {
        out.failed = cfg.iters;
    }
    super::ledger_counts(&mut out, &rank0.ledger);
    if traced {
        let compute_ms: Vec<f64> = rank0
            .compute_ns
            .windows(2)
            .map(|w| ms_between(w[0], w[1]))
            .collect();
        out.series.insert("compute_ms".into(), compute_ms);
        let enqueued_at: BTreeMap<u64, u64> = rank0.enqueued.iter().copied().collect();
        let latencies = rank0
            .completions
            .iter()
            .filter_map(|c| Some(ms_between(*enqueued_at.get(&c.id)?, c.ts_ns)))
            .collect();
        out.series.insert("job_latency_ms".into(), latencies);
        out.counts
            .insert("jobs".into(), rank0.completions.len() as f64);
        out.counts.insert(
            "order_inversions".into(),
            order_inversions(&rank0.completions) as f64,
        );
        out.spans.push((0, rank0.spans));
    }
    out
}

/// Iterations whose layer-0 gradient (consumed first by the next
/// forward) completed after their last layer's.
fn order_inversions(completions: &[Completion]) -> usize {
    let layers = LAYERS as u64;
    let position: BTreeMap<u64, usize> = completions
        .iter()
        .enumerate()
        .map(|(at, c)| (c.id, at))
        .collect();
    position
        .iter()
        .filter(|(id, first)| {
            // Keyed on each iteration's layer-0 job.
            *id % layers == 0
                && position
                    .get(&(*id + layers - 1))
                    .is_some_and(|last| *first > last)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(sched: CommSched) -> Round {
        let cfg = RoundCfg {
            seed: 11,
            round: 0,
            iters: 3,
            traced: true,
        };
        round(&cfg, sched, 64)
    }

    #[test]
    fn both_schedules_match_the_recurrence_and_each_other() {
        let (p, b) = (tiny(CommSched::Priority), tiny(CommSched::Barriered));
        for r in [&p, &b] {
            assert_eq!(r.failed, 0);
            assert_eq!(r.iter_ms.len(), 3);
            assert_eq!(r.counts["jobs"], 3.0 * LAYERS as f64);
            assert_eq!(r.series["compute_ms"].len(), 3);
            assert_eq!(r.series["job_latency_ms"].len(), 3 * LAYERS);
            // One ring AllReduce of 64 f32 per layer per iteration.
            assert_eq!(r.counts["wire_bytes"], (3 * LAYERS * 64 * 4) as f64);
        }
        assert_eq!(p.checksum, b.checksum);
        assert_eq!(p.counts["wire_bytes"], b.counts["wire_bytes"]);
    }

    #[test]
    fn iteration_spans_hold_the_callback_spans() {
        let r = tiny(CommSched::Priority);
        let spans = &r.spans[0].1;
        let iters = spans.iter().filter(|s| s.name == "iter").count();
        assert_eq!(iters, 3);
        assert!(spans
            .iter()
            .filter(|s| s.name != "iter")
            .all(|s| s.parent.is_some() && s.layer == layer::TENSOR));
        let b = spans::budget(spans);
        assert_eq!(b.residual_frac(), 0.0, "no harness container in this loop");
    }

    #[test]
    fn inversions_count_layer0_after_last_layer() {
        let c = |id| Completion {
            id,
            class: 0,
            ts_ns: 0,
        };
        let last = LAYERS as u64 - 1;
        assert_eq!(order_inversions(&[c(0), c(last)]), 0);
        assert_eq!(order_inversions(&[c(last), c(0)]), 1);
        assert_eq!(
            order_inversions(&[c(0), c(last), c(LAYERS as u64 + last), c(LAYERS as u64)]),
            1
        );
    }
}
