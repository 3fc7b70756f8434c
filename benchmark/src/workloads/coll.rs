//! `coll_dense` / `coll_compressed`: one pass over a fixed mix of
//! `all_reduce_wire_striped` calls per iteration, inside one persistent
//! `run_ranks`.
//!
//! The dense mix is fabric hops and fold kernels only; the compressed
//! mix is where the FP16, top-k and Q15.16 codecs and the switch
//! dataplane run. Small entries (2^12) are latency-bound, large ones
//! bandwidth-bound.

use std::sync::{Arc, Barrier};

use coconet_compress::WireFormat;
use coconet_core::CollAlgo;
use coconet_runtime::{all_reduce_wire_striped, run_ranks, Group};
use coconet_tensor::{CounterRng, DType, ReduceOp, Tensor};

use crate::harness::{digest, layer, ms_between, Round, RoundCfg, RANKS, WARMUP_ITERS};
use crate::reference::{
    normal_vec, sum2, sum2_fp16_wire, sum2_q1516_wire, sum2_top_k, top_k_count, wire_bytes,
    Expected,
};
use crate::spans;

/// Top-k density of the compressed mix, in permille.
pub const TOPK_PERMILLE: u16 = 10;

/// Elements of a large output that every timed iteration checks; the
/// last iteration of a round checks them all.
const SPOT_CHECKS: usize = 1024;

/// One AllReduce of the mix.
#[derive(Clone, Copy, Debug)]
pub struct Entry {
    /// `<algo>-<format>-c<channels>-e<log2 elems>`; also the span name
    /// and the stem of the entry's `coll.*.ms_p50` metric.
    pub name: &'static str,
    pub algo: CollAlgo,
    pub format: WireFormat,
    pub channels: usize,
    pub log2_elems: u32,
}

impl Entry {
    pub fn elems(&self) -> usize {
        1 << self.log2_elems
    }

    /// Entries the top-k format keeps of this payload.
    fn top_k(&self) -> u64 {
        top_k_count(self.elems() as u64, TOPK_PERMILLE)
    }

    /// Bytes rank 0 puts on the wire for this entry, switch dataplane
    /// included, from the plain-arithmetic reference — the figure the
    /// ledger must show.
    pub fn analytic_wire_bytes(&self) -> u64 {
        let n = self.elems() as u64;
        let elem_bytes = if self.format == WireFormat::Fp16 {
            2
        } else {
            4
        };
        match (self.algo, self.format) {
            (CollAlgo::Switch, _) => wire_bytes::switch(n),
            (_, WireFormat::TopK { .. }) => wire_bytes::top_k(self.top_k()),
            (CollAlgo::Tree, _) => wire_bytes::tree(n, elem_bytes),
            _ => wire_bytes::ring(n, elem_bytes),
        }
    }
}

fn entry(
    name: &'static str,
    algo: CollAlgo,
    format: WireFormat,
    channels: usize,
    log2_elems: u32,
) -> Entry {
    Entry {
        name,
        algo,
        format,
        channels,
        log2_elems,
    }
}

/// {ring, tree, hierarchical(1 rank per node)} × channels {1, 4} ×
/// sizes {2^12, 2^20}, dense wire.
pub fn dense_mix() -> Vec<Entry> {
    use CollAlgo::{Hierarchical, Ring, Tree};
    use WireFormat::Dense;
    vec![
        entry("ring-dense-c1-e12", Ring, Dense, 1, 12),
        entry("ring-dense-c4-e12", Ring, Dense, 4, 12),
        entry("tree-dense-c1-e12", Tree, Dense, 1, 12),
        entry("tree-dense-c4-e12", Tree, Dense, 4, 12),
        entry("hier-dense-c1-e12", Hierarchical, Dense, 1, 12),
        entry("hier-dense-c4-e12", Hierarchical, Dense, 4, 12),
        entry("ring-dense-c1-e20", Ring, Dense, 1, 20),
        entry("ring-dense-c4-e20", Ring, Dense, 4, 20),
        entry("tree-dense-c1-e20", Tree, Dense, 1, 20),
        entry("tree-dense-c4-e20", Tree, Dense, 4, 20),
        entry("hier-dense-c1-e20", Hierarchical, Dense, 1, 20),
        entry("hier-dense-c4-e20", Hierarchical, Dense, 4, 20),
    ]
}

/// {ring+fp16, tree+fp16, ring+top-k, switch} × sizes {2^12, 2^20}.
pub fn compressed_mix() -> Vec<Entry> {
    use CollAlgo::{Ring, Switch, Tree};
    use WireFormat::{Dense, Fp16};
    let topk = WireFormat::TopK {
        k_permille: TOPK_PERMILLE,
    };
    vec![
        entry("ring-fp16-c1-e12", Ring, Fp16, 1, 12),
        entry("tree-fp16-c1-e12", Tree, Fp16, 1, 12),
        entry("ring-topk10-c1-e12", Ring, topk, 1, 12),
        entry("switch-q1516-c1-e12", Switch, Dense, 1, 12),
        entry("ring-fp16-c1-e20", Ring, Fp16, 1, 20),
        entry("tree-fp16-c1-e20", Tree, Fp16, 1, 20),
        entry("ring-topk10-c1-e20", Ring, topk, 1, 20),
        entry("switch-q1516-c1-e20", Switch, Dense, 1, 20),
    ]
}

/// The plain-loop answer for one entry.
fn expected(e: &Entry, a: &[f32], b: &[f32]) -> Expected {
    match (e.algo, e.format) {
        (CollAlgo::Switch, _) => sum2_q1516_wire(a, b),
        (_, WireFormat::TopK { .. }) => sum2_top_k(a, b, e.top_k() as usize),
        (_, WireFormat::Fp16) => sum2_fp16_wire(a, b),
        (_, WireFormat::Dense) => Expected::exact(sum2(a, b)),
    }
}

pub fn round(cfg: &RoundCfg, mix: &[Entry]) -> Round {
    let mut out = Round::default();
    let rng = CounterRng::new(cfg.seed);
    let mut sizes: Vec<u32> = mix.iter().map(|e| e.log2_elems).collect();
    sizes.sort_unstable();
    sizes.dedup();

    let setup_start = coconet_trace::now_ns();
    // One input per rank and size, shared by every entry of that size.
    let inputs: Arc<Vec<Vec<Vec<f32>>>> = Arc::new(
        sizes
            .iter()
            .enumerate()
            .map(|(s, &log2)| {
                (0..RANKS)
                    .map(|r| normal_vec(rng, cfg.offset((s * RANKS + r) as u64), 1 << log2))
                    .collect()
            })
            .collect(),
    );
    let inputs_done = coconet_trace::now_ns();

    let size_of = |e: &Entry| sizes.binary_search(&e.log2_elems).expect("size listed");
    let answers: Arc<Vec<Expected>> = Arc::new(
        mix.iter()
            .map(|e| {
                let per_rank = &inputs[size_of(e)];
                expected(e, &per_rank[0], &per_rank[1])
            })
            .collect(),
    );

    let spawn_start = coconet_trace::now_ns();
    let barrier = Arc::new(Barrier::new(RANKS));
    let (iters, traced) = (cfg.iters, cfg.traced);
    let mix: Arc<Vec<(Entry, usize)>> = Arc::new(mix.iter().map(|e| (*e, size_of(e))).collect());
    let mix_for_ranks = Arc::clone(&mix);
    let per_rank = run_ranks(RANKS, move |comm| {
        let rank = comm.rank();
        let group = Group {
            start: 0,
            size: RANKS,
        };
        let tensors: Vec<Tensor> = inputs
            .iter()
            .map(|per_rank| {
                let data = per_rank[rank].clone();
                Tensor::from_f32_vec([data.len()], DType::F32, data).expect("length matches")
            })
            .collect();
        let run = |e: &Entry, size: usize| {
            all_reduce_wire_striped(
                &comm,
                group,
                &tensors[size],
                ReduceOp::Sum,
                e.algo,
                1,
                e.format,
                None,
                e.channels,
            )
        };
        // Warm-up doubles as the per-entry ledger reading: each entry
        // alone must move exactly its analytic volume.
        let mut entry_bytes = Vec::with_capacity(mix_for_ranks.len());
        for w in 0..WARMUP_ITERS {
            for (e, size) in mix_for_ranks.iter() {
                comm.reset_ledger();
                let _ = run(e, *size);
                if w == 0 {
                    let l = comm.ledger();
                    entry_bytes.push((l.bytes_sent, l.switch_bytes_sent));
                }
            }
        }
        if traced {
            spans::start();
        }
        comm.reset_ledger();
        let first_timed = coconet_trace::now_ns();
        let mut times = Vec::with_capacity(iters);
        let mut entry_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); mix_for_ranks.len()];
        let mut checksum = 0;
        for i in 0..iters {
            barrier.wait();
            spans::set_iter(i as u64);
            spans::begin("iter", spans::HARNESS);
            let start = coconet_trace::now_ns();
            let mut outputs = Vec::with_capacity(mix_for_ranks.len());
            let mut mark = start;
            for (j, (e, size)) in mix_for_ranks.iter().enumerate() {
                outputs.push(spans::scope(e.name, layer::COLLECTIVES, || run(e, *size)));
                let now = coconet_trace::now_ns();
                entry_ms[j].push(ms_between(mark, now));
                mark = now;
            }
            let end = mark;
            spans::end();
            let last = i + 1 == iters;
            let ok = outputs.iter().zip(answers.iter()).all(|(t, want)| {
                let step = if last {
                    1
                } else {
                    (t.numel() / SPOT_CHECKS).max(1)
                };
                t.as_f32_slice()
                    .is_some_and(|got| want.mismatches(got, step) == 0)
            });
            times.push(ok.then(|| ms_between(start, end)));
            if last {
                for t in &outputs {
                    checksum = digest(checksum, t.as_f32_slice().unwrap_or(&[]));
                }
            }
        }
        (
            first_timed,
            times,
            entry_ms,
            checksum,
            comm.ledger(),
            entry_bytes,
            spans::finish(),
        )
    });

    out.setup_s =
        (ms_between(setup_start, inputs_done) + ms_between(spawn_start, per_rank[0].0)) / 1e3;
    super::merge_rank_times(&mut out, per_rank.iter().map(|r| r.1.as_slice()));
    for (j, (e, _)) in mix.iter().enumerate() {
        // The slowest rank sets an entry's time, as it does the pass's.
        let slowest = (0..iters)
            .map(|i| per_rank.iter().map(|r| r.2[j][i]).fold(0.0, f64::max))
            .collect();
        out.series.insert(e.name.into(), slowest);
    }
    out.checksum = per_rank[0].3;
    super::ledger_counts(&mut out, &per_rank[0].4);
    let mut exact = true;
    for ((e, _), &(sent, switch)) in mix.iter().zip(&per_rank[0].5) {
        exact &= sent + switch == e.analytic_wire_bytes();
        out.counts.insert(format!("sent:{}", e.name), sent as f64);
    }
    out.counts
        .insert("ledger_exact_rounds".into(), f64::from(u8::from(exact)));
    if traced {
        out.spans = per_rank
            .into_iter()
            .enumerate()
            .map(|(r, t)| (r as u32, t.6))
            .collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shrink(mix: Vec<Entry>) -> Vec<Entry> {
        // n = 64 for the small size, 128 for the large one.
        mix.into_iter()
            .map(|mut e| {
                e.log2_elems = if e.log2_elems == 12 { 6 } else { 7 };
                e
            })
            .collect()
    }

    fn tiny(mix: &[Entry]) -> Round {
        let cfg = RoundCfg {
            seed: 21,
            round: 2,
            iters: 2,
            traced: true,
        };
        round(&cfg, mix)
    }

    #[test]
    fn dense_mix_is_bit_identical_to_the_plain_sum_and_ledger_exact() {
        let mix = shrink(dense_mix());
        let r = tiny(&mix);
        assert_eq!(r.failed, 0);
        assert_eq!(r.iter_ms.len(), 2);
        assert_eq!(r.counts["ledger_exact_rounds"], 1.0);
        let per_pass: u64 = mix.iter().map(Entry::analytic_wire_bytes).sum();
        assert_eq!(r.counts["wire_bytes"], 2.0 * per_pass as f64);
        assert_eq!(r.series.len(), 12);
        assert!(r.series.values().all(|s| s.len() == 2));
    }

    #[test]
    fn compressed_mix_stays_inside_each_codec_error_bound() {
        let mix = shrink(compressed_mix());
        let r = tiny(&mix);
        assert_eq!(r.failed, 0);
        assert_eq!(r.counts["ledger_exact_rounds"], 1.0);
        assert_eq!(r.series.len(), 8);
    }

    #[test]
    fn entry_spans_fill_the_iteration_span() {
        let r = tiny(&shrink(dense_mix()));
        let spans = &r.spans[0].1;
        assert_eq!(spans.iter().filter(|s| s.name == "iter").count(), 2);
        assert_eq!(spans.len(), 2 * 13);
        let b = spans::budget(spans);
        assert_eq!(b.by_layer.values().sum::<u64>(), b.wall_ns);
    }

    #[test]
    fn mixes_have_the_issue_geometry_and_unique_names() {
        let (d, c) = (dense_mix(), compressed_mix());
        assert_eq!((d.len(), c.len()), (12, 8));
        let mut names: Vec<_> = d.iter().chain(&c).map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 20);
        assert!(d.iter().all(|e| e.format == WireFormat::Dense));
    }
}
