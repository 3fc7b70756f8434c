//! Measured multi-channel striping rows: real ring AllReduces swept
//! over the channel count.
//!
//! Every width runs the same ring lane engine — `channels` only sets
//! how many stripes each hop is framed as — and a blocking collective
//! services its lanes one after another on the rank thread, so the
//! per-width walls are recorded raw and *not* compared: there is no
//! wall-clock claim to gate. The `ablation_channels` trajectory row
//! gates the two properties striping must keep at the acceptance
//! geometry: the per-rank wire volume is byte-exact against the
//! analytic ring formula at *every* width, and every width's result is
//! bit-identical to the single-channel run.

use std::time::{Duration, Instant};

use coconet_compress::WireFormat;
use coconet_runtime::{ring_all_reduce, ring_all_reduce_wire_bytes, run_ranks, Group};
use coconet_tensor::{DType, ReduceOp, Tensor};

/// Elements of the swept AllReduce: 2^24 — the acceptance size — in
/// release builds, which produce every committed `BENCH_coconet.json`.
/// Debug builds (the unit-test suite) shrink to 2^18 so the sweep
/// stays a test, not a benchmark.
pub const CH_ELEMS: usize = if cfg!(debug_assertions) {
    1 << 18
} else {
    1 << 24
};

/// Rank threads of the swept AllReduce.
pub const CH_RANKS: usize = 8;

/// The channel widths the ablation sweeps.
pub const CH_WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// One channel-sweep measurement: per-width walls and ledgers, plus
/// the bit-identity verdict against the single-channel run.
#[derive(Clone, Debug)]
pub struct ChannelsRow {
    /// Elements reduced.
    pub elems: usize,
    /// Ranks participating.
    pub ranks: usize,
    /// `(channels, fastest wall seconds)` per swept width, in
    /// [`CH_WIDTHS`] order. Per-run wall = slowest rank.
    pub walls: Vec<(usize, f64)>,
    /// `(channels, rank 0 wire bytes sent)` per swept width.
    pub wire_bytes: Vec<(usize, u64)>,
    /// The analytic per-rank ring volume every width must match.
    pub analytic_bytes: u64,
    /// Whether every width's rank-0 output was bit-identical to the
    /// single-channel run.
    pub bit_identical: bool,
}

impl ChannelsRow {
    /// The single-channel wall.
    pub fn single_s(&self) -> f64 {
        self.walls
            .iter()
            .find(|&&(c, _)| c == 1)
            .expect("width 1 is swept")
            .1
    }

    /// Violations of the striping contract (empty when the wire is
    /// byte-exact at every width and every width is bit-identical to
    /// one channel).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        for &(c, bytes) in &self.wire_bytes {
            if bytes != self.analytic_bytes {
                v.push(format!(
                    "{c}-channel AllReduce sent {bytes} bytes per rank, \
                     analytic volume is {}",
                    self.analytic_bytes
                ));
            }
        }
        if !self.bit_identical {
            v.push("a striped width diverged bitwise from the single-channel run".into());
        }
        v
    }
}

/// Runs the sweep: `iters` timed AllReduces per width, fastest kept,
/// per-run wall-clock = slowest rank; every run's rank-0 output is
/// bit-compared against the single-channel reference.
pub fn channel_ablation_bench(elems: usize, ranks: usize, iters: usize) -> ChannelsRow {
    let mut walls = Vec::new();
    let mut wire_bytes = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    let mut bit_identical = true;
    for &channels in &CH_WIDTHS {
        let mut wall = f64::INFINITY;
        let mut bytes = 0u64;
        for _ in 0..iters.max(1) {
            let (t, b, out_bits) = timed_run(elems, ranks, channels);
            if t < wall {
                wall = t;
                bytes = b;
            }
            match &reference {
                None => reference = Some(out_bits),
                Some(want) => bit_identical &= *want == out_bits,
            }
        }
        walls.push((channels, wall));
        wire_bytes.push((channels, bytes));
    }
    ChannelsRow {
        elems,
        ranks,
        walls,
        wire_bytes,
        analytic_bytes: ring_all_reduce_wire_bytes(elems, ranks, DType::F32),
        bit_identical,
    }
}

/// One timed striped AllReduce over fresh rank threads; returns the
/// slowest rank's wall-clock, rank 0's wire bytes, and rank 0's output
/// as raw bits.
fn timed_run(elems: usize, ranks: usize, channels: usize) -> (f64, u64, Vec<u32>) {
    let results = run_ranks(ranks, move |comm| {
        let group = Group {
            start: 0,
            size: ranks,
        };
        let rank = comm.rank() as f32;
        let input = Tensor::from_fn([elems], DType::F32, move |i| rank + (i % 97) as f32);
        comm.reset_ledger();
        let start = Instant::now();
        let out = ring_all_reduce(
            &comm,
            group,
            &input,
            ReduceOp::Sum,
            WireFormat::Dense,
            channels,
        );
        let elapsed = start.elapsed();
        // Spot-check the reduction so no width can cheat.
        let base: f32 = (0..ranks).map(|r| r as f32).sum();
        assert_eq!(out.get(1), base + ranks as f32);
        let bits = if comm.rank() == 0 {
            (0..elems).map(|i| out.get(i).to_bits()).collect()
        } else {
            Vec::new()
        };
        (elapsed, comm.ledger().bytes_sent, bits)
    });
    let wall = results
        .iter()
        .map(|(t, _, _)| *t)
        .max()
        .unwrap_or(Duration::ZERO);
    let (_, bytes, bits) = results.into_iter().next().expect("rank 0 ran");
    (wall.as_secs_f64(), bytes, bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small-size sweep: every width bit-identical and byte-exact.
    #[test]
    fn sweep_is_bit_identical_and_byte_exact() {
        let row = channel_ablation_bench(1 << 12, 4, 1);
        assert!(row.bit_identical);
        for &(c, bytes) in &row.wire_bytes {
            assert_eq!(bytes, row.analytic_bytes, "width {c}");
        }
        assert!(row.walls.iter().all(|&(_, s)| s > 0.0));
        assert!(row.violations().is_empty());
    }
}
