//! Measured (not simulated) runtime experiments for the zero-copy
//! tensor substrate.
//!
//! Unlike the §6 experiments, which time schedules under the cost
//! model, these rows *execute* the runtime's ring AllReduce on real
//! rank threads and measure two things:
//!
//! - `microbench_zero_copy` — wall-clock of the copy-on-write runtime
//!   against a faithful reconstruction of the seed runtime's data
//!   movement (deep-copied sends, slice-out/write-back accumulation,
//!   element-wise loops), proving the substrate rewrite pays off on
//!   the copy-bound path the paper targets;
//! - `ledger_allreduce` — the [`BytesLedger`] of the same run against
//!   the analytic ring volume, proving the wire traffic is exactly
//!   `2·(p−1)/p·n·dtype_size` per rank and the only materializations
//!   are the reduction's fused-fold buffers plus the output buffer.

use std::time::{Duration, Instant};

use coconet_compress::WireFormat;
use coconet_runtime::{
    chunk_range, ring_all_reduce, ring_all_reduce_wire_bytes, run_ranks, BytesLedger, Group,
    RankComm,
};
use coconet_tensor::{DType, ReduceOp, Tensor};

/// Elements of the benchmarked AllReduce: 2^24 — the acceptance size —
/// in release builds, which produce every committed
/// `BENCH_coconet.json`. Debug builds (the unit-test suite) shrink to
/// 2^18 so `cargo test` does not spend a minute in the deliberately
/// slow deep-copy reconstruction.
pub const ZC_ELEMS: usize = if cfg!(debug_assertions) {
    1 << 18
} else {
    1 << 24
};

/// Rank threads of the benchmarked AllReduce.
pub const ZC_RANKS: usize = 8;

/// The speedup the regression gate tracks, capping the measured ratio:
/// the raw deep-copy/zero-copy ratio (~20x on a development machine)
/// is a cross-machine wall-clock comparison too volatile for a 10 %
/// gate, while any real copy regression collapses it to ~1x. Capping
/// the recorded speedup at 5x makes the committed baseline
/// machine-independent (every healthy run measures ≥ 5x) and keeps the
/// gate threshold far above the 2x acceptance floor.
pub const GATED_SPEEDUP_CAP: f64 = 5.0;

/// One zero-copy measurement: wall-clocks plus rank 0's ledger.
#[derive(Clone, Debug)]
pub struct ZeroCopyRow {
    /// Elements reduced.
    pub elems: usize,
    /// Ranks participating.
    pub ranks: usize,
    /// Deep-copy (seed-runtime) wall-clock, seconds — max across
    /// ranks, fastest of the iterations.
    pub deep_copy_s: f64,
    /// Copy-on-write runtime wall-clock, seconds.
    pub zero_copy_s: f64,
    /// Rank 0's ledger over the zero-copy run.
    pub ledger: BytesLedger,
    /// The analytic per-rank wire volume.
    pub analytic_bytes: u64,
}

impl ZeroCopyRow {
    /// Deep-copy over zero-copy speedup.
    pub fn speedup(&self) -> f64 {
        self.deep_copy_s / self.zero_copy_s
    }

    /// The bytes a minimal ring AllReduce must materialize while
    /// reducing: one fresh fused-fold buffer per reduce-scatter hop,
    /// `(p−1)/p` of the tensor in all.
    pub fn expected_fold_bytes(&self) -> u64 {
        ((self.ranks - 1) * (self.elems / self.ranks) * DType::F32.size_bytes()) as u64
    }

    /// Violations of the ledger invariants (empty when the run moved
    /// exactly its analytic volume and copied nothing beyond it).
    pub fn ledger_violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.ledger.bytes_sent != self.analytic_bytes {
            v.push(format!(
                "ring AllReduce sent {} bytes per rank, analytic volume is {}",
                self.ledger.bytes_sent, self.analytic_bytes
            ));
        }
        if self.ledger.cow_bytes != 0 {
            v.push(format!(
                "ring AllReduce copied {} bytes on write, the fused folds need none",
                self.ledger.cow_bytes
            ));
        }
        // The reduction's fold buffers plus exactly one output buffer.
        let out_bytes = (self.elems * DType::F32.size_bytes()) as u64;
        if self.ledger.bytes_allocated != self.expected_fold_bytes() + out_bytes {
            v.push(format!(
                "ring AllReduce allocated {} bytes, expected {} (fold buffers + output)",
                self.ledger.bytes_allocated,
                self.expected_fold_bytes() + out_bytes
            ));
        }
        v
    }
}

/// Runs the microbenchmark: `iters` timed AllReduces per mode, fastest
/// kept, per-run wall-clock = slowest rank (the collective finishes
/// when its last rank does).
pub fn zero_copy_microbench(elems: usize, ranks: usize, iters: usize) -> ZeroCopyRow {
    let mut zero_copy_s = f64::INFINITY;
    let mut deep_copy_s = f64::INFINITY;
    let mut ledger = BytesLedger::default();
    for _ in 0..iters.max(1) {
        let (t, l) = timed_run(elems, ranks, false);
        if t < zero_copy_s {
            zero_copy_s = t;
            ledger = l;
        }
        let (t, _) = timed_run(elems, ranks, true);
        deep_copy_s = deep_copy_s.min(t);
    }
    ZeroCopyRow {
        elems,
        ranks,
        deep_copy_s,
        zero_copy_s,
        ledger,
        analytic_bytes: ring_all_reduce_wire_bytes(elems, ranks, DType::F32),
    }
}

/// One timed AllReduce over fresh rank threads; returns the slowest
/// rank's wall-clock and rank 0's ledger.
fn timed_run(elems: usize, ranks: usize, deep: bool) -> (f64, BytesLedger) {
    let results = run_ranks(ranks, move |comm| {
        let group = Group {
            start: 0,
            size: ranks,
        };
        let rank = comm.rank() as f32;
        let input = Tensor::from_fn([elems], DType::F32, move |i| rank + (i % 97) as f32);
        comm.reset_ledger();
        let start = Instant::now();
        let out = if deep {
            deep_copy_ring_all_reduce(&comm, group, &input, ReduceOp::Sum)
        } else {
            ring_all_reduce(&comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1)
        };
        let elapsed = start.elapsed();
        assert_eq!(out.numel(), elems);
        // Spot-check the reduction so neither mode can cheat.
        let want: f32 = (0..ranks).map(|r| r as f32).sum();
        assert_eq!(out.get(0), want);
        (elapsed, comm.ledger())
    });
    let wall = results
        .iter()
        .map(|(t, _)| *t)
        .max()
        .unwrap_or(Duration::ZERO);
    (wall.as_secs_f64(), results[0].1)
}

/// The seed runtime's ring AllReduce, reconstructed byte for byte:
/// every send deep-copies its chunk, chunks are sliced out of and
/// written back into a deep-copied accumulator each step, and the
/// reduction/assembly loops go element by element — the data movement
/// the copy-on-write substrate exists to eliminate.
fn deep_copy_ring_all_reduce(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
) -> Tensor {
    let k = group.size;
    let me = group.position(comm.rank());
    let n = input.numel();
    if k == 1 {
        return input.deep_clone();
    }
    let mut acc = input.deep_clone();
    let j = (me + k - 1) % k;
    for step in 0..k - 1 {
        let send_c = (j + k - step % k) % k;
        let recv_c = (j + k - step - 1) % k;
        let (s_off, s_len) = chunk_range(n, k, send_c);
        comm.send(group.next(comm.rank()), slice_copy(&acc, s_off, s_len));
        let incoming = comm.recv(group.prev(comm.rank()));
        let (r_off, r_len) = chunk_range(n, k, recv_c);
        let mut local = slice_copy(&acc, r_off, r_len);
        for i in 0..r_len {
            local.set(i, op.apply(local.get(i), incoming.get(i)));
        }
        for i in 0..r_len {
            acc.set(r_off + i, local.get(i));
        }
    }
    // All-gather with a deep copy per forwarded chunk.
    let mut chunks: Vec<Option<Tensor>> = vec![None; k];
    let (off, len) = chunk_range(n, k, me);
    chunks[me] = Some(slice_copy(&acc, off, len));
    for step in 0..k - 1 {
        let send_c = (me + k - step % k) % k;
        let recv_c = (me + k - step - 1) % k;
        let outgoing = chunks[send_c].as_ref().expect("by schedule").deep_clone();
        comm.send(group.next(comm.rank()), outgoing);
        chunks[recv_c] = Some(comm.recv(group.prev(comm.rank())));
    }
    let mut out = Tensor::zeros([n], input.dtype());
    let mut offset = 0usize;
    for c in chunks.into_iter().map(|c| c.expect("gathered")) {
        for i in 0..c.numel() {
            out.set(offset + i, c.get(i));
        }
        offset += c.numel();
    }
    out.reshape(input.shape().clone()).expect("same numel")
}

/// The seed's `slice_flat`: an element-wise materializing copy.
fn slice_copy(t: &Tensor, off: usize, len: usize) -> Tensor {
    Tensor::from_fn([len], t.dtype(), |i| t.get(off + i))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small-size run: both modes agree, the speedup is sane, and
    /// the ledger invariants hold (the acceptance-size run lives in
    /// the trajectory, measured under `--release`).
    #[test]
    fn microbench_modes_agree_and_ledger_is_exact() {
        let row = zero_copy_microbench(1 << 12, 4, 1);
        assert!(row.deep_copy_s > 0.0 && row.zero_copy_s > 0.0);
        assert_eq!(
            row.analytic_bytes,
            ring_all_reduce_wire_bytes(1 << 12, 4, DType::F32)
        );
        assert_eq!(row.ledger_violations(), Vec::<String>::new());
    }

    /// The deep-copy reconstruction produces the exact reduction.
    #[test]
    fn deep_copy_baseline_is_correct() {
        let k = 3;
        let results = run_ranks(k, move |comm| {
            let group = Group { start: 0, size: k };
            let input = Tensor::from_fn([10], DType::F32, |i| (comm.rank() * 10 + i) as f32);
            let deep = deep_copy_ring_all_reduce(&comm, group, &input, ReduceOp::Sum);
            let fast = ring_all_reduce(&comm, group, &input, ReduceOp::Sum, WireFormat::Dense, 1);
            (deep, fast)
        });
        for (deep, fast) in &results {
            assert_eq!(deep.to_f32_vec(), fast.to_f32_vec());
        }
    }
}
