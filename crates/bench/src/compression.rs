//! Wire-compression benchmarks: the simulated format ablation and the
//! measured, ledger-verified volume reduction.
//!
//! Two kinds of rows feed the trajectory:
//!
//! - `compression_ablation_{small,large}` — cost-model AllReduce times
//!   for dense / FP16 / top-k at 1 ‰, 10 ‰ and 100 ‰, each format at
//!   its best `algorithm × protocol`, on the paper testbed's 256
//!   GPUs. The small row shows dense winning the latency-bound regime
//!   (codec kernels cost more than they save); the large row shows the
//!   sparse wire winning outright — and the 100 ‰ point demonstrates
//!   the *sparse↔dense crossover*: on FP16 gradients its sparse form
//!   is bigger than the dense wire, so the switchover runs it dense.
//! - `ledger_compression` — a *measured* run of the runtime's
//!   compressed collectives on real rank threads at the acceptance
//!   geometry (2^24 F32 elements over 8 ranks in release builds):
//!   the [`BytesLedger`] must report exactly the analytic volumes —
//!   FP16 exactly half of dense, top-k at 10 ‰ the sparse formula and
//!   under 5 % of dense — with any deviation a gate failure.
//!
//! [`BytesLedger`]: coconet_runtime::BytesLedger

use coconet_compress::WireFormat;
use coconet_core::{CollAlgo, CollKind, CommConfig, DType, Protocol, ReduceOp};
use coconet_runtime::{
    all_reduce_wire_striped, ring_all_reduce_wire_bytes, run_ranks, top_k_all_reduce_wire_bytes,
    Group,
};
use coconet_sim::Simulator;
use coconet_tensor::Tensor;
use coconet_topology::MachineSpec;

use crate::experiments::DP_RANKS;

/// The formats the ablation sweeps, with stable row labels.
pub const ABLATION_FORMATS: [(&str, WireFormat); 5] = [
    ("dense", WireFormat::Dense),
    ("fp16", WireFormat::Fp16),
    ("topk1", WireFormat::TopK { k_permille: 1 }),
    ("topk10", WireFormat::TopK { k_permille: 10 }),
    ("topk100", WireFormat::TopK { k_permille: 100 }),
];

/// Elements of the measured ledger run: the acceptance criterion's
/// 2^24 in release builds (the committed trajectory), 2^18 in debug
/// builds (the unit-test suite) — the volume *ratios* are
/// size-independent, so the gate checks the same invariants either
/// way.
pub const LEDGER_ELEMS: usize = if cfg!(debug_assertions) {
    1 << 18
} else {
    1 << 24
};

/// Ranks of the measured ledger run (the acceptance geometry).
pub const LEDGER_RANKS: usize = 8;

/// One size's simulated format ablation: AllReduce of `2^log2_elems`
/// FP16 gradients on the paper testbed, each format at its own best
/// `algorithm × protocol` (16 channels) — the comparison the
/// autotuner's format dimension makes.
pub fn ablation_formats(log2_elems: u32) -> Vec<(&'static str, f64)> {
    let sim = Simulator::new(MachineSpec::paper_testbed(), DP_RANKS, 1);
    let geom = sim.group_geom();
    let cost = sim.cost_model();
    ABLATION_FORMATS
        .iter()
        .map(|&(name, format)| {
            let mut best = f64::INFINITY;
            for algo in CollAlgo::ALL {
                for protocol in Protocol::ALL {
                    let config = CommConfig {
                        algo,
                        protocol,
                        channels: 16,
                        format,
                        ..CommConfig::default()
                    };
                    best = best.min(cost.collective_time(
                        CollKind::AllReduce,
                        1 << log2_elems,
                        DType::F16,
                        geom,
                        config,
                    ));
                }
            }
            (name, best)
        })
        .collect()
}

/// The winning format label of an ablation (ties resolve to the
/// earlier, less exotic entry — dense first).
pub fn format_winner(rows: &[(&'static str, f64)]) -> &'static str {
    let mut best = 0;
    for (i, r) in rows.iter().enumerate().skip(1) {
        if r.1 < rows[best].1 {
            best = i;
        }
    }
    rows[best].0
}

/// The measured ledger volumes of one compressed-collective run.
#[derive(Clone, Debug)]
pub struct CompressionLedgerRow {
    /// Elements reduced.
    pub elems: usize,
    /// Ranks participating.
    pub ranks: usize,
    /// Per-rank bytes the dense ring AllReduce sent.
    pub dense_bytes: u64,
    /// Per-rank bytes the FP16-wire ring AllReduce sent.
    pub fp16_bytes: u64,
    /// Per-rank bytes the 10 ‰ top-k sparse AllReduce sent.
    pub topk_bytes: u64,
}

impl CompressionLedgerRow {
    /// Dense-over-top-k volume reduction (the gated ratio).
    pub fn volume_reduction(&self) -> f64 {
        self.dense_bytes as f64 / self.topk_bytes as f64
    }

    /// Violations of the analytic-volume invariants (empty when every
    /// measured byte matches its formula and the acceptance ratios
    /// hold).
    pub fn violations(&self) -> Vec<String> {
        let mut v = Vec::new();
        let dense_want = ring_all_reduce_wire_bytes(self.elems, self.ranks, DType::F32);
        if self.dense_bytes != dense_want {
            v.push(format!(
                "dense ring AllReduce sent {} bytes per rank, analytic volume is {dense_want}",
                self.dense_bytes
            ));
        }
        if 2 * self.fp16_bytes != self.dense_bytes {
            v.push(format!(
                "FP16 wire sent {} bytes per rank — not exactly half of dense ({})",
                self.fp16_bytes, self.dense_bytes
            ));
        }
        let topk_want = top_k_all_reduce_wire_bytes(self.elems, self.ranks, 10);
        if self.topk_bytes != topk_want {
            v.push(format!(
                "top-k AllReduce sent {} bytes per rank, analytic volume is {topk_want}",
                self.topk_bytes
            ));
        }
        if (self.topk_bytes as f64) >= 0.05 * self.dense_bytes as f64 {
            v.push(format!(
                "top-k at 10 permille moved {} bytes — not under 5 % of dense ({})",
                self.topk_bytes, self.dense_bytes
            ));
        }
        v
    }
}

/// Runs the three collectives on real rank threads and reads rank 0's
/// ledger for each — the measurement behind the `ledger_compression`
/// trajectory row.
pub fn compression_ledger_bench(elems: usize, ranks: usize) -> CompressionLedgerRow {
    let formats = [
        WireFormat::Dense,
        WireFormat::Fp16,
        WireFormat::TopK { k_permille: 10 },
    ];
    let results = run_ranks(ranks, move |comm| {
        let group = Group {
            start: 0,
            size: ranks,
        };
        let rank = comm.rank() as f32;
        let input = Tensor::from_fn([elems], DType::F32, move |i| rank + (i % 113) as f32 / 7.0);
        let mut bytes = [0u64; 3];
        for (slot, format) in bytes.iter_mut().zip(formats) {
            comm.reset_ledger();
            let out = all_reduce_wire_striped(
                &comm,
                group,
                &input,
                ReduceOp::Sum,
                CollAlgo::Ring,
                0,
                format,
                None,
                1,
            );
            assert_eq!(out.numel(), elems);
            *slot = comm.ledger().bytes_sent;
        }
        bytes
    });
    let [dense_bytes, fp16_bytes, topk_bytes] = results[0];
    CompressionLedgerRow {
        elems,
        ranks,
        dense_bytes,
        fp16_bytes,
        topk_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_shows_the_crossovers() {
        let small = ablation_formats(14);
        let large = ablation_formats(28);
        // Small messages: the codec kernels cost more than the saved
        // bytes — dense wins.
        assert_eq!(format_winner(&small), "dense");
        // Large messages: the sparse wire wins outright, and on FP16
        // gradients the 100 ‰ point has switched over to dense (same
        // wire, same time).
        assert!(format_winner(&large).starts_with("topk"));
        let at =
            |rows: &[(&str, f64)], name: &str| rows.iter().find(|r| r.0 == name).expect("row").1;
        assert!(at(&large, "topk10") < at(&large, "dense"));
        let rel = (at(&large, "topk100") - at(&large, "dense")).abs() / at(&large, "dense");
        assert!(rel < 1e-12, "topk100 switched over to the dense wire");
        // FP16-on-FP16 is byte-identical to dense at any size.
        let rel = (at(&large, "fp16") - at(&large, "dense")).abs() / at(&large, "dense");
        assert!(rel < 1e-12);
    }

    #[test]
    fn measured_ledger_matches_analytics_at_test_size() {
        let row = compression_ledger_bench(1 << 14, 8);
        assert_eq!(row.violations(), Vec::<String>::new());
        // The gated reduction is deterministic: dense/topk ≈ 29x at
        // 10 ‰ over 8 ranks, independent of the element count.
        assert!(row.volume_reduction() > 25.0);
    }
}
