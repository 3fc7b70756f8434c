//! The simulated wire-format ablation behind the costed
//! `compression_ablation_{small,large}` rows: cost-model AllReduce
//! times for dense / FP16 / top-k at 1 ‰, 10 ‰ and 100 ‰, each format
//! at its best `algorithm × protocol`, on the paper testbed's 256
//! GPUs. The small row shows dense winning the latency-bound regime
//! (codec kernels cost more than they save); the large row shows the
//! sparse wire winning outright — and the 100 ‰ point demonstrates
//! the *sparse↔dense crossover*: on FP16 gradients its sparse form
//! is bigger than the dense wire, so the switchover runs it dense.
//!
//! (The measured volumes — FP16 exactly half of dense, top-k on the
//! sparse formula — are asserted by `coconet-runtime`'s ledger tests
//! and reported by `benchmark/` as `compress.wire_ratio_*`.)

use coconet_compress::WireFormat;
use coconet_core::{CollAlgo, CollKind, CommConfig, DType, Protocol};
use coconet_sim::Simulator;
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
}
