//! Ablations the paper's analysis calls out but does not plot:
//! protocol choice per size, channel count, overlap tile count, and
//! the collective algorithm per message size and per worker count.

use coconet_bench::{experiments, fmt_time, Report};

fn main() {
    let mut r = Report::new(
        "Ablation: NCCL protocol per message size (AllReduce, 256 GPUs)",
        &["elems", "LL", "LL128", "Simple", "winner"],
    );
    for (e, [ll, ll128, simple]) in experiments::ablation_protocols(&[10, 14, 18, 22, 26, 30]) {
        let winner = if ll <= ll128 && ll <= simple {
            "LL"
        } else if ll128 <= simple {
            "LL128"
        } else {
            "Simple"
        };
        r.row(&[
            format!("2^{e}"),
            fmt_time(ll),
            fmt_time(ll128),
            fmt_time(simple),
            winner.to_string(),
        ]);
    }
    r.note("the latency/bandwidth crossover that drives the autotuner's protocol choice");
    r.print();

    let mut r = Report::new(
        "Ablation: channel count (AllReduce of 2^30 FP16 elements)",
        &["channels", "time"],
    );
    for (ch, t) in experiments::ablation_channels(1 << 30) {
        r.row(&[ch.to_string(), fmt_time(t)]);
    }
    r.note("cross-node rings saturate once channels cover the 8 NICs");
    r.print();

    let mut r = Report::new(
        "Ablation: overlap buffer-tile count (Figure 1 shape, B=64)",
        &["tiles", "time"],
    );
    for (tiles, t) in experiments::ablation_tile_count(64) {
        r.row(&[tiles.to_string(), fmt_time(t)]);
    }
    r.note("1 tile = no overlap; past ~64 tiles spin-lock overhead wins (section 5.3)");
    r.print();

    let mut r = Report::new(
        "Ablation: collective algorithm per message size (AllReduce, 256 GPUs, \
         tuned protocol/channels per algorithm)",
        &["elems", "ring", "tree", "hierarchical", "switch", "winner"],
    );
    for (e, times) in experiments::ablation_algorithms(&[10, 14, 18, 22, 26, 30]) {
        let [ring, tree, hier, switch] = times;
        r.row(&[
            format!("2^{e}"),
            fmt_time(ring),
            fmt_time(tree),
            fmt_time(hier),
            fmt_time(switch),
            experiments::algo_winner(&times).to_string(),
        ]);
    }
    r.note(
        "section 5.1's logical topologies as a tuned dimension: trees win latency-bound \
         sizes, rings win bandwidth-bound ones, two-level hierarchical sits between",
    );
    r.print();

    let mut r = Report::new(
        "Ablation: collective algorithm per worker count (AllReduce of 2^18 F32 \
         elements, 1 rank/node, tuned protocol/channels per algorithm)",
        &[
            "workers",
            "ring",
            "tree",
            "hierarchical",
            "switch",
            "winner",
        ],
    );
    for (w, times) in experiments::ablation_switch_workers(&[2, 4, 8, 16, 32]) {
        let [ring, tree, hier, switch] = times;
        r.row(&[
            w.to_string(),
            fmt_time(ring),
            fmt_time(tree),
            fmt_time(hier),
            fmt_time(switch),
            experiments::algo_winner(&times).to_string(),
        ]);
    }
    r.note(
        "SwitchML's in-network aggregation: per-worker volume is 2n words at any k, \
         so the switch overtakes every host-side algorithm as the group grows",
    );
    r.print();
}
