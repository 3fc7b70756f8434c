//! `CommConfig::executed_as` partitions the tuner's grid exactly as the
//! runtime does (ROADMAP 6b). Over the whole `algo × protocol ×
//! channels × format × sched` grid, for AllReduce, ReduceScatter and
//! AllGather on 4 ranks / 2 nodes, at one payload where the sparse
//! exchange beats the dense ring and one where it does not:
//!
//! * two cells with the same `Executed` are indistinguishable — the
//!   same output bits and the same [`BytesLedger`] (bytes, message
//!   counts, materializations) on every rank;
//! * two cells with different `Executed` differ in at least one;
//! * `protocol` and `sched` never change a site's `Executed`, so only
//!   the distinct `(algo, channels, format)` cells run.

use std::collections::HashMap;

use coconet::compress::WireFormat;
use coconet::core::{nodes_spanned, Autotuner, CollAlgo, CollKind, CollSite, CommConfig, Executed};
use coconet::runtime::{
    all_gather_wire_striped, all_reduce_wire_striped, reduce_scatter_wire_striped, run_ranks,
    BytesLedger, Group,
};
use coconet::tensor::{DType, ReduceOp, Tensor};

const RANKS: usize = 4;
const RANKS_PER_NODE: usize = 2;
const KINDS: [CollKind; 3] = [
    CollKind::AllReduce,
    CollKind::ReduceScatter,
    CollKind::AllGather,
];
/// 10 ‰ of 4096 elements is far below the dense ring volume; at 3
/// elements over 4 ranks the dense ring moves less than one sparse
/// entry, so top-k switches over to dense.
const PAYLOADS: [usize; 2] = [4096, 3];

/// What the runtime can tell apart: `(algo, channels, format)`.
type Cell = (CollAlgo, usize, WireFormat);
/// Everything one rank can observe of one collective.
type Outcome = (Vec<Vec<u32>>, BytesLedger);

fn cells(tuner: &Autotuner) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &algo in &tuner.algos {
        for &channels in &tuner.channels {
            for &format in &tuner.formats {
                cells.push((algo, channels, format));
            }
        }
    }
    cells
}

fn site(kind: CollKind, elems: usize) -> CollSite {
    let nodes = nodes_spanned(RANKS, RANKS_PER_NODE);
    CollSite::new(kind, ReduceOp::Sum, elems as u64, DType::F32, RANKS, nodes)
}

/// Runs every `(kind, payload, cell)` once, in that order, inside one
/// 4-rank world; returns `[rank][case]`.
fn run_all(cells: &[Cell]) -> Vec<Vec<Outcome>> {
    let cells = cells.to_vec();
    run_ranks(RANKS, move |comm| {
        let group = Group {
            start: 0,
            size: RANKS,
        };
        let rank = comm.rank();
        let bits = |t: &Tensor| t.to_f32_vec().iter().map(|v| v.to_bits()).collect();
        let mut outcomes = Vec::new();
        for kind in KINDS {
            for n in PAYLOADS {
                // An AllGather contributes one chunk of the payload.
                let len = match kind {
                    CollKind::AllGather => n.div_ceil(RANKS),
                    _ => n,
                };
                let input = Tensor::from_fn([len], DType::F32, move |i| {
                    (((rank * 31 + i * 7) % 23) as f32 - 11.0) * 0.37
                });
                for &(algo, channels, format) in &cells {
                    comm.reset_ledger();
                    let sum = ReduceOp::Sum;
                    let out: Vec<Vec<u32>> = match kind {
                        CollKind::AllReduce => vec![bits(&all_reduce_wire_striped(
                            &comm,
                            group,
                            &input,
                            sum,
                            algo,
                            RANKS_PER_NODE,
                            format,
                            None,
                            channels,
                        ))],
                        CollKind::ReduceScatter => vec![bits(&reduce_scatter_wire_striped(
                            &comm,
                            group,
                            &input,
                            sum,
                            algo,
                            RANKS_PER_NODE,
                            format,
                            channels,
                        ))],
                        _ => all_gather_wire_striped(
                            &comm,
                            group,
                            &input,
                            algo,
                            RANKS_PER_NODE,
                            format,
                            channels,
                        )
                        .iter()
                        .map(bits)
                        .collect(),
                    };
                    outcomes.push((out, comm.ledger()));
                }
            }
        }
        outcomes
    })
}

#[test]
fn equal_executed_is_indistinguishable_and_unequal_is_not() {
    let tuner = Autotuner::default();
    let configs = tuner.configs();
    let cells = cells(&tuner);
    let per_rank = run_all(&cells);
    let mut grid = 0usize;
    let mut case = 0usize;
    for kind in KINDS {
        for n in PAYLOADS {
            let site = site(kind, n);
            let cell_config = |algo, channels, format| CommConfig {
                algo,
                channels,
                format,
                ..CommConfig::default()
            };
            for cfg in &configs {
                let cell = cell_config(cfg.algo, cfg.channels, cfg.format);
                assert_eq!(
                    cfg.executed_as(&site),
                    cell.executed_as(&site),
                    "{cfg} {kind}"
                );
                grid += 1;
            }
            // One representative run per class: (cell, its case index).
            let mut classes: HashMap<Executed, (Cell, usize)> = HashMap::new();
            for &(algo, channels, format) in &cells {
                let run = cell_config(algo, channels, format).executed_as(&site);
                let cell = (algo, channels, format);
                let &mut (first, first_case) = classes.entry(run).or_insert((cell, case));
                for (rank, outcomes) in per_rank.iter().enumerate() {
                    assert_eq!(
                        outcomes[case], outcomes[first_case],
                        "{kind} n={n} rank {rank}: {cell:?} and {first:?} both run as {run:?}"
                    );
                }
                case += 1;
            }
            let reps: Vec<(&Executed, &(Cell, usize))> = classes.iter().collect();
            for (i, (run_a, (cell_a, a))) in reps.iter().enumerate() {
                for (run_b, (cell_b, b)) in &reps[i + 1..] {
                    assert!(
                        per_rank.iter().any(|o| o[*a] != o[*b]),
                        "{kind} n={n}: {cell_a:?} runs as {run_a:?} and {cell_b:?} as \
                         {run_b:?}, yet no rank can tell them apart"
                    );
                }
            }
            // The live grid: {ring, tree, hier} × {dense, fp16} × 6
            // widths + the switch (+ the sparse exchange when active)
            // for an AllReduce; {ring, hier} × 2 × 6 otherwise.
            let want = match (kind, n) {
                (CollKind::AllReduce, 4096) => 38,
                (CollKind::AllReduce, _) => 37,
                _ => 24,
            };
            assert_eq!(classes.len(), want, "{kind} n={n}");
        }
    }
    assert_eq!(grid, 432 * KINDS.len() * PAYLOADS.len());
}
