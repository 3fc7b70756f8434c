//! Compressed collectives: the runtime half of the wire-compression
//! subsystem.
//!
//! [`sparse_all_reduce`] is SparCML's sparse AllReduce over the message
//! fabric: every rank top-k-sparsifies its (error-feedback-corrected)
//! gradient into a [`SparseChunk`], the chunks travel as fixed-`k`
//! `(index, value)` payloads — `log2(p)` recursive-doubling rounds with
//! re-sparsification on power-of-two groups, the ring AllGather form
//! otherwise — and every rank densifies the identical combined chunk,
//! so the output is replicated exactly like a dense AllReduce's.
//!
//! Because every message is exactly `k` entries, the wire volume is
//! data-independent and the [`BytesLedger`](crate::BytesLedger) can
//! assert it equals [`sparse_all_reduce_wire_bytes`] to the byte.
//!
//! [`all_reduce_wire_striped`], [`reduce_scatter_wire_striped`] and
//! [`all_gather_wire_striped`] are the dispatch the executor, the
//! streaming loop and the training loop share: each asks
//! [`CommConfig::executed_as`] what the configured algorithm, format and
//! channel count really run as at this site — once per call, never per
//! hop — and runs exactly that, so what the tuner priced is what runs.

use coconet_compress::{sparsify_top_k, ErrorFeedback, WireFormat};
use coconet_core::{nodes_spanned, CollAlgo, CollKind, CollSite, CommConfig, Executed};
use coconet_tensor::{ReduceOp, SparseChunk, Tensor};

use crate::collectives::{
    ring_all_gather, ring_all_reduce, ring_reduce_scatter, ring_schedule, Group,
};
use crate::hierarchical::{
    hierarchical_all_gather, hierarchical_all_reduce, hierarchical_reduce_scatter,
};
use crate::switch::switch_all_reduce;
use crate::tree::tree_all_reduce;
use crate::{RankComm, WireMsg};

/// What `config` runs as for a `kind` collective of `payload` over
/// `group`, `ranks_per_node` consecutive ranks sharing a node (`0`: the
/// whole group is one node). Only `config.{algo, format, channels}`
/// enter. An AllGather's payload is the local chunk — immaterial, since
/// only the AllReduce rules read the element count.
pub(crate) fn executed(
    config: CommConfig,
    kind: CollKind,
    op: ReduceOp,
    payload: &Tensor,
    group: Group,
    ranks_per_node: usize,
) -> Executed {
    config.executed_as(&CollSite::new(
        kind,
        op,
        payload.numel() as u64,
        payload.dtype(),
        group.size,
        nodes_spanned(group.size, ranks_per_node),
    ))
}

/// The configuration a positional `(algo, format, channels)` triple
/// names (the dimensions a site's [`Executed`] depends on).
fn config_of(algo: CollAlgo, format: WireFormat, channels: usize) -> CommConfig {
    CommConfig {
        algo,
        format,
        channels,
        ..CommConfig::default()
    }
}

/// AllReduce under a full communication configuration — whatever
/// [`CommConfig::executed_as`] resolves `algo`, `format` and `channels`
/// to at this site: the sparse exchange when top-k is active, the
/// one-lane fixed-point switch, or the ring, tree or hierarchical
/// algorithm striped over the resolved lanes. `feedback` carries the
/// per-rank error-feedback residual across iterations; pass `None` for
/// one-shot collectives (the dropped mass is discarded).
///
/// Results are bit-identical to `channels = 1` at every width and the
/// per-rank byte totals are unchanged.
#[allow(clippy::too_many_arguments)]
pub fn all_reduce_wire_striped(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    algo: CollAlgo,
    ranks_per_node: usize,
    format: WireFormat,
    feedback: Option<&mut ErrorFeedback>,
    channels: usize,
) -> Tensor {
    let config = config_of(algo, format, channels);
    let run = executed(
        config,
        CollKind::AllReduce,
        op,
        input,
        group,
        ranks_per_node,
    );
    run_all_reduce(comm, group, input, op, run, ranks_per_node, feedback)
}

/// Runs an already-resolved AllReduce (see [`executed`]).
pub(crate) fn run_all_reduce(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    run: Executed,
    ranks_per_node: usize,
    feedback: Option<&mut ErrorFeedback>,
) -> Tensor {
    if run.is_sparse() {
        return sparse_all_reduce(comm, group, input, run.format, feedback);
    }
    match run.algo {
        CollAlgo::Ring => ring_all_reduce(comm, group, input, op, run.format, run.lanes),
        CollAlgo::Tree => tree_all_reduce(comm, group, input, op, run.format, run.lanes),
        CollAlgo::Hierarchical => hierarchical_all_reduce(
            comm,
            group,
            input,
            op,
            ranks_per_node,
            run.format,
            run.lanes,
        ),
        CollAlgo::Switch => switch_all_reduce(comm, group, input, op),
    }
}

/// ReduceScatter under a full communication configuration: group
/// position `i` returns the fully reduced flat chunk `i` of `input`
/// (see [`ring_reduce_scatter`]). The tree and the switch have no
/// scatter form and top-k no sparse one; what runs is the ring or the
/// hierarchical algorithm on the dense or FP16 wire.
#[allow(clippy::too_many_arguments)]
pub fn reduce_scatter_wire_striped(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    op: ReduceOp,
    algo: CollAlgo,
    ranks_per_node: usize,
    format: WireFormat,
    channels: usize,
) -> Tensor {
    let config = config_of(algo, format, channels);
    let kind = CollKind::ReduceScatter;
    let run = executed(config, kind, op, input, group, ranks_per_node);
    match run.algo {
        CollAlgo::Ring => ring_reduce_scatter(comm, group, input, op, run.format, run.lanes),
        CollAlgo::Hierarchical => hierarchical_reduce_scatter(
            comm,
            group,
            input,
            op,
            ranks_per_node,
            run.format,
            run.lanes,
        ),
        CollAlgo::Tree | CollAlgo::Switch => unreachable!("{kind} resolves to the ring"),
    }
}

/// AllGather under a full communication configuration: returns every
/// position's chunk in position order (see [`ring_all_gather`]);
/// resolved like [`reduce_scatter_wire_striped`].
pub fn all_gather_wire_striped(
    comm: &RankComm,
    group: Group,
    chunk: &Tensor,
    algo: CollAlgo,
    ranks_per_node: usize,
    format: WireFormat,
    channels: usize,
) -> Vec<Tensor> {
    let config = config_of(algo, format, channels);
    let kind = CollKind::AllGather;
    let run = executed(config, kind, ReduceOp::Sum, chunk, group, ranks_per_node);
    match run.algo {
        CollAlgo::Ring => ring_all_gather(comm, group, chunk, run.format, run.lanes),
        CollAlgo::Hierarchical => {
            hierarchical_all_gather(comm, group, chunk, ranks_per_node, run.format, run.lanes)
        }
        CollAlgo::Tree | CollAlgo::Switch => unreachable!("{kind} resolves to the ring"),
    }
}

/// The sparse top-k AllReduce (sum only). Callers normally reach it
/// through [`all_reduce_wire_striped`], which applies the dense
/// switchover;
/// calling it directly runs the sparse exchange unconditionally.
///
/// Every rank returns the identical dense tensor: the densification of
/// the same combined `k`-entry chunk (recursive doubling keeps the
/// pair's merges bit-identical; the gather form sums all `p` chunks in
/// position order).
///
/// # Panics
///
/// Panics if `format` is not [`WireFormat::TopK`].
pub(crate) fn sparse_all_reduce(
    comm: &RankComm,
    group: Group,
    input: &Tensor,
    format: WireFormat,
    mut feedback: Option<&mut ErrorFeedback>,
) -> Tensor {
    assert!(
        matches!(format, WireFormat::TopK { .. }),
        "sparse_all_reduce needs a TopK format, got {format}"
    );
    let n = input.numel();
    let k = format.k_for(n as u64) as usize;
    let p = group.size;

    // Error feedback: re-inject the residual the previous iterations
    // dropped, select this iteration's chunk, remember the remainder.
    let corrected = match feedback.as_deref() {
        Some(ef) => ef.inject(input),
        None => input.cast(coconet_tensor::DType::F32),
    };
    let own = {
        let _codec = coconet_trace::span(
            coconet_trace::EventKind::Codec,
            "topk:select",
            n as u64,
            k as u64,
        );
        sparsify_top_k(&corrected, k)
    };
    if let Some(ef) = feedback.as_deref_mut() {
        ef.absorb(&corrected, &own);
    }
    if p <= 1 {
        return own
            .to_dense(input.dtype())
            .reshape(input.shape().clone())
            .expect("same numel");
    }

    let me = group.position(comm.rank());
    let combined = if p.is_power_of_two() {
        // SparCML recursive doubling with fixed-k re-sparsification:
        // in round r every rank exchanges its current chunk with the
        // partner `block` positions away and both keep the identical
        // top-k of the merged sum. The mass a round's re-sparsification
        // drops is fed back scaled by the block size (all `2·block`
        // ranks of the pair's blocks hold the same dropped entries, so
        // each re-injects its share).
        let mut acc = own;
        let mut block = 1usize;
        while block < p {
            let partner = group.rank_at(me ^ block);
            comm.send_msg(partner, WireMsg::Sparse(acc.clone()));
            let WireMsg::Sparse(theirs) = comm.recv_msg(partner) else {
                unreachable!("the sparse exchange carries sparse chunks only")
            };
            let merged = acc.merge_sum(&theirs);
            let (kept, dropped) = merged.split_top_k(k);
            if let Some(ef) = feedback.as_deref_mut() {
                if !dropped.is_empty() {
                    ef.absorb_scaled(&dropped, 1.0 / (2 * block) as f32);
                }
            }
            acc = kept;
            block <<= 1;
        }
        acc
    } else {
        // The AllGather form: every rank's chunk travels the ring and
        // everyone sums all `p` chunks in position order.
        let mut chunks: Vec<Option<SparseChunk>> = vec![None; p];
        chunks[me] = Some(own);
        for step in 0..p - 1 {
            let (send_c, recv_c) = ring_schedule(me, p, step);
            let outgoing = chunks[send_c].clone().expect("chunk present by schedule");
            comm.send_msg(group.next(comm.rank()), WireMsg::Sparse(outgoing));
            let WireMsg::Sparse(incoming) = comm.recv_msg(group.prev(comm.rank())) else {
                unreachable!("the sparse exchange carries sparse chunks only")
            };
            chunks[recv_c] = Some(incoming);
        }
        let mut combined = chunks[0].take().expect("all chunks gathered");
        for c in chunks.into_iter().skip(1) {
            combined = combined.merge_sum(&c.expect("all chunks gathered"));
        }
        combined
    };

    let _codec = coconet_trace::span(
        coconet_trace::EventKind::Codec,
        "topk:densify",
        n as u64,
        k as u64,
    );
    combined
        .to_dense(input.dtype())
        .reshape(input.shape().clone())
        .expect("same numel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run_ranks;
    use crate::ring_all_reduce;
    use coconet_tensor::DType;

    fn group_of(k: usize) -> Group {
        Group { start: 0, size: k }
    }

    /// k = n (1000 ‰) keeps every entry: the sparse exchange is then
    /// lossless and must agree with the dense ring exactly, on both
    /// the recursive-doubling and the AllGather forms.
    #[test]
    fn full_density_sparse_matches_dense_exactly() {
        for k in [4usize, 8, 6, 5] {
            let n = 24;
            let results = run_ranks(k, move |comm| {
                let input =
                    Tensor::from_fn([n], DType::F32, |i| (comm.rank() * 7 + i) as f32 - 10.0);
                let sparse = sparse_all_reduce(
                    &comm,
                    group_of(k),
                    &input,
                    WireFormat::TopK { k_permille: 1000 },
                    None,
                );
                let dense = ring_all_reduce(
                    &comm,
                    group_of(k),
                    &input,
                    ReduceOp::Sum,
                    WireFormat::Dense,
                    1,
                );
                (sparse, dense)
            });
            for (r, (sparse, dense)) in results.iter().enumerate() {
                assert_eq!(
                    sparse.to_f32_vec(),
                    dense.to_f32_vec(),
                    "k={k} rank={r}: lossless sparse must equal dense"
                );
            }
        }
    }

    /// All ranks return the identical tensor (the replicated
    /// postcondition), for both exchange forms, at lossy densities.
    #[test]
    fn sparse_output_is_replicated() {
        for k in [8usize, 6] {
            let n = 64;
            let results = run_ranks(k, move |comm| {
                let input = Tensor::from_fn([n], DType::F32, |i| {
                    ((comm.rank() + 1) as f32) * ((i as f32) - 31.5)
                });
                sparse_all_reduce(
                    &comm,
                    group_of(k),
                    &input,
                    WireFormat::TopK { k_permille: 125 },
                    None,
                )
            });
            for t in &results[1..] {
                assert_eq!(t.to_f32_vec(), results[0].to_f32_vec(), "k={k}");
            }
        }
    }

    /// Error feedback accumulates everything the wire dropped: with a
    /// constant gradient, replaying the collective drains the residual
    /// into the output over iterations. Without feedback the
    /// never-selected elements are lost forever; with it the
    /// accumulated sparse stream closes in on the dense total.
    #[test]
    fn error_feedback_recovers_dropped_mass() {
        let k = 4usize;
        let n = 16;
        let iters = 64;
        let run = move |with_feedback: bool| {
            run_ranks(k, move |comm| {
                let input = Tensor::from_fn([n], DType::F32, |i| (i + 1) as f32 / 8.0);
                let mut ef = ErrorFeedback::new();
                let mut acc = Tensor::zeros([n], DType::F32);
                for _ in 0..iters {
                    let out = sparse_all_reduce(
                        &comm,
                        group_of(k),
                        &input,
                        WireFormat::TopK { k_permille: 250 },
                        with_feedback.then_some(&mut ef).map(|e| &mut *e),
                    );
                    acc = acc.add(&out).expect("same shape");
                }
                acc
            })
        };
        let with_ef = run(true);
        let without_ef = run(false);
        let dense_total: f32 = (0..n)
            .map(|i| (iters * k) as f32 * (i + 1) as f32 / 8.0)
            .sum();
        let total = |t: &Tensor| t.to_f32_vec().iter().sum::<f32>();
        for (fed, starved) in with_ef.iter().zip(&without_ef) {
            // The residual holds a bounded few iterations' worth of
            // mass; 64 iterations deliver well over 85 % of the dense
            // total. Without feedback the 12 never-selected elements
            // are simply gone (~43 % delivered).
            assert!(
                total(fed) >= 0.85 * dense_total,
                "with feedback: {} of {dense_total}",
                total(fed)
            );
            assert!(total(starved) < 0.5 * dense_total);
            // And feedback never over-delivers.
            assert!(total(fed) <= dense_total * 1.001);
        }
    }

    /// `all_reduce_wire` agrees with the dense reference within the
    /// stated tolerances for every format and algorithm.
    #[test]
    fn dispatch_matches_dense_within_tolerance() {
        let k = 8usize;
        let n = 64;
        let results = run_ranks(k, move |comm| {
            let input =
                Tensor::from_fn([n], DType::F32, |i| ((comm.rank() * 13 + i) as f32) / 16.0);
            let dense = ring_all_reduce(
                &comm,
                group_of(k),
                &input,
                ReduceOp::Sum,
                WireFormat::Dense,
                1,
            );
            let mut outs = Vec::new();
            for algo in CollAlgo::ALL {
                for format in WireFormat::SWEEP {
                    outs.push((
                        format!("{algo}/{format}"),
                        all_reduce_wire_striped(
                            &comm,
                            group_of(k),
                            &input,
                            ReduceOp::Sum,
                            algo,
                            4,
                            format,
                            None,
                            1,
                        ),
                    ));
                }
            }
            (dense, outs)
        });
        for (dense, outs) in &results {
            for (label, out) in outs {
                let diff = out.max_abs_diff(dense);
                // FP16 wire: per-hop rounding; top-k at 10 ‰ without
                // feedback: bounded by the dropped mass.
                let tol = if label.ends_with("Dense") {
                    0.0
                } else if label.ends_with("FP16") {
                    0.5
                } else {
                    dense
                        .to_f32_vec()
                        .iter()
                        .fold(0.0f32, |a, &b| a.max(b.abs()))
                };
                assert!(diff <= tol, "{label}: diff {diff} > tol {tol}");
            }
        }
    }
}
