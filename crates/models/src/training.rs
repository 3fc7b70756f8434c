//! The executable data-parallel training loop: a least-squares model
//! trained on real rank threads, its gradient AllReduce running under
//! a [`WireFormat`] and a [`CommSched`] — the end-to-end proof that
//! top-k gradient compression with error feedback converges like the
//! dense wire.

use coconet_core::{CommSched, DType, ReduceOp, WireFormat};

/// Configuration of the *executable* data-parallel loop: a linear
/// least-squares model trained by synchronous gradient descent on real
/// rank threads, with the gradient AllReduce running under a
/// [`WireFormat`] — the end-to-end demonstration that top-k
/// sparsification with SparCML-style error feedback converges like the
/// dense wire while moving a fraction of the bytes.
#[derive(Clone, Copy, Debug)]
pub struct DataParallelSpec {
    /// Rank threads (data shards).
    pub ranks: usize,
    /// Model dimension (weights).
    pub dim: usize,
    /// Training samples per rank.
    pub samples_per_rank: usize,
    /// Gradient-descent iterations.
    pub iters: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// Inverse-time learning-rate decay: iteration `t` steps at
    /// `lr / (1 + lr_decay · t)`. Decay is what lets the error-feedback
    /// loop close the gap to the dense trajectory exactly (the
    /// steady-state perturbation of a compressed gradient stream is
    /// proportional to the step size).
    pub lr_decay: f32,
    /// Data/initialization seed.
    pub seed: u64,
    /// Wire format of the gradient AllReduce.
    pub format: WireFormat,
    /// Communication schedule of the gradient exchange, handed to the
    /// one [`StreamExecutor`](coconet_runtime::StreamExecutor) loop:
    /// `Barriered` drains and applies every gradient at each
    /// iteration's end; under `Priority` the gradient jobs drain on the
    /// priority-scheduled fabric while the next iteration's forward
    /// proceeds. Results are bit-identical for every format: whatever
    /// [`CommConfig::executed_as`](coconet_core::CommConfig::executed_as)
    /// runs — the dense or FP16 ring, or an active top-k's sparse
    /// exchange with its error-feedback residual — is a job that rides
    /// the scheduler under either schedule.
    pub sched: CommSched,
}

impl Default for DataParallelSpec {
    fn default() -> DataParallelSpec {
        DataParallelSpec {
            ranks: 4,
            dim: 64,
            samples_per_rank: 32,
            iters: 400,
            lr: 0.2,
            lr_decay: 0.03,
            seed: 2026,
            format: WireFormat::Dense,
            sched: CommSched::Barriered,
        }
    }
}

/// The outcome of one [`train_data_parallel`] run.
#[derive(Clone, Debug)]
pub struct DataParallelRun {
    /// Global mean-squared error after each iteration.
    pub losses: Vec<f64>,
    /// Final (replicated) weights.
    pub weights: coconet_tensor::Tensor,
    /// Rank 0's gradient-exchange wire bytes over the whole run (the
    /// loss reduction is metered out), as the [`BytesLedger`] counted
    /// them — the compression subsystem's measured volume.
    ///
    /// [`BytesLedger`]: coconet_runtime::BytesLedger
    pub grad_bytes_per_rank: u64,
}

impl DataParallelRun {
    /// The last iteration's loss.
    pub fn final_loss(&self) -> f64 {
        *self.losses.last().expect("at least one iteration")
    }
}

/// Trains `y = X·w` by synchronous data-parallel gradient descent on
/// `spec.ranks` real rank threads. Each rank holds its own shard of a
/// common synthetic regression problem (`y = X·w* + noise`, all drawn
/// from the deterministic counter RNG), computes its local gradient,
/// and the gradient mean travels through the one
/// [`StreamExecutor`](coconet_runtime::StreamExecutor) loop under
/// `spec.sched` and `spec.format` — which keeps a *persistent per-rank
/// [`ErrorFeedback`](coconet_compress::ErrorFeedback) residual*, so
/// the top-k wire re-injects everything it ever dropped. Every rank
/// applies the identical replicated update, so the weights stay
/// replicated throughout.
pub fn train_data_parallel(spec: &DataParallelSpec) -> DataParallelRun {
    use coconet_runtime::{all_reduce_scalar, run_ranks, Group, StreamExecutor};
    use coconet_tensor::{CounterRng, Tensor};

    let s = *spec;
    let (p, d, m) = (s.ranks, s.dim, s.samples_per_rank);
    let total = (p * m) as f64;
    let mut results = run_ranks(p, move |comm| {
        let group = Group { start: 0, size: p };
        let rank = comm.rank();
        let rng = CounterRng::new(s.seed);
        // The common ground truth, plus this rank's shard: features,
        // labels with a small noise floor (so the converged loss is a
        // stable nonzero target to compare formats against).
        let w_star = Tensor::randn([d], DType::F32, rng, 0);
        let x = Tensor::randn([m, d], DType::F32, rng, (1 + rank as u64) * 1_000_000);
        let noise = Tensor::randn([m], DType::F32, rng, (1 + rank as u64) * 7_000_000);
        let y = Tensor::from_fn([m], DType::F32, |i| {
            (0..d)
                .map(|j| x.get(i * d + j) * w_star.get(j))
                .sum::<f32>()
                + 0.1 * noise.get(i)
        });

        let weights = vec![Tensor::zeros([d], DType::F32)];
        let mut exec = StreamExecutor::new(group, weights, s.sched, s.format);
        let mut losses = Vec::with_capacity(s.iters);
        let mut loss_bytes = 0u64;
        let mut apply_iter = 0u64;
        exec.run_iterations(
            &comm,
            s.iters as u64,
            |_, _, _| {},
            |_, _, w| {
                // Residuals and local gradient of the global MSE
                // (1/M)·Σ (x·w − y)²: grad = (2/M)·Xᵀr, summed exactly
                // by the AllReduce because each rank scales by 1/M.
                let residual = Tensor::from_fn([m], DType::F32, |i| {
                    (0..d).map(|j| x.get(i * d + j) * w.get(j)).sum::<f32>() - y.get(i)
                });
                let grad = Tensor::from_fn([d], DType::F32, |j| {
                    (2.0 / total as f32)
                        * (0..m)
                            .map(|i| x.get(i * d + j) * residual.get(i))
                            .sum::<f32>()
                });
                let sse: f64 = (0..m).map(|i| f64::from(residual.get(i)).powi(2)).sum();
                // The loss reduction is a blocking call on this rank's
                // thread: what it sends is metered out of the total.
                let before = comm.ledger().bytes_sent;
                losses.push(all_reduce_scalar(&comm, group, sse, ReduceOp::Sum) / total);
                loss_bytes += comm.ledger().bytes_sent - before;
                grad
            },
            |_, w, g| {
                let step = s.lr / (1.0 + s.lr_decay * apply_iter as f32);
                apply_iter += 1;
                for j in 0..d {
                    w.set(j, w.get(j) - step * g.get(j));
                }
            },
        );
        let weights = exec.params().swap_remove(0);
        (losses, weights, comm.ledger().bytes_sent - loss_bytes)
    });
    let (losses, weights, grad_bytes_per_rank) = results.swap_remove(0);
    DataParallelRun {
        losses,
        weights,
        grad_bytes_per_rank,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance criterion's convergence half: with persistent
    /// error feedback, the top-k compressed loop lands within 1 % of
    /// the dense loop's final loss, and FP16 lands essentially on it.
    #[test]
    fn compressed_training_matches_dense_loss_within_one_percent() {
        let dense = train_data_parallel(&DataParallelSpec::default());
        // The loop actually optimizes: two orders of magnitude down.
        assert!(
            dense.final_loss() < dense.losses[0] / 100.0,
            "dense did not converge: {} -> {}",
            dense.losses[0],
            dense.final_loss()
        );
        for format in [WireFormat::Fp16, WireFormat::TopK { k_permille: 90 }] {
            let run = train_data_parallel(&DataParallelSpec {
                format,
                ..DataParallelSpec::default()
            });
            let rel = (run.final_loss() - dense.final_loss()).abs() / dense.final_loss();
            assert!(
                rel <= 0.01,
                "{format}: final loss {} vs dense {} ({:.3} % off)",
                run.final_loss(),
                dense.final_loss(),
                rel * 100.0
            );
        }
    }

    /// The ledger-verified volume half: over the whole training run
    /// the FP16 gradient stream moves exactly half the dense bytes and
    /// the top-k stream moves the analytic sparse volume — a small
    /// fraction of dense.
    #[test]
    fn compressed_training_moves_the_analytic_bytes() {
        let spec = DataParallelSpec::default();
        let dense = train_data_parallel(&spec);
        let fp16 = train_data_parallel(&DataParallelSpec {
            format: WireFormat::Fp16,
            ..spec
        });
        let topk = train_data_parallel(&DataParallelSpec {
            format: WireFormat::TopK { k_permille: 90 },
            ..spec
        });
        // Per-iteration analytic volumes × iterations, exactly.
        let iters = spec.iters as u64;
        let ring = coconet_runtime::ring_all_reduce_wire_bytes(spec.dim, spec.ranks, DType::F32);
        assert_eq!(dense.grad_bytes_per_rank, iters * ring);
        assert_eq!(fp16.grad_bytes_per_rank * 2, dense.grad_bytes_per_rank);
        assert_eq!(
            topk.grad_bytes_per_rank,
            iters * coconet_runtime::top_k_all_reduce_wire_bytes(spec.dim, spec.ranks, 90)
        );
        assert!(topk.grad_bytes_per_rank < dense.grad_bytes_per_rank / 4);
    }

    /// The barrier-free schedule is a pure scheduling change on every
    /// wire format: losses and weights are bit-identical to the
    /// barriered schedule of the same loop, and the gradient stream
    /// still moves exactly its analytic volume — the ring's, half of it
    /// on FP16, the sparse exchange's under an active top-k.
    #[test]
    fn streamed_training_is_bit_identical_to_barriered() {
        use coconet_runtime::{ring_all_reduce_wire_bytes, top_k_all_reduce_wire_bytes};
        let (dim, ranks) = (
            DataParallelSpec::default().dim,
            DataParallelSpec::default().ranks,
        );
        let ring = ring_all_reduce_wire_bytes(dim, ranks, DType::F32);
        let formats = [
            (WireFormat::Dense, ring),
            (WireFormat::Fp16, ring / 2),
            (
                WireFormat::TopK { k_permille: 90 },
                top_k_all_reduce_wire_bytes(dim, ranks, 90),
            ),
        ];
        for (format, per_iter) in formats {
            let spec = DataParallelSpec {
                iters: 60,
                format,
                ..DataParallelSpec::default()
            };
            let barriered = train_data_parallel(&spec);
            let streamed = train_data_parallel(&DataParallelSpec {
                sched: CommSched::Priority,
                ..spec
            });
            assert_eq!(barriered.losses, streamed.losses, "{format}");
            assert_eq!(
                barriered.weights.to_f32_vec(),
                streamed.weights.to_f32_vec(),
                "{format}"
            );
            for run in [&barriered, &streamed] {
                assert_eq!(
                    run.grad_bytes_per_rank,
                    spec.iters as u64 * per_iter,
                    "{format}"
                );
            }
        }
    }
}
