//! End-to-end BERT training iteration model (Table 4's speedups).
//!
//! One data-parallel iteration processes `global_batch` samples:
//! `global_batch / (ranks * micro_batch)` gradient-accumulation steps
//! of forward+backward, then one optimizer step. The strategies differ
//! in (i) the micro batch memory admits — larger micro batches run
//! GEMMs at higher efficiency and amortize per-step overheads — and
//! (ii) the optimizer step itself: copies + AllReduce + replicated
//! compute for the baselines versus CoCoNet's fused scattered
//! `fuse(RS-Opt-AG)` kernel.

use coconet_core::{
    CollAlgo, CollKind, CommConfig, CommSched, DType, FusedCollectiveStep, KernelStep, Protocol,
    ReduceOp, ScatterInfo, WireFormat,
};
use coconet_sim::{GroupGeom, Simulator};

use crate::{MemoryModel, ModelConfig, Optimizer, Strategy};

/// Per-GPU fixed overhead per accumulation step (data loader, Python
/// dispatch, launch queues).
const STEP_OVERHEAD: f64 = 1.2e-3;

/// Baseline FusedAdam/FusedLAMB preprocessing (§6.1.1 observes it).
const APEX_PREPROCESS: f64 = 25e-6;

/// An estimated training iteration.
#[derive(Clone, Debug)]
pub struct TrainingEstimate {
    /// Micro batch used (memory-limited).
    pub micro_batch: usize,
    /// Gradient accumulation steps per iteration.
    pub accum_steps: usize,
    /// Forward+backward time per iteration (all steps), seconds.
    pub fwd_bwd: f64,
    /// Optimizer + communication time per iteration, seconds.
    pub optimizer: f64,
}

impl TrainingEstimate {
    /// Total iteration time.
    pub fn total(&self) -> f64 {
        self.fwd_bwd + self.optimizer
    }
}

/// GEMM efficiency as a function of the activation row count
/// (`batch * seq`): small batches underutilize tensor cores (the reason
/// larger micro batches train faster at equal total work, §6.1.2).
pub(crate) fn gemm_efficiency(rows: usize) -> f64 {
    let r = rows as f64;
    0.55 * r / (r + 2000.0)
}

/// Estimates one training iteration for a strategy, or `None` on OOM.
pub fn estimate_iteration(
    sim: &Simulator,
    memory: &MemoryModel,
    cfg: &ModelConfig,
    opt: Optimizer,
    strategy: Strategy,
    ranks: usize,
    global_batch: usize,
) -> Option<TrainingEstimate> {
    let micro = memory.max_micro_batch(cfg, opt, strategy, ranks, global_batch)?;
    let accum_steps = (global_batch / (ranks * micro)).max(1);

    // Forward + backward: 6N FLOPs per token at batch-dependent GEMM
    // efficiency, plus activation traffic at memory bandwidth.
    let machine = sim.cost_model().machine();
    let tokens_per_step = (micro * cfg.seq) as f64;
    let flops_per_step = cfg.train_flops_per_token() * tokens_per_step;
    let eff = gemm_efficiency(micro * cfg.seq);
    let act_bytes = memory.activation_bytes_per_sample(cfg, cfg.seq) * micro as f64;
    let step_time = (flops_per_step / (machine.gpu.fp16_flops * eff))
        .max(3.0 * act_bytes / machine.gpu.mem_bw)
        + STEP_OVERHEAD;
    let fwd_bwd = step_time * accum_steps as f64;

    Some(TrainingEstimate {
        micro_batch: micro,
        accum_steps,
        fwd_bwd,
        optimizer: optimizer_step_time(sim, cfg, opt, strategy, ranks),
    })
}

/// Time of the per-iteration optimizer step (gradient exchange + state
/// update) for each implementation.
pub fn optimizer_step_time(
    sim: &Simulator,
    cfg: &ModelConfig,
    opt: Optimizer,
    strategy: Strategy,
    ranks: usize,
) -> f64 {
    let n = cfg.params();
    let geom = GroupGeom {
        size: ranks,
        nodes_spanned: ranks.div_ceil(16),
        ranks_per_node: ranks.min(16),
    };
    let cost = sim.cost_model();
    let config = CommConfig {
        algo: CollAlgo::Ring,
        protocol: Protocol::Simple,
        channels: 16,
        format: WireFormat::Dense,
        ..CommConfig::default()
    };
    let norms = match opt {
        Optimizer::Adam => 0,
        Optimizer::Lamb => 2,
    };
    // State traffic per element: read m,v,master (12B) + g (2B); write
    // m,v,master (12B) + p16 (2B).
    let full_kernel = KernelStep {
        label: "fused optimizer".into(),
        bytes_read: 14 * n,
        bytes_written: 14 * n,
        flops: 12 * n,
        n_ops: 12,
    };
    let sliced_kernel = KernelStep {
        label: "sliced optimizer".into(),
        bytes_read: 14 * n / ranks as u64,
        bytes_written: 14 * n / ranks as u64,
        flops: 12 * n / ranks as u64,
        n_ops: 12,
    };
    let copy = KernelStep {
        label: "grad copy".into(),
        bytes_read: 2 * n,
        bytes_written: 2 * n,
        flops: 0,
        n_ops: 1,
    };
    let norm_time = norms as f64 * (ranks as f64).log2() * 2.0e-6;

    match strategy {
        Strategy::NvBert => {
            // copy-in + AllReduce + copy-out + Apex fused optimizer;
            // the copies launch one kernel per layer tensor.
            let n_tensors = (16 * cfg.layers + 2) as f64;
            2.0 * (cost.kernel_time(&copy) + n_tensors * 5e-6)
                + cost.collective_time(CollKind::AllReduce, n, DType::F16, geom, config)
                + cost.kernel_time(&full_kernel)
                + APEX_PREPROCESS
                + norm_time
        }
        Strategy::PyTorchDdp => {
            // Bucketed AllReduce partially overlapped with backward:
            // the exposed fraction plus per-bucket launch/sync costs
            // and the full replicated optimizer.
            let ar_time = cost.collective_time(CollKind::AllReduce, n, DType::F16, geom, config);
            let n_buckets = (2 * n).div_ceil(25_000_000) as f64;
            0.6 * ar_time
                + n_buckets * 20e-6
                + cost.kernel_time(&full_kernel)
                + APEX_PREPROCESS
                + norm_time
        }
        Strategy::Zero => {
            // copy-in + RS + sliced optimizer + AG (separate kernels).
            cost.kernel_time(&copy)
                + cost.collective_time(CollKind::ReduceScatter, n, DType::F16, geom, config)
                + cost.kernel_time(&sliced_kernel)
                + cost.collective_time(CollKind::AllGather, n, DType::F16, geom, config)
                + norm_time
        }
        Strategy::CoCoNet => {
            // One fused scattered-tensor kernel (§5.4 + §5.2).
            let fused = FusedCollectiveStep {
                label: "fuse(RS-Opt-AG)".into(),
                algo: CollAlgo::Ring,
                elems: n,
                dtype: DType::F16,
                extra_bytes_read: 14 * n / ranks as u64,
                extra_bytes_written: 14 * n / ranks as u64,
                flops: 12 * n / ranks as u64,
                embedded_scalar_allreduces: norms,
                n_fused_ops: 12,
                scattered: Some(ScatterInfo {
                    n_tensors: 2 * cfg.layers as u64 * 16, // ~weights+biases per layer
                    n_buckets: n / 1024,
                }),
            };
            cost.fused_collective_time(&fused, geom, config)
        }
    }
}

// ---------------------------------------------------------------------
// Executable data-parallel training (the wire-compression proof).
// ---------------------------------------------------------------------

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
    /// proceeds. Results are bit-identical for every format (an active
    /// top-k wire is not `streamable` —
    /// [`CommConfig::executed_as`] — and runs its sparse exchange,
    /// error-feedback residual included, at the enqueue point under
    /// either schedule).
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
    use coconet_topology::MachineSpec;

    fn sim() -> Simulator {
        Simulator::new(MachineSpec::paper_testbed(), 256, 1)
    }

    #[test]
    fn coconet_optimizer_step_is_fastest() {
        let sim = sim();
        let cfg = ModelConfig::bert_336m();
        let coconet = optimizer_step_time(&sim, &cfg, Optimizer::Adam, Strategy::CoCoNet, 256);
        for s in [Strategy::NvBert, Strategy::PyTorchDdp, Strategy::Zero] {
            let t = optimizer_step_time(&sim, &cfg, Optimizer::Adam, s, 256);
            assert!(coconet < t, "CoCoNet {coconet} vs {} {t}", s.name());
        }
    }

    #[test]
    fn table4_adam_speedups_have_paper_shape() {
        let sim = sim();
        let memory = MemoryModel::default();
        // 336M: modest speedup from the optimizer step alone.
        let cfg = ModelConfig::bert_336m();
        let nv = estimate_iteration(
            &sim,
            &memory,
            &cfg,
            Optimizer::Adam,
            Strategy::NvBert,
            256,
            8192,
        )
        .unwrap();
        let coco = estimate_iteration(
            &sim,
            &memory,
            &cfg,
            Optimizer::Adam,
            Strategy::CoCoNet,
            256,
            8192,
        )
        .unwrap();
        let speedup = nv.total() / coco.total();
        assert!((1.005..1.6).contains(&speedup), "336M speedup {speedup}");

        // 1.2B: bigger speedup because CoCoNet also trains at micro
        // batch 32 vs 8 (paper: 1.53x over NV BERT).
        let cfg = ModelConfig::bert_1_2b();
        let nv = estimate_iteration(
            &sim,
            &memory,
            &cfg,
            Optimizer::Adam,
            Strategy::NvBert,
            256,
            8192,
        )
        .unwrap();
        let coco = estimate_iteration(
            &sim,
            &memory,
            &cfg,
            Optimizer::Adam,
            Strategy::CoCoNet,
            256,
            8192,
        )
        .unwrap();
        assert_eq!(nv.micro_batch, 8);
        assert_eq!(coco.micro_batch, 32);
        let speedup = nv.total() / coco.total();
        assert!((1.2..2.0).contains(&speedup), "1.2B speedup {speedup}");

        // 3.9B: baselines OOM, CoCoNet trains, and still beats ZeRO
        // (paper: 1.22x).
        let cfg = ModelConfig::bert_3_9b();
        assert!(estimate_iteration(
            &sim,
            &memory,
            &cfg,
            Optimizer::Adam,
            Strategy::NvBert,
            256,
            8192
        )
        .is_none());
        let zero = estimate_iteration(
            &sim,
            &memory,
            &cfg,
            Optimizer::Adam,
            Strategy::Zero,
            256,
            8192,
        )
        .unwrap();
        let coco = estimate_iteration(
            &sim,
            &memory,
            &cfg,
            Optimizer::Adam,
            Strategy::CoCoNet,
            256,
            8192,
        )
        .unwrap();
        let speedup = zero.total() / coco.total();
        assert!(speedup > 1.0, "3.9B vs ZeRO {speedup}");
    }

    #[test]
    fn lamb_zero_gap_is_larger_than_adam_gap() {
        // Paper: "For LAMB, the speedup over ZeRO is higher than Adam
        // because ZeRO does not support distributing LAMB optimizer
        // state" (so it trains at a smaller micro batch).
        let sim = sim();
        let memory = MemoryModel::default();
        let cfg = ModelConfig::bert_1_2b();
        let adam_gap = {
            let z = estimate_iteration(
                &sim,
                &memory,
                &cfg,
                Optimizer::Adam,
                Strategy::Zero,
                256,
                8192,
            )
            .unwrap();
            let c = estimate_iteration(
                &sim,
                &memory,
                &cfg,
                Optimizer::Adam,
                Strategy::CoCoNet,
                256,
                8192,
            )
            .unwrap();
            z.total() / c.total()
        };
        let lamb_gap = {
            let z = estimate_iteration(
                &sim,
                &memory,
                &cfg,
                Optimizer::Lamb,
                Strategy::Zero,
                256,
                65536,
            )
            .unwrap();
            let c = estimate_iteration(
                &sim,
                &memory,
                &cfg,
                Optimizer::Lamb,
                Strategy::CoCoNet,
                256,
                65536,
            )
            .unwrap();
            z.total() / c.total()
        };
        assert!(lamb_gap > adam_gap, "lamb {lamb_gap} vs adam {adam_gap}");
    }

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

    /// The barrier-free schedule is a pure scheduling change: losses
    /// and weights are bit-identical to the barriered schedule of the
    /// same loop, and the gradient stream still moves exactly the
    /// analytic ring volume.
    #[test]
    fn streamed_training_is_bit_identical_to_barriered() {
        let spec = DataParallelSpec {
            iters: 60,
            ..DataParallelSpec::default()
        };
        let barriered = train_data_parallel(&spec);
        let streamed = train_data_parallel(&DataParallelSpec {
            sched: CommSched::Priority,
            ..spec
        });
        assert_eq!(barriered.losses, streamed.losses);
        assert_eq!(
            barriered.weights.to_f32_vec(),
            streamed.weights.to_f32_vec()
        );
        let ring = coconet_runtime::ring_all_reduce_wire_bytes(spec.dim, spec.ranks, DType::F32);
        assert_eq!(streamed.grad_bytes_per_rank, spec.iters as u64 * ring);
    }

    #[test]
    fn gemm_efficiency_grows_with_rows() {
        assert!(gemm_efficiency(32 * 512) > gemm_efficiency(8 * 512));
        assert!(gemm_efficiency(8 * 512) > gemm_efficiency(512));
        assert!(gemm_efficiency(1 << 20) < 0.56);
    }
}
