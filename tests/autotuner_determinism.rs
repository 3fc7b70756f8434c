//! Property: the pruned autotuner and the exhaustive reference pick
//! the *same* winning schedule and configuration for randomly
//! generated pointwise+collective programs — pruning is a pure
//! work-saver, never a quality trade — and a repeated tune does the
//! same work, count for count. The grid
//! includes the wire-format dimension (dense / FP16 / top-k), so the
//! per-format floor profiles behind the pruning bounds are re-proven
//! admissible on every generated program.

use coconet::core::{Autotuner, Binding, DType, Layout, Program, ReduceOp, VarId};
use coconet::sim::Simulator;
use coconet::topology::MachineSpec;
use proptest::prelude::*;

/// One random pointwise epilogue op applied after the collective.
#[derive(Clone, Debug)]
enum EpilogueOp {
    AddBias,
    AddResidual,
    MulResidual,
    Dropout(u8),
    Relu,
    Tanh,
    Scale(i8),
}

fn arb_epilogue() -> impl Strategy<Value = Vec<EpilogueOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(EpilogueOp::AddBias),
            Just(EpilogueOp::AddResidual),
            Just(EpilogueOp::MulResidual),
            (1u8..9).prop_map(EpilogueOp::Dropout),
            Just(EpilogueOp::Relu),
            Just(EpilogueOp::Tanh),
            (-3i8..4).prop_map(EpilogueOp::Scale),
        ],
        1..5,
    )
}

/// Builds `out = epilogue(AllReduce(...))`, optionally with a sliced
/// MatMul producing the reduction input (which opens the `overlap`
/// move space as well).
fn build_program(ops: &[EpilogueOp], with_matmul: bool) -> Program {
    let mut p = Program::new("generated");
    let reduced = if with_matmul {
        let input = p.input("in", DType::F16, ["R", "C"], Layout::sliced(1));
        let w = p.input("w", DType::F16, ["C", "C"], Layout::sliced(0));
        let mm = p.matmul(input, w).unwrap();
        p.all_reduce(ReduceOp::Sum, mm).unwrap()
    } else {
        let g = p.input("g", DType::F16, ["R", "C"], Layout::Local);
        p.all_reduce(ReduceOp::Sum, g).unwrap()
    };
    let bias = p.input("bias", DType::F16, ["C"], Layout::Replicated);
    let res = p.input("res", DType::F16, ["R", "C"], Layout::Replicated);
    let mut cur = reduced;
    for op in ops {
        cur = match op {
            EpilogueOp::AddBias => p.add(cur, bias).unwrap(),
            EpilogueOp::AddResidual => p.add(cur, res).unwrap(),
            EpilogueOp::MulResidual => p.mul(cur, res).unwrap(),
            EpilogueOp::Dropout(tenths) => p.dropout(cur, f64::from(*tenths) / 10.0).unwrap(),
            EpilogueOp::Relu => p.relu(cur).unwrap(),
            EpilogueOp::Tanh => p.tanh(cur).unwrap(),
            EpilogueOp::Scale(s) => {
                let c = p.constant(f64::from(*s) / 2.0);
                p.mul(cur, c).unwrap()
            }
        };
    }
    let inputs: Vec<VarId> = p.inputs().to_vec();
    p.set_io(&inputs, &[cur]).unwrap();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pruned search returns the exhaustive winner while provably
    /// doing no more work, and repeats its counts exactly.
    #[test]
    fn pruned_matches_exhaustive(
        ops in arb_epilogue(),
        with_matmul in any::<bool>(),
        log_r in 6u32..12,
        log_c in 8u32..12,
    ) {
        let program = build_program(&ops, with_matmul);
        let binding = Binding::new(16)
            .bind("R", 1u64 << log_r)
            .bind("C", 1u64 << log_c);
        let sim = Simulator::new(MachineSpec::dgx2_cluster(1), 16, 1);

        let exhaustive = Autotuner::default()
            .exhaustive()
            .tune(&program, &binding, &sim)
            .expect("exhaustive tunes");
        let pruned = Autotuner::default()
            .tune(&program, &binding, &sim)
            .expect("pruned tunes");

        // The search is serial, so a second cold tune repeats every
        // count, not only the winner.
        let again = Autotuner::default()
            .tune(&program, &binding, &sim)
            .expect("pruned tunes again");
        prop_assert_eq!(again.configs_evaluated, pruned.configs_evaluated);
        prop_assert_eq!(again.configs_pruned, pruned.configs_pruned);
        prop_assert_eq!(again.branches_pruned, pruned.branches_pruned);
        prop_assert_eq!(again.memo_hits, pruned.memo_hits);

        let e = exhaustive.best().expect("exhaustive winner");
        let p = pruned.best().expect("pruned winner");
        prop_assert_eq!(
            &e.schedule, &p.schedule,
            "winning schedule diverged for ops {:?} (matmul: {})", ops, with_matmul
        );
        prop_assert_eq!(e.config, p.config);
        prop_assert!(
            (e.time - p.time).abs() <= 1e-15 * e.time.max(1.0),
            "winning times diverged: {} vs {}", e.time, p.time
        );
        // The sweep covers the whole grid: every lowerable schedule is
        // costed under algo × protocol × channels × format × sched =
        // 4 × 3 × 6 × 3 × 2 = 432 configurations in the exhaustive
        // reference (the algorithms include the in-network switch; the
        // wire formats are dense, FP16, and 10 ‰ top-k; the schedules
        // are barriered and priority-streamed).
        let grid = Autotuner::default();
        let grid_size = grid.configs().len();
        prop_assert_eq!(grid_size, 432);
        prop_assert_eq!(grid.algos, coconet::core::CollAlgo::ALL.to_vec());
        prop_assert_eq!(grid.formats, coconet::compress::WireFormat::SWEEP.to_vec());
        prop_assert_eq!(grid.scheds, coconet::core::CommSched::ALL.to_vec());
        prop_assert!(exhaustive.configs_evaluated >= grid_size);
        prop_assert_eq!(exhaustive.configs_evaluated % grid_size, 0);

        // Pruning never does more work, and the exhaustive reference
        // never skips any.
        prop_assert!(pruned.configs_evaluated <= exhaustive.configs_evaluated);
        prop_assert_eq!(exhaustive.configs_pruned, 0);
        prop_assert_eq!(exhaustive.branches_pruned, 0);
        // The pruned search enumerates a subset of the exhaustive
        // schedule space (a proper subset only when a branch was
        // provably hopeless).
        prop_assert!(pruned.schedules_explored <= exhaustive.schedules_explored);
    }
}
