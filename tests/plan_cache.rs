//! Property: the plan cache is a pure memoization of the autotuner —
//! a warm hit returns the cold winner *bit-identically* (schedule,
//! configuration, and the exact cost bits) while costing zero
//! configurations, and any change to the program structure, the
//! cluster shape, or the tuner's config grid misses and re-runs the
//! search. Proven over randomly generated pointwise+collective
//! programs across group sizes and grid variations.

use coconet::core::{Autotuner, Binding, DType, Layout, PlanCache, Program, ReduceOp, VarId};
use coconet::sim::Simulator;
use coconet::topology::MachineSpec;
use proptest::prelude::*;

/// One random pointwise epilogue op applied after the collective.
#[derive(Clone, Debug)]
enum EpilogueOp {
    AddBias,
    AddResidual,
    Relu,
    Tanh,
    Scale(i8),
}

fn arb_epilogue() -> impl Strategy<Value = Vec<EpilogueOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(EpilogueOp::AddBias),
            Just(EpilogueOp::AddResidual),
            Just(EpilogueOp::Relu),
            Just(EpilogueOp::Tanh),
            (-3i8..4).prop_map(EpilogueOp::Scale),
        ],
        1..4,
    )
}

/// Builds `out = epilogue(AllReduce(g))`.
fn build_program(ops: &[EpilogueOp]) -> Program {
    let mut p = Program::new("generated");
    let g = p.input("g", DType::F16, ["R", "C"], Layout::Local);
    let reduced = p.all_reduce(ReduceOp::Sum, g).unwrap();
    let bias = p.input("bias", DType::F16, ["C"], Layout::Replicated);
    let res = p.input("res", DType::F16, ["R", "C"], Layout::Replicated);
    let mut cur = reduced;
    for op in ops {
        cur = match op {
            EpilogueOp::AddBias => p.add(cur, bias).unwrap(),
            EpilogueOp::AddResidual => p.add(cur, res).unwrap(),
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
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A warm hit is bit-identical to the cold search and costs
    /// nothing; changing the program, the cluster shape, or the config
    /// grid misses.
    #[test]
    fn warm_hits_are_bit_identical_and_any_change_misses(
        ops in arb_epilogue(),
        ranks_idx in 0usize..3,
        log_r in 6u32..11,
        log_c in 8u32..11,
        shrink_channels in any::<bool>(),
    ) {
        let ranks = [4usize, 8, 16][ranks_idx];
        let program = build_program(&ops);
        let binding = Binding::new(ranks)
            .bind("R", 1u64 << log_r)
            .bind("C", 1u64 << log_c);
        let sim = Simulator::new(MachineSpec::dgx2_cluster(1), ranks, 1);
        let tuner = Autotuner::default();
        let mut cache = PlanCache::new(16);

        // Cold: the full pruned sweep runs and installs the winner.
        let cold = tuner.tune_cached(&program, &binding, &sim, &mut cache)
            .expect("cold tunes");
        prop_assert!(cold.cache.hit_age.is_none(), "first request must miss");
        prop_assert!(cold.configs_evaluated > 0);
        let cold_best = cold.best().expect("cold winner").clone();

        // Warm: a hit, zero work, bit-identical winner.
        let warm = tuner.tune_cached(&program, &binding, &sim, &mut cache)
            .expect("warm tunes");
        prop_assert!(warm.cache.hit_age.is_some(), "repeat request must hit");
        prop_assert_eq!(warm.configs_evaluated, 0);
        prop_assert_eq!(warm.schedules_explored, 0);
        let warm_best = warm.best().expect("warm winner").clone();
        prop_assert_eq!(&warm_best.schedule, &cold_best.schedule);
        prop_assert_eq!(warm_best.config, cold_best.config);
        prop_assert_eq!(warm_best.time.to_bits(), cold_best.time.to_bits());

        // A structurally different program misses.
        let mut other_ops = ops.clone();
        other_ops.push(EpilogueOp::Relu);
        let other_program = build_program(&other_ops);
        let r3 = tuner.tune_cached(&other_program, &binding, &sim, &mut cache)
            .expect("tunes");
        prop_assert!(r3.cache.hit_age.is_none(), "changed program must miss");

        // A different cluster shape misses: double the symbol binding
        // (same program, same simulator, different key).
        let other_binding = Binding::new(ranks)
            .bind("R", 1u64 << (log_r + 1))
            .bind("C", 1u64 << log_c);
        let r4 = tuner.tune_cached(&program, &other_binding, &sim, &mut cache)
            .expect("tunes");
        prop_assert!(r4.cache.hit_age.is_none(), "changed shape must miss");

        // A different config grid misses: shrink one sweep dimension
        // (the grid fingerprint is part of the key, so a narrower
        // search can never be answered by a wider search's winner).
        let mut narrow = Autotuner::default();
        if shrink_channels {
            narrow.channels.truncate(narrow.channels.len() - 1);
        } else {
            narrow.protocols.truncate(narrow.protocols.len() - 1);
        }
        let r5 = narrow.tune_cached(&program, &binding, &sim, &mut cache)
            .expect("tunes");
        prop_assert!(r5.cache.hit_age.is_none(), "changed grid must miss");

        // And every variant, once cached, hits bit-identically too.
        let r5_best = r5.best().expect("narrow winner").clone();
        let r6 = narrow.tune_cached(&program, &binding, &sim, &mut cache)
            .expect("tunes");
        prop_assert!(r6.cache.hit_age.is_some());
        let r6_best = r6.best().expect("narrow warm winner");
        prop_assert_eq!(r6_best.time.to_bits(), r5_best.time.to_bits());
        prop_assert_eq!(&r6_best.schedule, &r5_best.schedule);
    }
}
