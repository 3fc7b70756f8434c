//! Property-based integration tests: randomly generated pointwise
//! epilogues stay semantics preserving under the full transformation
//! pipeline, for arbitrary shapes, seeds, and group sizes.

use coconet::core::xform::{fuse_all_reduce, reorder_all_gather, split_all_reduce};
use coconet::core::{Binding, DType, Layout, Program, ReduceOp, VarId};
use coconet::runtime::{run_program, Inputs, RunOptions};
use coconet::tensor::{CounterRng, Tensor};
use proptest::prelude::*;

mod common;
use common::assert_matches_oracle;

/// A recipe for one pointwise epilogue op applied after the AllReduce.
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
        1..6,
    )
}

/// Builds `out = epilogue(AllReduce(g))` with `g` local `[R, C]`,
/// a bias `[C]`, and a residual `[R, C]`.
fn build_program(ops: &[EpilogueOp]) -> (Program, VarId, Vec<VarId>) {
    let mut p = Program::new("generated");
    let g = p.input("g", DType::F32, ["R", "C"], Layout::Local);
    let bias = p.input("bias", DType::F32, ["C"], Layout::Replicated);
    let res = p.input("res", DType::F32, ["R", "C"], Layout::Replicated);
    let sum = p.all_reduce(ReduceOp::Sum, g).unwrap();
    let mut cur = sum;
    let mut comps = Vec::new();
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
        comps.push(cur);
    }
    p.set_name(cur, "out").unwrap();
    p.set_io(&[g, bias, res], &[cur]).unwrap();
    (p, cur, comps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// split + reorder + fuse on a random epilogue == the baseline.
    #[test]
    fn random_epilogues_are_schedule_invariant(
        ops in arb_epilogue(),
        k in prop_oneof![Just(2usize), Just(4usize)],
        rows in 1usize..4,
        cols_per_rank in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Keep R*C divisible by k: C = k * cols_per_rank.
        let cols = k * cols_per_rank;
        let binding = Binding::new(k)
            .bind("R", rows as u64)
            .bind("C", cols as u64);
        let rng = CounterRng::new(seed);
        let inputs = Inputs::new()
            .per_rank(
                "g",
                (0..k)
                    .map(|r| Tensor::randn([rows, cols], DType::F32, rng, (r * 10_000) as u64))
                    .collect(),
            )
            .global("bias", Tensor::randn([cols], DType::F32, rng, 777_000))
            .global("res", Tensor::randn([rows, cols], DType::F32, rng, 888_000));
        let opts = RunOptions::default().with_seed(seed ^ 0xabcd);

        let (base, _, _) = build_program(&ops);
        let reference = run_program(&base, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();
        // One-op kernels against the per-element oracle: every bit.
        assert_matches_oracle(&format!("{ops:?} unscheduled"), &base, &binding, &inputs, opts);

        // split + reorder (+ fuse when there is anything to fuse).
        let (mut p, _, comps) = build_program(&ops);
        let sum = p
            .live_vars()
            .into_iter()
            .find(|&v| matches!(p.op(v).unwrap(), coconet::core::OpKind::AllReduce(..)))
            .unwrap();
        let (rs, ag) = split_all_reduce(&mut p, sum).unwrap();
        let result = reorder_all_gather(&mut p, ag, &comps).unwrap();
        let gathered = result.gathers[0].1;
        p.set_name(gathered, "final").unwrap();
        fuse_all_reduce(&mut p, rs, &result.sliced, &[gathered]).unwrap();
        p.validate().unwrap();
        // The fused collective's one kernel against the oracle.
        assert_matches_oracle(&format!("{ops:?} fused"), &p, &binding, &inputs, opts);

        let got = run_program(&p, &binding, &inputs, opts)
            .unwrap()
            .global("final")
            .unwrap();
        let diff = got.max_abs_diff(&reference);
        prop_assert!(diff < 1e-4, "ops {ops:?}: diff {diff}");
    }

    /// Split alone is always valid and exact (f32 end to end).
    #[test]
    fn split_alone_is_exact(
        ops in arb_epilogue(),
        seed in any::<u64>(),
    ) {
        let k = 4usize;
        let binding = Binding::new(k).bind("R", 2).bind("C", 8);
        let rng = CounterRng::new(seed);
        let inputs = Inputs::new()
            .per_rank(
                "g",
                (0..k)
                    .map(|r| Tensor::randn([2, 8], DType::F32, rng, (r * 64) as u64))
                    .collect(),
            )
            .global("bias", Tensor::randn([8], DType::F32, rng, 1_000))
            .global("res", Tensor::randn([2, 8], DType::F32, rng, 2_000));
        let opts = RunOptions::default().with_seed(seed);

        let (base, _, _) = build_program(&ops);
        let reference = run_program(&base, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();

        let (mut p, _, _) = build_program(&ops);
        let sum = p
            .live_vars()
            .into_iter()
            .find(|&v| matches!(p.op(v).unwrap(), coconet::core::OpKind::AllReduce(..)))
            .unwrap();
        split_all_reduce(&mut p, sum).unwrap();
        let got = run_program(&p, &binding, &inputs, opts)
            .unwrap()
            .global("out")
            .unwrap();
        // Identical ring schedule => bitwise identical f32 results.
        prop_assert_eq!(got.to_f32_vec(), reference.to_f32_vec());
    }
}
