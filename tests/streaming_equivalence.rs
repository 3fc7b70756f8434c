//! Property: the barrier-free steady-state executor is a pure
//! reordering of wire traffic. For random training-shaped programs
//! (elementwise chains feeding trailing gradient AllReduces, with an
//! optional *consumed* collective mixed in) and random per-step
//! delays, `run_program_iterations` under the priority schedule — at
//! any channel width, which the streamed sites must honour like the
//! blocking ones — produces bit-identical outputs to the same number
//! of sequential barriered single-channel runs: semantics preservation
//! under reordering and striping.

use coconet::core::{Binding, CommSched, DType, Layout, Program, ReduceOp, VarId};
use coconet::runtime::{run_program_iterations, Inputs, RunOptions};
use coconet::tensor::{CounterRng, Tensor};
use proptest::prelude::*;

/// One random pointwise op applied to a gradient before its sync.
#[derive(Clone, Debug)]
enum PreOp {
    Relu,
    Tanh,
    Scale(i8),
    Dropout(u8),
}

fn arb_chain() -> impl Strategy<Value = Vec<PreOp>> {
    prop::collection::vec(
        prop_oneof![
            Just(PreOp::Relu),
            Just(PreOp::Tanh),
            (-3i8..4).prop_map(PreOp::Scale),
            (1u8..9).prop_map(PreOp::Dropout),
        ],
        0..3,
    )
}

/// Builds a training-step-shaped program: `layers` local gradients,
/// each run through its pointwise chain and synchronized by an
/// AllReduce that feeds only an output — the trailing shape the
/// priority scheduler streams across iteration boundaries. When
/// `with_consumed` is set, one extra AllReduce is consumed by an add
/// before the output, so the streamed sites coexist with a site the
/// scheduler must leave on the blocking path.
fn build_program(chains: &[Vec<PreOp>], with_consumed: bool) -> Program {
    let mut p = Program::new("streamed_training_step");
    let mut ins: Vec<VarId> = Vec::new();
    let mut outs: Vec<VarId> = Vec::new();
    for (l, chain) in chains.iter().enumerate() {
        let g = p.input(format!("g{l}"), DType::F32, ["N"], Layout::Local);
        ins.push(g);
        let mut cur = g;
        for op in chain {
            cur = match op {
                PreOp::Relu => p.relu(cur).unwrap(),
                PreOp::Tanh => p.tanh(cur).unwrap(),
                PreOp::Scale(s) => {
                    let c = p.constant(f64::from(*s) / 2.0);
                    p.mul(cur, c).unwrap()
                }
                PreOp::Dropout(tenths) => p.dropout(cur, f64::from(*tenths) / 10.0).unwrap(),
            };
        }
        let synced = p.all_reduce(ReduceOp::Sum, cur).unwrap();
        p.set_name(synced, format!("sync{l}")).unwrap();
        outs.push(synced);
    }
    if with_consumed {
        let g = p.input("g_fused", DType::F32, ["N"], Layout::Local);
        let bias = p.input("bias", DType::F32, ["N"], Layout::Replicated);
        ins.push(g);
        ins.push(bias);
        let summed = p.all_reduce(ReduceOp::Sum, g).unwrap();
        let fused = p.add(summed, bias).unwrap();
        p.set_name(fused, "fused").unwrap();
        outs.push(fused);
    }
    p.set_io(&ins, &outs).unwrap();
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Barrier-free `run_iterations(n)` == n sequential barriered
    /// runs, bit for bit, for every generated program, geometry,
    /// channel width, and per-step delay bound.
    #[test]
    fn streamed_iterations_are_bit_identical_to_barriered(
        chains in prop::collection::vec(arb_chain(), 1..5),
        with_consumed in any::<bool>(),
        ranks in 2usize..5,
        elems in 3usize..24,
        iters in 1u64..5,
        channels in 1usize..6,
        jitter_ns in 0u64..80_000,
        seed in any::<u64>(),
    ) {
        let program = build_program(&chains, with_consumed);
        let binding = Binding::new(ranks).bind("N", elems as u64);
        let rng = CounterRng::new(seed);
        let mut inputs = Inputs::new();
        for l in 0..chains.len() {
            inputs = inputs.per_rank(
                format!("g{l}"),
                (0..ranks)
                    .map(|r| {
                        Tensor::randn([elems], DType::F32, rng, (l * ranks + r) as u64)
                    })
                    .collect(),
            );
        }
        if with_consumed {
            inputs = inputs
                .per_rank(
                    "g_fused",
                    (0..ranks)
                        .map(|r| {
                            Tensor::randn([elems], DType::F32, rng, 10_000 + r as u64)
                        })
                        .collect(),
                )
                .global("bias", Tensor::randn([elems], DType::F32, rng, 20_000));
        }
        let opts = RunOptions::default().with_seed(seed);

        let barriered =
            run_program_iterations(&program, &binding, &inputs, opts, iters).unwrap();
        let streamed = run_program_iterations(
            &program,
            &binding,
            &inputs,
            opts.with_sched(CommSched::Priority)
                .with_channels(channels)
                .with_jitter_ns(jitter_ns),
            iters,
        )
        .unwrap();

        let mut names: Vec<String> =
            (0..chains.len()).map(|l| format!("sync{l}")).collect();
        if with_consumed {
            names.push("fused".into());
        }
        for name in &names {
            let want = barriered.global(name).unwrap().to_f32_vec();
            let got = streamed.global(name).unwrap().to_f32_vec();
            prop_assert_eq!(
                got,
                want,
                "{} diverged under streaming (ranks {}, iters {}, channels {}, jitter {} ns)",
                name,
                ranks,
                iters,
                channels,
                jitter_ns
            );
        }
    }
}
