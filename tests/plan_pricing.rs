//! Integration: the simulator's two ways of pricing a plan agree. The
//! autotuner ranks schedules by `PlanEvaluator::evaluate`, while reports
//! and breakdowns read `Simulator::time_plan`; the two no longer share a
//! body, so this pins them together bit for bit over every candidate
//! the tuner explores and every configuration of its grid.

use coconet::core::{lower, Autotuner, Binding, PlanEvaluator, Program};
use coconet::models::model_parallel::{block_program, Block};
use coconet::models::optimizers::optimizer_program;
use coconet::models::pipeline::pipeline_program;
use coconet::models::{Hyper, Optimizer};
use coconet::sim::Simulator;
use coconet::topology::MachineSpec;

#[test]
fn evaluate_is_time_plan_total_for_every_tuned_candidate() {
    let optimizer = |opt| {
        (
            optimizer_program(opt, Hyper::default()).unwrap().0,
            Binding::new(256).bind("N", 1 << 26),
            Simulator::new(MachineSpec::paper_testbed(), 256, 1),
        )
    };
    let block = |b| {
        (
            block_program(b).unwrap().0,
            Binding::new(16)
                .bind("B", 8)
                .bind("S", 1024)
                .bind("H", 3072),
            Simulator::new(MachineSpec::dgx2_cluster(1), 16, 1),
        )
    };
    let cases: Vec<(Program, Binding, Simulator)> = vec![
        optimizer(Optimizer::Adam),
        optimizer(Optimizer::Lamb),
        block(Block::SelfAttention),
        block(Block::Mlp),
        (
            pipeline_program().unwrap().0,
            Binding::new(16)
                .with_groups(16)
                .bind("B", 2)
                .bind("S", 2048)
                .bind("H", 12288),
            Simulator::new(MachineSpec::dgx2_cluster(16), 16, 16),
        ),
    ];
    let tuner = Autotuner::default();
    let configs = tuner.configs();
    let mut priced = 0usize;
    for (program, binding, sim) in &cases {
        let report = tuner.tune(program, binding, sim).unwrap();
        for candidate in &report.candidates {
            let mut plan = lower(&candidate.program, binding, configs[0]).unwrap();
            for &config in &configs {
                plan.set_config(config);
                let (evaluated, timed) = (sim.evaluate(&plan), sim.time_plan(&plan).total);
                assert_eq!(
                    evaluated.to_bits(),
                    timed.to_bits(),
                    "{} under {config}: evaluate {evaluated} != time_plan {timed}",
                    candidate.label()
                );
                priced += 1;
            }
        }
    }
    assert!(priced > 10 * configs.len(), "only {priced} plans priced");
}
