//! Smoke test for the `coconet` facade: the re-exported layers
//! (`coconet::core`, `coconet::runtime`, `coconet::models`, …) must
//! compose through the public paths alone, so a re-export regression
//! fails here before anything subtler does.

use coconet::core::{Binding, DType, Layout, Program, ReduceOp};
use coconet::runtime::{run_program, Inputs, RunOptions};
use coconet::tensor::Tensor;

/// Build a tiny AllReduce program through the facade paths, run it on
/// 2 ranks, and check the outputs — propagating every layer's error
/// through `coconet::Error` with `?`.
#[test]
fn allreduce_on_two_ranks_through_facade() -> coconet::Result<()> {
    let mut p = Program::new("smoke");
    let g = p.input("g", DType::F32, ["N"], Layout::Local);
    let s = p.all_reduce(ReduceOp::Sum, g)?;
    p.set_name(s, "sum")?;
    p.set_io(&[g], &[s])?;
    p.validate()?;

    let binding = Binding::new(2).bind("N", 4);
    let inputs = Inputs::new().per_rank(
        "g",
        vec![
            Tensor::full([4], DType::F32, 1.5),
            Tensor::full([4], DType::F32, 2.5),
        ],
    );
    let result = run_program(&p, &binding, &inputs, RunOptions::default())?;
    let sum = result.global("sum")?;
    assert_eq!(sum.shape().dims(), &[4]);
    for i in 0..4 {
        assert_eq!(sum.get(i), 4.0);
    }
    Ok(())
}

/// The remaining re-exported layers are reachable and consistent with
/// each other through the facade.
#[test]
fn facade_layers_compose() {
    // topology -> sim: cost a collective on the paper's testbed.
    let spec = coconet::topology::MachineSpec::paper_testbed();
    let cluster = coconet::topology::Cluster::new(spec.clone());
    let sim = coconet::sim::Simulator::new(spec, 256, 1);
    let step = coconet::core::Step::Collective(coconet::core::CollectiveStep {
        label: "ar".into(),
        kind: coconet::core::CollKind::AllReduce,
        op: coconet::core::ReduceOp::Sum,
        algo: coconet::core::CollAlgo::Ring,
        elems: 1 << 20,
        dtype: DType::F16,
    });
    let t = sim.time_step(&step, coconet::core::CommConfig::default());
    assert!(t.seconds > 0.0);
    assert!(cluster.world_size() > 0);

    // models: a paper workload builds a valid program.
    let (program, _) = coconet::models::optimizers::optimizer_program(
        coconet::models::Optimizer::Adam,
        coconet::models::Hyper::default(),
    )
    .expect("adam program builds");
    program.validate().expect("program validates");
}
