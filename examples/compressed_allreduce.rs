//! Tune a Megatron-LM self-attention epilogue over the *full*
//! communication grid — `algorithm × protocol × channels × wire
//! format` — then run the winning format's AllReduce for real on rank
//! threads and print the ledger-measured bytes next to the analytic
//! volumes.
//!
//! This is the wire-compression subsystem end to end: the autotuner
//! discovers that the sparse top-k wire beats every dense schedule at
//! Megatron sizes, and the bytes ledger proves the compressed
//! collective moves exactly its analytic volume.
//!
//! Run with: `cargo run --release --example compressed_allreduce`

use coconet::compress::WireFormat;
use coconet::core::{Autotuner, Binding, DType, ExecPlan, Layout, Program, ReduceOp};
use coconet::runtime::{
    all_reduce_wire_striped, ring_all_reduce_wire_bytes, run_ranks, top_k_all_reduce_wire_bytes,
    Group,
};
use coconet::sim::Simulator;
use coconet::tensor::Tensor;
use coconet::topology::MachineSpec;

/// The Figure 3 self-attention epilogue: MatMul + AllReduce +
/// bias/dropout/residual.
fn epilogue() -> Result<Program, coconet::core::CoreError> {
    let mut p = Program::new("attention_epilogue");
    let w = p.input("w", DType::F16, ["H", "H"], Layout::sliced(0));
    let b = p.input("b", DType::F16, ["H"], Layout::Replicated);
    let x = p.input("in", DType::F16, ["B", "S", "H"], Layout::sliced(2));
    let r = p.input("r", DType::F16, ["B", "S", "H"], Layout::Replicated);
    let mm = p.matmul(x, w)?;
    p.set_name(mm, "layer")?;
    let sum = p.all_reduce(ReduceOp::Sum, mm)?;
    p.set_name(sum, "sum")?;
    let biased = p.add(sum, b)?;
    let d = p.dropout(biased, 0.1)?;
    let out = p.add(d, r)?;
    p.set_io(&[w, x, b, r], &[out])?;
    Ok(p)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. Tune over the full grid, wire format included -----------
    let program = epilogue()?;
    let sim = Simulator::new(MachineSpec::dgx2_cluster(1), 16, 1);
    let binding = Binding::new(16)
        .bind("B", 8)
        .bind("S", 1024)
        .bind("H", 3072);
    let evaluator = |plan: &ExecPlan| sim.time_plan(plan).total;
    let tuner = Autotuner::default();
    let grid =
        tuner.algos.len() * tuner.protocols.len() * tuner.channels.len() * tuner.formats.len();
    println!("sweeping {grid} configurations per schedule (formats: Dense, FP16, TopK10)");
    let report = tuner.tune(&program, &binding, &evaluator)?;
    let best = report.best()?;
    let baseline = report
        .candidates
        .iter()
        .find(|c| c.schedule.is_empty())
        .expect("baseline explored");
    println!(
        "explored {} schedules / {} configs in {:.2?}",
        report.schedules_explored, report.configs_evaluated, report.elapsed
    );
    println!(
        "baseline {:.3} ms -> best {:.3} ms ({:.2}x) at [{}] via {}",
        baseline.time * 1e3,
        best.time * 1e3,
        baseline.time / best.time,
        best.config,
        best.label(),
    );

    // ---- 2. Run the formats for real; the ledger proves the bytes ---
    let (n, p) = (1usize << 16, 8usize);
    println!("\nmeasured ring AllReduce of {n} F32 elements over {p} ranks:");
    for format in WireFormat::SWEEP {
        let results = run_ranks(p, move |comm| {
            let group = Group { start: 0, size: p };
            let rank = comm.rank() as f32;
            let input = Tensor::from_fn([n], DType::F32, move |i| rank + (i % 31) as f32);
            comm.reset_ledger();
            let out = all_reduce_wire_striped(
                &comm,
                group,
                &input,
                ReduceOp::Sum,
                coconet::core::CollAlgo::Ring,
                0,
                format,
                None,
                1,
            );
            assert_eq!(out.numel(), n);
            comm.ledger()
        });
        let measured = results[0].bytes_sent;
        let analytic = match format {
            WireFormat::Dense => ring_all_reduce_wire_bytes(n, p, DType::F32),
            WireFormat::Fp16 => ring_all_reduce_wire_bytes(n, p, DType::F16),
            WireFormat::TopK { k_permille } => top_k_all_reduce_wire_bytes(n, p, k_permille),
        };
        assert_eq!(measured, analytic, "{format}: ledger must match analytic");
        let dense = ring_all_reduce_wire_bytes(n, p, DType::F32);
        println!(
            "  {format:>7}: {measured:>10} bytes/rank (analytic {analytic}, {:.1} % of dense)",
            100.0 * measured as f64 / dense as f64
        );
    }
    Ok(())
}
