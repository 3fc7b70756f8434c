//! Tier-1 smoke for trace neutrality: one priority-scheduled
//! `StreamExecutor` run with span recording off and one with it on
//! produce bit-identical parameters and identical ledgers, and the
//! recorded trace is well formed with no dropped event. The
//! property-based sweep over algorithms, wire formats, schedules and
//! lane widths lives in `crates/runtime/tests/trace_neutrality.rs`,
//! which tier-1 does not run.

use coconet::compress::WireFormat;
use coconet::core::CommSched;
use coconet::runtime::{run_ranks, BytesLedger, Group, StreamExecutor};
use coconet::tensor::{DType, Tensor};
use coconet_trace as trace;

const RANKS: usize = 4;
const LAYERS: usize = 3;
const ELEMS: usize = 19;

/// Every rank's final parameters (as bits), ledger, and trace thread.
fn run_loop() -> Vec<(Vec<Vec<u32>>, BytesLedger, u32)> {
    run_ranks(RANKS, |comm| {
        let rank = comm.rank();
        let params: Vec<Tensor> = (0..LAYERS)
            .map(|l| Tensor::from_fn([ELEMS], DType::F32, move |i| (l * 31 + i) as f32 * 0.01))
            .collect();
        let group = Group {
            start: 0,
            size: RANKS,
        };
        let mut exec = StreamExecutor::new(group, params, CommSched::Priority, WireFormat::Dense)
            .with_channels(2);
        exec.run_iterations(
            &comm,
            3,
            |_, _, _| {},
            move |l, iter, p| {
                Tensor::from_fn([ELEMS], DType::F32, |i| {
                    p.get(i) * 0.05 + l as f32 + iter as f32 * 0.1 + rank as f32 * 0.01
                })
            },
            |_, p, g| {
                *p = Tensor::from_fn([ELEMS], DType::F32, |i| p.get(i) - 0.1 * g.get(i));
            },
        );
        let bits = exec
            .params()
            .iter()
            .map(|p| p.to_f32_vec().iter().map(|v| v.to_bits()).collect())
            .collect();
        (bits, comm.ledger(), trace::thread_id())
    })
}

// One test, so nothing else in this process toggles the global flag.
#[test]
fn tracing_observes_without_perturbing() {
    trace::set_enabled(false);
    let untraced = run_loop();

    trace::clear();
    trace::set_enabled(true);
    let traced = run_loop();
    trace::set_enabled(false);
    let dropped = trace::dropped_events();
    let threads: Vec<u32> = traced.iter().map(|r| r.2).collect();
    let events: Vec<trace::Event> = trace::take_snapshot()
        .into_iter()
        .filter(|e| threads.contains(&e.thread))
        .collect();
    trace::clear();

    for (rank, (u, t)) in untraced.iter().zip(&traced).enumerate() {
        assert_eq!(u.0, t.0, "rank {rank}: parameters perturbed");
        assert_eq!(u.1, t.1, "rank {rank}: ledger perturbed");
    }
    assert_eq!(dropped, 0, "the recorder dropped events");
    for kind in [trace::EventKind::Hop, trace::EventKind::Compute] {
        assert!(events.iter().any(|e| e.kind == kind), "no {kind:?} event");
    }
    trace::wellformed::check_well_formed(&events).expect("trace well formed");
}
