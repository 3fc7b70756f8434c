//! Tracing must be a pure observer: running the streaming executor
//! with span recording enabled has to produce bit-identical outputs,
//! final parameters, and ledger counters (aggregate, per-class, and
//! switch-attributed) versus a run with tracing disabled — across
//! collective algorithms, wire formats, and schedules. On top of
//! neutrality, the emitted traces themselves must be well formed:
//! spans properly nested, per-thread timestamps monotone, and every
//! scheduler enqueue matched by a completion.

use coconet_compress::WireFormat;
use coconet_core::{CollAlgo, CommSched};
use coconet_runtime::{run_ranks, BytesLedger, Group, StreamExecutor};
use coconet_tensor::{DType, Tensor};
use coconet_trace as trace;
use proptest::prelude::*;
use std::sync::Mutex;

/// The enable flag is process-global, so tests that toggle it must not
/// interleave — everything funnels through this gate.
static GATE: Mutex<()> = Mutex::new(());

/// One full observable outcome of a rank: final parameters, the set of
/// completed job ids (sorted — under `Priority` the *order* in which
/// jobs of different classes finish depends on when peers' chunks
/// arrive, with or without tracing), and the complete byte ledger.
type RankOutcome = (Vec<Tensor>, Vec<u64>, BytesLedger);

/// Runs the streaming training loop at the given configuration and
/// returns every rank's outcome.
fn run_loop(
    algo: CollAlgo,
    wire: WireFormat,
    sched: CommSched,
    channels: usize,
) -> Vec<RankOutcome> {
    let k = 4usize;
    let layers = 3usize;
    let iters = 3u64;
    run_ranks(k, move |comm| {
        let rank = comm.rank();
        let params: Vec<Tensor> = (0..layers)
            .map(|l| Tensor::from_fn([19], DType::F32, move |i| (l * 31 + i) as f32 * 0.01))
            .collect();
        let mut exec = StreamExecutor::new(Group { start: 0, size: k }, params, sched, wire)
            .with_algo(algo)
            .with_channels(channels);
        exec.run_iterations(
            &comm,
            iters,
            |_, _, _| {},
            move |l, iter, p| {
                Tensor::from_fn([19], DType::F32, |i| {
                    p.get(i) * 0.05
                        + l as f32
                        + iter as f32 * 0.1
                        + rank as f32 * 0.01
                        + i as f32 * 0.001
                })
            },
            |_, p, g| {
                let stepped = Tensor::from_fn([19], DType::F32, |i| p.get(i) - 0.1 * g.get(i));
                *p = stepped;
            },
        );
        let mut completed: Vec<u64> = exec.completion_events().iter().map(|c| c.id).collect();
        completed.sort_unstable();
        (exec.params(), completed, comm.ledger())
    })
}

fn assert_outcomes_identical(untraced: &[RankOutcome], traced: &[RankOutcome]) {
    assert_eq!(untraced.len(), traced.len());
    for (rank, ((pu, lu, bu), (pt, lt, bt))) in untraced.iter().zip(traced).enumerate() {
        assert_eq!(lu, lt, "rank {rank}: completed jobs perturbed");
        assert_eq!(bu, bt, "rank {rank}: ledger counters perturbed");
        assert_eq!(pu.len(), pt.len());
        for (l, (a, b)) in pu.iter().zip(pt).enumerate() {
            let (av, bv) = (a.to_f32_vec(), b.to_f32_vec());
            let bits_equal =
                av.len() == bv.len() && av.iter().zip(&bv).all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(bits_equal, "rank {rank} layer {l}: parameters perturbed");
        }
    }
}

/// The configuration grid the neutrality property samples from.
const CONFIGS: &[(CollAlgo, WireFormat, CommSched, usize)] = &[
    (CollAlgo::Ring, WireFormat::Dense, CommSched::Priority, 1),
    (CollAlgo::Ring, WireFormat::Dense, CommSched::Barriered, 1),
    (CollAlgo::Ring, WireFormat::Fp16, CommSched::Priority, 1),
    (CollAlgo::Ring, WireFormat::Dense, CommSched::Priority, 4),
    (CollAlgo::Ring, WireFormat::Fp16, CommSched::Barriered, 2),
    (CollAlgo::Switch, WireFormat::Dense, CommSched::Priority, 1),
    (CollAlgo::Switch, WireFormat::Dense, CommSched::Barriered, 1),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(7))]

    /// Bit-identical outputs, parameters, and ledgers (including
    /// per-class byte counters) with tracing enabled vs. disabled,
    /// across algorithms, wire formats, schedules and lane widths.
    #[test]
    fn tracing_is_observationally_neutral(case in 0usize..CONFIGS.len()) {
        let (algo, wire, sched, channels) = CONFIGS[case];
        let _gate = GATE.lock().unwrap();
        trace::set_enabled(false);
        let untraced = run_loop(algo, wire, sched, channels);
        trace::clear();
        trace::set_enabled(true);
        let traced = run_loop(algo, wire, sched, channels);
        trace::set_enabled(false);
        trace::clear();
        assert_outcomes_identical(&untraced, &traced);
    }
}

/// A traced priority-schedule run produces a well-formed trace: spans
/// nested per thread, record timestamps monotone, every scheduler
/// enqueue matched by a completion, and every scheduled hop carrying
/// the id of a job enqueued on its rank — a striped tree's too, whose
/// lanes ride their own wire tags under one queue entry.
#[test]
fn priority_run_emits_a_well_formed_trace() {
    let _gate = GATE.lock().unwrap();
    for (algo, channels) in [(CollAlgo::Ring, 2), (CollAlgo::Tree, 3)] {
        trace::clear();
        trace::set_enabled(true);
        let outcomes = run_loop(algo, WireFormat::Dense, CommSched::Priority, channels);
        trace::set_enabled(false);
        let events = trace::take_snapshot();
        trace::clear();

        assert!(!outcomes.is_empty());
        assert!(
            events.iter().any(|e| e.kind == trace::EventKind::Hop),
            "no hop events recorded"
        );
        assert!(
            events.iter().any(|e| e.kind == trace::EventKind::Compute),
            "no compute spans recorded"
        );
        trace::wellformed::check_well_formed(&events).expect("trace well-formed");
        let enqueued: std::collections::HashSet<(u32, u64)> = events
            .iter()
            .filter(|e| e.kind == trace::EventKind::SchedEnqueue)
            .map(|e| (e.rank, e.a))
            .collect();
        let stray = events.iter().find(|e| {
            e.kind == trace::EventKind::Hop
                && e.a != trace::JOB_NONE
                && !enqueued.contains(&(e.rank, e.a))
        });
        assert!(
            stray.is_none(),
            "{algo}: a hop names no enqueued job: {stray:?}"
        );
    }
}

/// The structured completion events come in priority order, with
/// monotone timestamps and the enqueue classes.
#[test]
fn completion_events_record_priority_order_and_classes() {
    use coconet_core::Executed;
    use coconet_runtime::CommScheduler;
    use coconet_tensor::ReduceOp;

    let dense = Executed {
        algo: CollAlgo::Ring,
        format: WireFormat::Dense,
        lanes: 1,
    };

    let _gate = GATE.lock().unwrap();
    trace::set_enabled(false);
    let results = run_ranks(4, move |comm| {
        let group = Group { start: 0, size: 4 };
        let a = Tensor::from_fn([13], DType::F32, |i| (comm.rank() + i) as f32);
        let b = Tensor::from_fn([13], DType::F32, |i| (comm.rank() * 3 + i) as f32);
        let mut sched = CommScheduler::new();
        sched.enqueue(10, 5, group, &a, ReduceOp::Sum, dense);
        sched.enqueue(20, 0, group, &b, ReduceOp::Sum, dense);
        sched.drain(&comm);
        sched
            .completion_events()
            .iter()
            .map(|c| (c.id, c.class, c.ts_ns))
            .collect::<Vec<_>>()
    });
    for events in results {
        let ids: Vec<u64> = events.iter().map(|&(id, _, _)| id).collect();
        assert_eq!(ids, vec![20, 10], "priority order");
        assert_eq!(events[0].1, 0, "urgent job completed at class 0");
        assert_eq!(events[1].1, 5, "late job completed at class 5");
        assert!(events[0].2 <= events[1].2, "timestamps monotone");
    }
}
