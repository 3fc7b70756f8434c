//! The multi-tenant contention experiment behind the costed
//! `multitenant_throughput` row.
//!
//! A shared cluster rarely runs one tuned program at a time: K tenant
//! jobs contend for the same fabric. This module tunes the Adam
//! data-parallel workload once, lowers the winning (schedule, config)
//! at K scaled problem sizes — the classic mixed-tenant shape: one big
//! job plus progressively smaller ones — and replays all K through the
//! shared-fabric simulator ([`coconet_sim::contention_report`]) under
//! both wire-service disciplines:
//!
//! * **FIFO** — fair sharing; every active transfer gets `1/n` of the
//!   fabric (the GPS fluid limit of per-chunk round-robin);
//! * **Aware** — the contention-aware scheduler; the fabric
//!   consolidates onto the transfer with the least remaining
//!   communication (SRPT), the MLfabric-style policy the autotuner's
//!   `xfer` dimension exposes.
//!
//! The row's checks are the scheduling-theory facts the simulator must
//! reproduce: SRPT strictly wins mean job-completion time on any
//! non-degenerate size mix, both disciplines are work-conserving (so
//! on this comm-dominated workload the aware makespan stays within a
//! small slack of FIFO's), and sharing the fabric beats running the K
//! jobs back-to-back.

use coconet_core::{lower, KernelStep};
use coconet_sim::{contention_report, MultiTenantReport, Simulator, TenantJob};
use coconet_topology::MachineSpec;

use crate::experiments::{self, DP_RANKS};
use crate::trajectory::Check;

/// Jobs sharing the fabric (the ISSUE's "K >= 4" regime).
pub const MT_JOBS: usize = 4;

/// Largest tenant's element count; job `i` runs at `MT_MAX_ELEMS >> i`.
pub const MT_MAX_ELEMS: u64 = 1 << 26;

/// Slack on the makespan comparison: both disciplines are
/// work-conserving, so on a comm-dominated workload their makespans
/// agree up to compute edge effects; 5% bounds those.
pub const MT_MAKESPAN_SLACK: f64 = 1.05;

/// One K-job contention comparison.
#[derive(Clone, Debug)]
pub struct MultiTenantRow {
    /// Workload the tenants run (an [`experiments::autotune_setup`]
    /// name).
    pub workload: &'static str,
    /// The tuned winner's label (schedule @ config).
    pub winner: String,
    /// Per-job `(name, solo_seconds)` — each job alone on the fabric.
    pub solo_s: Vec<(String, f64)>,
    /// The shared-fabric outcomes under both disciplines plus the
    /// serial baseline.
    pub report: MultiTenantReport,
}

impl MultiTenantRow {
    /// Back-to-back (serial) wall time — the no-sharing baseline.
    pub fn serial_s(&self) -> f64 {
        self.report.serial_s
    }

    /// Makespan under the contention-aware discipline — the row's
    /// headline number.
    pub fn aware_makespan_s(&self) -> f64 {
        self.report.aware.makespan_s
    }

    /// The contention contract as checks over the costed seconds: SRPT
    /// strictly wins the mean on a mixed-size tenant set, both
    /// disciplines are work-conserving (makespans within
    /// [`MT_MAKESPAN_SLACK`]), and the compute/comm overlap across
    /// tenants makes sharing beat serial.
    pub fn checks(&self) -> Vec<Check> {
        let (fifo, aware) = (&self.report.fifo, &self.report.aware);
        vec![
            Check::lt(
                "srpt_beats_fifo_mean_completion_s",
                aware.mean_completion_s,
                fifo.mean_completion_s,
            ),
            Check::lt(
                "aware_makespan_s_within_slack_of_fifo",
                aware.makespan_s,
                fifo.makespan_s * MT_MAKESPAN_SLACK,
            ),
            Check::lt(
                "sharing_beats_serial_s",
                aware.makespan_s,
                self.report.serial_s,
            ),
            Check::eq("tenants", self.solo_s.len(), MT_JOBS),
        ]
    }
}

/// Tunes the workload once, lowers the winner at [`MT_JOBS`] scaled
/// sizes, and replays the tenant set through the shared-fabric
/// simulator.
pub fn multitenant_bench(workload: &'static str, workers: usize) -> MultiTenantRow {
    let (program, binding, sim) = experiments::autotune_setup(workload);
    let tuner = coconet_core::Autotuner::default().with_workers(workers);
    let report = tuner.tune(&program, &binding, &sim).expect("tunes");
    let winner = report.best().expect("search found a winner").clone();

    // The tenants all run the winner's rewritten program and config,
    // each at its own problem size on the same 256-GPU fabric: one big
    // job plus progressively smaller ones (halving N), the classic
    // mixed-tenant size distribution SRPT exists for. Each tenant is a
    // full training iteration: the backward pass that *produces* the
    // N-element gradient (local compute, never contended) followed by
    // the tuned exchange (the fabric phase) — the overlap of one
    // tenant's backward with another's exchange is exactly what
    // consolidation buys.
    let tenant_sim = Simulator::new(MachineSpec::paper_testbed(), DP_RANKS, 1);
    let cost = tenant_sim.cost_model();
    let jobs: Vec<TenantJob> = (0..MT_JOBS)
        .map(|i| {
            let n = MT_MAX_ELEMS >> i;
            let b = coconet_core::Binding::new(DP_RANKS).bind("N", n);
            let plan = lower(&winner.program, &b, winner.config).expect("winner lowers");
            let exchange = TenantJob::from_plan(
                format!("tenant{i}/2^{}", n.trailing_zeros()),
                &tenant_sim,
                &plan,
                1,
            );
            let backward = KernelStep {
                label: "backward".into(),
                bytes_read: 4 * n,
                bytes_written: 2 * n,
                flops: 2 * n,
                n_ops: 2,
            };
            TenantJob::new(
                exchange.name,
                exchange.compute_s + cost.kernel_time(&backward),
                exchange.comm_s,
                1,
            )
        })
        .collect();

    let mt = contention_report(&jobs);
    MultiTenantRow {
        workload,
        winner: winner.label(),
        solo_s: jobs.iter().map(|j| (j.name.clone(), j.solo_s())).collect(),
        report: mt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The K=4 Adam tenant set sits in the comm-dominated regime, so
    /// every check holds: SRPT wins the mean, makespans agree within
    /// slack, sharing beats serial.
    #[test]
    fn multitenant_bench_is_healthy() {
        let row = multitenant_bench("adam", 2);
        let failed: Vec<_> = row.checks().into_iter().filter(|c| !c.holds()).collect();
        assert_eq!(failed, Vec::new());
        assert_eq!(row.solo_s.len(), MT_JOBS);
        // Solo times shrink with the problem size.
        for pair in row.solo_s.windows(2) {
            assert!(pair[0].1 > pair[1].1, "{:?}", row.solo_s);
        }
        // Serial is the sum of solos.
        let sum: f64 = row.solo_s.iter().map(|&(_, s)| s).sum();
        assert!((row.serial_s() - sum).abs() < 1e-12 * sum.max(1.0));
    }
}
