//! # coconet-sim
//!
//! Performance simulator for the CoCoNet reproduction: a calibrated
//! analytic cost model of the paper's testbed (16 DGX-2 nodes) plus
//! closed-form schedules of the chunk-level pipelines the `overlap`
//! transformation creates and of the priority-streamed iteration loop.
//!
//! The paper measures wall-clock on real V100 clusters; this crate
//! substitutes a machine model that reproduces the first-order effects
//! separating the schedules (launch counts, fusion's memory-traffic
//! savings, ring volumes/latencies per NCCL protocol, shared
//! InfiniBand, fine-grained overlap). See `DESIGN.md` for the
//! calibration constants.
//!
//! # Examples
//!
//! ```
//! use coconet_core::{CollAlgo, CollKind, CollectiveStep, CommConfig, DType, ReduceOp, Step};
//! use coconet_sim::Simulator;
//! use coconet_topology::MachineSpec;
//!
//! let sim = Simulator::new(MachineSpec::paper_testbed(), 256, 1);
//! let ar = Step::Collective(CollectiveStep {
//!     label: "allreduce".into(),
//!     kind: CollKind::AllReduce,
//!     op: ReduceOp::Sum,
//!     algo: CollAlgo::Ring,
//!     elems: 1 << 26,
//!     dtype: DType::F16,
//! });
//! let t = sim.time_step(&ar, CommConfig::default());
//! assert!(t.seconds > 0.0);
//! ```

#![warn(missing_docs)]

mod cost;
mod overlap;
mod protocol;
mod simulator;

pub use cost::{CostKnobs, CostModel, GroupGeom, WireBytes};
pub use overlap::{
    simulate_overlap, simulate_overlap_with_tiles, tile_count, OverlapSim, StageClass,
};
pub use protocol::{channel_sweep, default_protocol, params as protocol_params, ProtocolParams};
pub use simulator::{DurableFloor, FloorProfile, PlanTime, Simulator, StepCategory, StepTime};

/// The earliest-start list scheduler that `overlap`'s tile recurrence
/// and `simulator`'s stream schedule must reproduce bit for bit: tasks
/// start as soon as their dependencies finish and their resource is
/// free; among tasks that could start at the same time, the lowest
/// index wins.
#[cfg(test)]
mod oracle {
    use std::collections::HashMap;

    struct Task {
        resource: usize,
        duration: f64,
        deps: Vec<usize>,
    }

    /// A dependency graph of fixed-duration tasks over exclusive
    /// resources; a task may depend only on earlier tasks.
    #[derive(Default)]
    pub(crate) struct TaskGraph {
        tasks: Vec<Task>,
    }

    /// When each task of a scheduled [`TaskGraph`] started and finished.
    pub(crate) struct Timeline {
        pub(crate) start: Vec<f64>,
        pub(crate) finish: Vec<f64>,
        resources: Vec<usize>,
    }

    impl TaskGraph {
        /// Adds a task bound to `resource`; returns its index.
        pub(crate) fn add_task(&mut self, resource: usize, duration: f64, deps: &[usize]) -> usize {
            assert!(deps.iter().all(|&d| d < self.tasks.len()));
            self.tasks.push(Task {
                resource,
                duration,
                deps: deps.to_vec(),
            });
            self.tasks.len() - 1
        }

        pub(crate) fn schedule(&self) -> Timeline {
            let n = self.tasks.len();
            let mut start = vec![f64::NAN; n];
            let mut finish = vec![f64::NAN; n];
            let mut scheduled = vec![false; n];
            let mut resource_free: HashMap<usize, f64> = HashMap::new();
            for _ in 0..n {
                let mut best: Option<(f64, usize)> = None;
                for (i, t) in self.tasks.iter().enumerate() {
                    if scheduled[i] || t.deps.iter().any(|&d| !scheduled[d]) {
                        continue;
                    }
                    let ready = t.deps.iter().map(|&d| finish[d]).fold(0.0f64, f64::max);
                    let free = resource_free.get(&t.resource).copied().unwrap_or(0.0);
                    let s = ready.max(free);
                    let better = match best {
                        None => true,
                        Some((bs, bi)) => s < bs || (s == bs && i < bi),
                    };
                    if better {
                        best = Some((s, i));
                    }
                }
                let (s, i) = best.expect("dependencies point backwards");
                start[i] = s;
                finish[i] = s + self.tasks[i].duration;
                resource_free.insert(self.tasks[i].resource, finish[i]);
                scheduled[i] = true;
            }
            Timeline {
                start,
                finish,
                resources: self.tasks.iter().map(|t| t.resource).collect(),
            }
        }
    }

    impl Timeline {
        pub(crate) fn makespan(&self) -> f64 {
            self.finish.iter().copied().fold(0.0f64, f64::max)
        }

        /// Σ(finish − start) over the resource's tasks, in index order.
        pub(crate) fn busy_time(&self, resource: usize) -> f64 {
            (0..self.start.len())
                .filter(|&i| self.resources[i] == resource)
                .map(|i| self.finish[i] - self.start[i])
                .sum()
        }
    }

    mod tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The oracle itself is feasible: no task starts before its
            /// dependencies finish, and no two tasks overlap on one
            /// resource.
            #[test]
            fn schedule_is_feasible(
                n_res in 1usize..4,
                specs in prop::collection::vec((0.0f64..5.0, any::<u64>()), 1..20),
            ) {
                let mut g = TaskGraph::default();
                for (i, &(dur, bits)) in specs.iter().enumerate() {
                    let deps: Vec<usize> = (0..i).filter(|j| bits & (1 << (j % 60)) != 0).collect();
                    g.add_task(i % n_res, dur, &deps);
                }
                let t = g.schedule();
                for (i, task) in g.tasks.iter().enumerate() {
                    for &d in &task.deps {
                        prop_assert!(t.start[i] >= t.finish[d]);
                    }
                    for j in 0..i {
                        if task.resource == g.tasks[j].resource {
                            prop_assert!(t.finish[i] <= t.start[j] || t.finish[j] <= t.start[i]);
                        }
                    }
                }
            }
        }
    }
}
