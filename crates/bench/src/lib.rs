//! # coconet-bench
//!
//! Benchmark harnesses reproducing every table and figure of the
//! paper's evaluation (§6). Each bench target prints the simulated rows
//! next to the paper's reported values; the `report` binary distills
//! them — plus the runtime's byte- and bit-exactness invariants — into
//! the reproducible `BENCH_coconet.json` ([`trajectory`]). Wall-clocks
//! are measured by the repo benchmark under `benchmark/`, not here.

#![warn(missing_docs)]

pub mod compression;
pub mod experiments;
pub mod json;
pub mod multitenant;
pub mod report;
pub mod steady;
pub mod tracebench;
pub mod trajectory;

pub use json::{Json, JsonError};
pub use report::{fmt_time, fmt_x, Report};
pub use trajectory::{check_against, collect, Kind, Row};
