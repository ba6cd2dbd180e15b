//! Experiment harness regenerating every figure and table of the Killi
//! paper.
//!
//! - [`schemes`] — the protection-scheme factory,
//! - [`runner`] — one (workload, scheme) simulation, the cell the sweep
//!   engine fans out,
//! - [`sweep`] — the Monte-Carlo replication engine (mean/stddev/CI95
//!   per (vdd, scheme, workload) cell, JSON reports),
//! - [`exec`] — the shared work-stealing thread pool + progress counters,
//! - [`experiments`] — the experiment table behind `killi repro`: one
//!   entry per paper figure/table and extra study,
//! - [`fault_models`] — the fault-model axis: registry re-exports and the
//!   `stuck-at` helpers every experiment shares,
//! - [`empirical`] — Monte-Carlo validation of the §5.3 coverage algebra,
//! - [`report`] — text-table rendering,
//! - [`timing`] — the in-repo micro-benchmark harness for the `codecs`
//!   and `cache` benches.
//!
//! The crate has no binaries: `killi repro [--only fig4,table6] [--ops N]
//! [--replications N]` runs the experiment table and writes each
//! artifact under `results/` in the current directory.

pub mod empirical;
pub mod exec;
pub mod experiments;
pub mod fault_models;
pub mod report;
pub mod runner;
pub mod schemes;
pub mod sweep;
pub mod timing;
