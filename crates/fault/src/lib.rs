//! Low-voltage SRAM fault modelling for the Killi reproduction.
//!
//! The paper's fault data comes from proprietary 14nm FinFET test-chip
//! measurements; this crate simulates that substrate:
//!
//! - [`cell_model`] — the per-cell failure-probability curves of Figure 1,
//!   calibrated to the aggregates published in the paper,
//! - [`model`] — the data-driven fault-model registry: the [`FaultModel`]
//!   trait plus named, parameterized models (`stuck-at`, `clustered`,
//!   `transient`, `table`) resolved from CLI/JSON spellings,
//! - [`map`] — persistent stuck-at fault maps with the silicon-observed
//!   properties (persistence, voltage/frequency monotonicity, masking),
//! - [`line_stats`] — the per-line 0/1/2+ fault distribution of Figure 2,
//! - [`soft`] — deterministic transient-error injection,
//! - [`prob`] — log-space binomial helpers used by the analytic models,
//! - [`rng`] — the stateless counter RNG everything draws from.
//!
//! # Example
//!
//! ```
//! use killi_fault::cell_model::{FreqGhz, NormVdd};
//! use killi_fault::model::{default_registry, FaultModelConfig};
//!
//! let model = default_registry().build(&FaultModelConfig::default(), &()).unwrap();
//! let map = model.map(1024, NormVdd::LV_0_625, FreqGhz::PEAK, 42);
//! let faulty_lines = (0..map.lines()).filter(|&l| map.data_fault_count(l) > 0).count();
//! assert!(faulty_lines < map.lines()); // most lines are fault-free at 0.625 VDD
//! ```

pub mod cell_model;
pub mod line_stats;
pub mod map;
pub mod model;
pub mod prob;
pub mod rng;
pub mod soft;

pub use cell_model::{CellFailureModel, FreqGhz, NormVdd};
pub use map::{CellFault, FaultMap, LineId, MapOptions};
pub use model::{
    default_registry, FaultModel, FaultModelConfig, FaultModelDescriptor, FaultModelRegistry,
};
