//! Facade crate for the Killi reproduction workspace.
//!
//! Re-exports every component crate so examples, integration tests and
//! downstream users can depend on a single package:
//!
//! - [`ecc`] — parity, SECDED, DEC-TED BCH and OLSC codecs,
//! - [`fault`] — low-voltage fault model (cell curves, fault maps, soft errors),
//! - [`sim`] — the GPU cache-hierarchy timing simulator,
//! - [`core`] — the Killi mechanism itself (DFH classification + ECC cache),
//! - [`baselines`] — DECTED / FLAIR / MS-ECC / SECDED comparison schemes,
//! - [`workloads`] — synthetic GPGPU trace generators,
//! - [`model`] — analytic coverage, area and power models,
//! - [`obs`] — typed event/metrics observability layer,
//! - [`mod@bench`] — experiment runner and Monte-Carlo sweep engine,
//! - [`vmin`] — fleet-scale Vmin campaigns (per-die minimum-voltage
//!   binning over a streaming die store),
//! - [`serve`] — the sweep and campaign engines as an HTTP service (job
//!   queue, worker pool, content-addressed result cache).
//!
//! # Quickstart
//!
//! ```
//! use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
//! use killi_repro::fault::line_stats::LineFaultDistribution;
//! use killi_repro::fault::model::{default_registry, FaultModelConfig};
//!
//! let model = default_registry().build(&FaultModelConfig::default(), &()).unwrap();
//! let cell = model.cell_model().expect("stuck-at exposes its curve");
//! let dist = LineFaultDistribution::at(cell, NormVdd::LV_0_625, FreqGhz::PEAK);
//! assert!(dist.zero + dist.one > 0.95);
//! ```

pub use killi as core;
pub use killi_baselines as baselines;
pub use killi_bench as bench;
pub use killi_ecc as ecc;
pub use killi_fault as fault;
pub use killi_model as model;
pub use killi_obs as obs;
pub use killi_serve as serve;
pub use killi_sim as sim;
pub use killi_vmin as vmin;
pub use killi_workloads as workloads;
