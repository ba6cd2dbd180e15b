//! Killi: runtime LV-fault classification without MBIST (HPCA 2019).
//!
//! This crate implements the paper's primary contribution on top of the
//! `killi-sim` cache substrate:
//!
//! - [`dfh`] — the per-line Detected Fault History state (Table 1),
//! - [`classify`] — the Table 2 transition logic as a pure function of the
//!   (segment parity, syndrome, global parity) observables,
//! - [`ecc_cache`] — the decoupled metadata cache holding SECDED checkbits
//!   and the upper parity bits for lines that need them,
//! - [`scheme`] — [`scheme::KilliScheme`], the full mechanism implementing
//!   the simulator's `LineProtection` interface, including the §4.4
//!   replacement optimizations, the §5.2 DEC-TED upgrade and the §5.6.2
//!   inverted-write masked-fault mitigation,
//! - [`pipeline`] — Killi's detection and classification layers
//!   ([`pipeline::SegmentedParity`] and [`pipeline::DfhClassifier`]),
//!   which the scheme calls directly,
//! - [`registry`] — the data-driven [`registry::SchemeRegistry`] mapping
//!   declarative [`registry::SchemeConfig`]s (CLI shorthand or JSON) onto
//!   built schemes with typed [`registry::BuildError`]s.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use killi::scheme::{KilliConfig, KilliScheme};
//! use killi_fault::model::{default_registry, FaultModelConfig};
//! use killi_fault::cell_model::{FreqGhz, NormVdd};
//! use killi_sim::gpu::{GpuConfig, GpuSim};
//! use killi_sim::trace::{Trace, TraceOp};
//!
//! let config = GpuConfig::small_test();
//! let model = default_registry().build(&FaultModelConfig::default(), &()).unwrap();
//! let map = Arc::new(model.map(config.l2.lines(), NormVdd::LV_0_625, FreqGhz::PEAK, 1));
//! let killi = KilliScheme::new(
//!     KilliConfig::with_ratio(16), Arc::clone(&map),
//!     config.l2.lines(), config.l2.ways,
//! );
//! let mut sim = GpuSim::new(config, map, Box::new(killi), 7);
//! let ops: Vec<TraceOp> = (0..64).map(|i| TraceOp::Load(i * 64)).collect();
//! let stats = sim.run(Trace::from_vecs(vec![ops.clone(), ops]));
//! assert_eq!(stats.sdc_events, 0, "Killi must never deliver corrupt data silently");
//! ```

pub mod classify;
pub mod dfh;
pub mod ecc_cache;
pub mod pipeline;
pub mod registry;
pub mod scheme;

pub use dfh::Dfh;
pub use registry::{
    BuildCtx, BuildError, ParamValue, SchemeConfig, SchemeDescriptor, SchemeRegistry,
};
pub use scheme::{KilliConfig, KilliScheme};
