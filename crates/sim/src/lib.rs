//! GPU cache-hierarchy timing simulator for the Killi reproduction.
//!
//! This crate is the stand-in for the paper's gem5 + GCN3 GPU setup. It
//! provides:
//!
//! - [`mem`] — a fixed-latency main memory with synthesized, versioned
//!   content (the architectural source of truth for the write-through L2),
//! - [`cache`] — cache geometry, a tag-only L1, and the banked,
//!   fault-injected, write-through GPU L2, which hands schemes exactly the
//!   bits its faulty array holds, derived on read,
//! - [`protection`] — the [`protection::LineProtection`] trait every scheme
//!   (Killi and all baselines) implements,
//! - [`gpu`] — the 8-CU timing driver with bounded outstanding-load windows,
//! - [`trace`] — the trace-op vocabulary consumed by the driver,
//! - [`tracefile`] — compact binary trace persistence (record/replay),
//! - [`stats`] — counters and derived metrics (cycles, MPKI, SDCs).
//!
//! # Example
//!
//! ```
//! use killi_fault::map::FaultMap;
//! use killi_sim::gpu::{GpuConfig, GpuSim};
//! use killi_sim::protection::Unprotected;
//! use killi_sim::trace::{Trace, TraceOp};
//!
//! let config = GpuConfig::small_test();
//! let map = std::sync::Arc::new(FaultMap::fault_free(config.l2.lines()));
//! let mut sim = GpuSim::new(config, map, Box::new(Unprotected::new()), 42);
//! let ops = vec![TraceOp::Load(0x1000), TraceOp::Compute(10), TraceOp::Load(0x1000)];
//! let stats = sim.run(Trace::from_vecs(vec![ops.clone(), ops]));
//! assert!(stats.cycles > 0);
//! ```

pub mod cache;
pub mod gpu;
pub mod mem;
pub mod protection;
pub mod stats;
pub mod trace;
pub mod tracefile;

pub use cache::{CacheGeometry, L2Cache, WritePolicy};
pub use gpu::{GpuConfig, GpuSim};
pub use protection::{FillOutcome, LineProtection, ReadOutcome};
pub use stats::SimStats;
pub use trace::{Trace, TraceOp};

/// One-stop imports for implementing or driving a protection scheme:
/// the trait, its outcome types, the cache geometry, and the
/// observability vocabulary it speaks.
pub mod prelude {
    pub use crate::cache::{CacheGeometry, WritePolicy};
    pub use crate::gpu::{GpuConfig, GpuSim};
    pub use crate::protection::{FillOutcome, LineProtection, ReadOutcome, Unprotected};
    pub use crate::stats::SimStats;
    pub use killi_obs::{Counter, KilliEvent, MetricSet, Sink};
}
