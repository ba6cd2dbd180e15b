//! Structured observability for the Killi simulator stack.
//!
//! The crate is dependency-free and deliberately small: a typed event
//! taxonomy ([`KilliEvent`]), a mergeable counter/histogram registry
//! ([`MetricSet`]), a cheap [`Sink`] handle the simulator components
//! emit through (the default no-op sink is a single `Option` check),
//! and a bounded ring-buffer trace with JSON-lines export under the
//! `killi-obs/v1` schema. A minimal JSON parser rides along so the CLI
//! can read reports and traces back without external dependencies.
//!
//! Being the dependency-free root of the crate graph, the crate also
//! holds the machinery both data-driven registries share: typed
//! parameter values ([`ParamValue`]) and, in [`registry`], the configs,
//! errors, parameter resolution and canonical spellings that the scheme
//! registry (`killi::registry`) and the fault-model registry
//! (`killi_fault::model`) instantiate.
//!
//! Ownership of numbers is partitioned to keep every metric
//! single-sourced: protection schemes snapshot their authoritative
//! counters into a [`MetricSet`] via `LineProtection::metrics()`, while
//! the [`Sink`] carries the *event stream* (trace) plus its own
//! bookkeeping. Aggregation across Monte-Carlo replicates is plain
//! element-wise [`MetricSet::merge`], which is associative and
//! commutative by construction.

mod counters;
pub mod event;
pub mod json;
pub mod metrics;
pub mod params;
pub mod registry;
pub mod serve;
pub mod sink;
pub mod trace;
pub mod vmin;

pub use event::KilliEvent;
pub use json::{escape as escape_json, parse as parse_json, JsonError, JsonValue};
pub use metrics::{Counter, Histogram, MetricSet};
pub use params::ParamValue;
pub use serve::{ServeCounter, ServeEvent, ServeMetrics};
pub use sink::Sink;
pub use trace::TraceBuffer;
pub use vmin::{VminCounter, VminMetrics};

/// Schema tag stamped on the header line of every exported trace.
pub const OBS_SCHEMA: &str = "killi-obs/v1";
