//! Fleet-scale Vmin campaigns for the Killi reproduction.
//!
//! The sweep engine in `killi-bench` answers "how does scheme S perform
//! at voltage V?" for a handful of replicates. This crate answers the
//! deployment-side question the paper's yield discussion (§6) raises:
//! over a *fleet* of dies, what minimum safe voltage does each
//! protection scheme bin at, and what fraction of the fleet is usable
//! at each grid point?
//!
//! Three pieces:
//!
//! - [`campaign`] — the engine. The fault model streams each die one line
//!   per call as grid-masked faults (`killi_fault::FaultModel::grid_masks`),
//!   and each line is reduced, as it arrives, into per-rule usable-line
//!   tables under each scheme's static admissibility rule
//!   (`killi::registry::LineRule`): a line whose masks are prefixes of
//!   ones is binned at its lowest admitted grid index and the bins are
//!   prefix-summed, in time proportional to the die's faults; any other
//!   line of a non-nested model (`transient`) has every rule applied at
//!   every grid point. No die is held whole; a die store's records feed
//!   the same per-line reduction. Parallel integer-only evaluation runs
//!   on the shared scoped-thread pool, followed by sequential aggregation
//!   into the byte-deterministic `killi-vmin/v1` report (Vmin CDF with
//!   exact order statistics, capacity-vs-vdd curves, yield tables).
//! - [`search`] — picks each die's Vmin from its finished usable-line
//!   table: bisection for voltage-nested models, a linear top-down scan
//!   for the rest. Both choose among answers already computed; the
//!   report's `search` block counts their probes.
//! - [`store`] — the `killi-diestore/v1` streaming die store: a
//!   write-once sparse serialization of a fleet's records
//!   ([`campaign::synth_record`] collects each die's stream into one), so
//!   campaigns re-run against identical silicon without re-synthesis and
//!   peak memory stays bounded by the chunk size rather than the fleet
//!   size.

pub mod campaign;
pub mod search;
pub mod store;

pub use campaign::{
    check_report, run_campaign, CampaignError, CampaignOutput, SchemeBin, ValidatedVminConfig,
    VminConfig, VminConfigError, VminReport, DEFAULT_GRID,
};
pub use search::{grid_vmin, SearchMode, SearchStats};
pub use store::{
    DieEntry, DieRecord, DieStoreReader, DieStoreWriter, StoreError, StoreMeta, MAX_GRID_POINTS,
};
