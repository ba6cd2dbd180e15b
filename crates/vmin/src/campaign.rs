//! Fleet-scale Vmin campaigns.
//!
//! A campaign answers the deployment question the paper's §6 yield
//! discussion raises: across a fleet of dies, what is the minimum safe
//! operating voltage *per protection scheme*, and what fraction of dies
//! bins at each grid point? Each die is reduced to per-rule usable-line
//! tables over the voltage grid, and binned by
//! [`crate::search::grid_vmin`] over those tables.
//!
//! A die is evaluated line by line, so it is never held whole. The fault
//! model's stream ([`killi_fault::FaultModel::grid_masks`]) hands one line
//! per call straight to a per-line accumulator; with a die store, each
//! record line feeds the same accumulator as the same grid faults, and
//! [`synth_record`] collects the stream into the records the store builder
//! writes. A line whose masks are all prefixes of ones (every line of a
//! voltage-nested model, and most lines of `transient`) is binned at its
//! lowest admitted grid index under each distinct rule
//! ([`LineRule::lowest_admitted`]), and a prefix sum turns the bins into
//! usable-line counts: O(faults + lines x rules + grid) per die. Any other
//! line is evaluated at every grid point when the model is not nested,
//! and is a typed [`CampaignError::NotNested`] when it is. Evaluating
//! every line point by point is the test oracle.
//!
//! Determinism contract: the parallel phase produces only per-die
//! integer outcomes (grid indices and counts); every floating-point
//! aggregation folds sequentially in die order, so the `killi-vmin/v1`
//! report is byte-identical at any thread count and across the
//! store/direct synthesis paths.

use std::path::{Path, PathBuf};

use killi::registry::{BuildError, LineRule, SchemeConfig};
use killi_bench::exec::{par_map, Progress};
use killi_bench::fault_models::{
    build_fault_model, fault_model_label, FaultModelBuildError, FaultModelConfig,
};
use killi_bench::schemes::{
    check_distinct_labels, default_registry, scheme_admissibility, scheme_label,
};
use killi_bench::sweep::{validate_voltage_grid, Accumulator};
use killi_fault::map::GridFault;
use killi_fault::model::default_registry as default_fault_registry;
use killi_fault::rng::derive_seed;
use killi_fault::{CellFault, FaultModel, FreqGhz, LineId, NormVdd};
use killi_obs::{escape_json, VminCounter, VminMetrics};

use crate::search::{grid_vmin, SearchMode, SearchStats};
use crate::store::{
    DieEntry, DieRecord, DieStoreReader, DieStoreWriter, StoreError, StoreMeta, MAX_GRID_POINTS,
};

/// The default campaign voltage grid: the paper's 0.6–0.65 operating
/// window widened one step in both directions so binning has headroom.
pub const DEFAULT_GRID: [f64; 7] = [0.55, 0.575, 0.6, 0.625, 0.65, 0.675, 0.7];

/// Declarative description of one Vmin campaign.
#[derive(Debug, Clone)]
pub struct VminConfig {
    /// Root seed every die seed derives from (die `i` uses the same
    /// derivation as sweep replicate `i`, so stores and sweeps agree).
    pub root_seed: u64,
    /// Dies in the fleet.
    pub dies: usize,
    /// Cache lines per die.
    pub lines: usize,
    /// Usable-line fraction a die must keep to pass a grid point.
    pub target: f64,
    /// Voltage grid to search (canonicalized ascending by validation).
    pub vdds: Vec<f64>,
    /// Protection schemes to bin, resolved through the scheme registry.
    pub schemes: Vec<SchemeConfig>,
    /// Fault model dies are drawn from.
    pub fault_model: FaultModelConfig,
    /// Worker threads.
    pub threads: usize,
    /// Progress cadence (print every N completed dies; 0 = silent).
    pub progress_every: usize,
    /// Optional die-store path: reused when it exists, built (then
    /// streamed from) when it does not.
    pub store: Option<PathBuf>,
    /// Search algorithm selection (the default `Auto` is production;
    /// `Exhaustive` is the oracle the property tests compare against).
    pub search: SearchMode,
}

impl Default for VminConfig {
    fn default() -> Self {
        VminConfig {
            root_seed: 42,
            dies: 100,
            lines: 4096,
            target: 0.99,
            vdds: DEFAULT_GRID.to_vec(),
            schemes: vec![SchemeConfig::parse("killi:ratio=64").expect("a valid spelling")],
            fault_model: FaultModelConfig::default(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            progress_every: 0,
            store: None,
            search: SearchMode::Auto,
        }
    }
}

/// Why a [`VminConfig`] was rejected.
#[derive(Debug)]
pub enum VminConfigError {
    /// A scheme config failed registry resolution.
    Scheme(BuildError),
    /// The fault-model config failed registry resolution.
    FaultModel(FaultModelBuildError),
    /// The voltage grid is unusable as a search axis.
    Grid {
        /// What is wrong with it.
        reason: String,
    },
    /// A scalar knob is out of range.
    Config {
        /// What is wrong with it.
        reason: String,
    },
}

impl std::fmt::Display for VminConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VminConfigError::Scheme(e) => write!(f, "invalid scheme: {e}"),
            VminConfigError::FaultModel(e) => write!(f, "invalid fault model: {e}"),
            VminConfigError::Grid { reason } => write!(f, "invalid voltage grid: {reason}"),
            VminConfigError::Config { reason } => write!(f, "invalid campaign config: {reason}"),
        }
    }
}

impl std::error::Error for VminConfigError {}

impl From<BuildError> for VminConfigError {
    fn from(e: BuildError) -> Self {
        VminConfigError::Scheme(e)
    }
}

impl From<FaultModelBuildError> for VminConfigError {
    fn from(e: FaultModelBuildError) -> Self {
        VminConfigError::FaultModel(e)
    }
}

impl VminConfig {
    /// Validates the config and canonicalizes it: grid sorted ascending,
    /// every scheme and the fault model respelled canonically. The
    /// returned proof type is what [`run_campaign`] takes, and its
    /// [`ValidatedVminConfig::canonical_json`] is the content-address
    /// key the sweep service caches campaigns under.
    pub fn validated(mut self) -> Result<ValidatedVminConfig, VminConfigError> {
        validate_voltage_grid(&self.vdds).map_err(|reason| VminConfigError::Grid { reason })?;
        if self.vdds.len() > MAX_GRID_POINTS {
            return Err(VminConfigError::Grid {
                reason: format!(
                    "at most {MAX_GRID_POINTS} grid points (die-store masks are 64-bit), got {}",
                    self.vdds.len()
                ),
            });
        }
        if self.schemes.is_empty() {
            return Err(VminConfigError::Config {
                reason: "a campaign needs at least one scheme".to_string(),
            });
        }
        for scheme in &self.schemes {
            // Resolving the admissibility rule exercises name + param
            // validation and proves the scheme supports static binning.
            scheme_admissibility(scheme)?;
        }
        // The report bins by label; checked before canonicalization, so
        // the error names the given spellings.
        check_distinct_labels(&self.schemes)?;
        let registry = default_registry();
        for scheme in &mut self.schemes {
            *scheme = registry.canonicalize(scheme)?;
        }
        build_fault_model(&self.fault_model)?;
        self.fault_model = default_fault_registry().canonicalize(&self.fault_model)?;
        if self.dies == 0 {
            return Err(VminConfigError::Config {
                reason: "a campaign needs at least one die".to_string(),
            });
        }
        if self.lines == 0 {
            return Err(VminConfigError::Config {
                reason: "a die needs at least one line".to_string(),
            });
        }
        // Die records and stores index lines with a u32.
        if u32::try_from(self.lines).is_err() {
            return Err(VminConfigError::Config {
                reason: format!("a die has at most {} lines, got {}", u32::MAX, self.lines),
            });
        }
        if !(self.target > 0.0 && self.target <= 1.0) {
            return Err(VminConfigError::Config {
                reason: format!("target {:?} outside (0, 1]", self.target),
            });
        }
        // validate_voltage_grid accepts either strict direction; the
        // campaign's grid semantics (and the die-store format) are
        // ascending, so canonicalize here.
        if self.vdds.first() > self.vdds.last() {
            self.vdds.reverse();
        }
        Ok(ValidatedVminConfig { config: self })
    }
}

/// A [`VminConfig`] that passed [`VminConfig::validated`]: schemes and
/// fault model are canonical and the grid is strictly ascending.
#[derive(Debug, Clone)]
pub struct ValidatedVminConfig {
    config: VminConfig,
}

impl ValidatedVminConfig {
    /// The validated config.
    pub fn config(&self) -> &VminConfig {
        &self.config
    }

    /// Deterministic JSON over exactly the fields that shape report
    /// bytes (schema `killi-vmin-config/v1`). Execution knobs —
    /// `threads`, `progress_every`, `store`, `search` — are excluded:
    /// the report is byte-identical across them, so configs differing
    /// only there must share a cache key.
    pub fn canonical_json(&self) -> String {
        let c = &self.config;
        let mut out = String::from("{\"schema\":\"killi-vmin-config/v1\"");
        out.push_str(&format!(",\"root_seed\":{}", c.root_seed));
        out.push_str(&format!(",\"dies\":{}", c.dies));
        out.push_str(&format!(",\"lines\":{}", c.lines));
        out.push_str(&format!(",\"target\":{}", json_f64(c.target)));
        out.push_str(&format!(
            ",\"vdds\":[{}]",
            c.vdds
                .iter()
                .map(|&v| json_f64(v))
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(
            ",\"schemes\":[{}]",
            c.schemes
                .iter()
                .map(SchemeConfig::to_json)
                .collect::<Vec<_>>()
                .join(",")
        ));
        out.push_str(&format!(",\"fault_model\":{}", c.fault_model.to_json()));
        out.push('}');
        out
    }
}

/// Why a validated campaign still failed to run.
#[derive(Debug)]
pub enum CampaignError {
    /// The die store could not be written or read.
    Store(StoreError),
    /// An existing die store does not match the campaign config, or its
    /// die 0 is not the fault model's draw.
    StoreMismatch {
        /// What disagrees.
        reason: String,
    },
    /// A die record holds a grid mask that is not a prefix of ones,
    /// which a voltage-nested fault model never produces: the die store
    /// was not written by the campaign's model.
    NotNested {
        /// Index of the die within the campaign.
        die: usize,
        /// The first offending entry.
        entry: DieEntry,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Store(e) => write!(f, "{e}"),
            CampaignError::StoreMismatch { reason } => {
                write!(f, "die store does not match the campaign: {reason}")
            }
            CampaignError::NotNested { die, entry } => write!(
                f,
                "die {die}: line {} cell {} has grid mask {:#x}, not a prefix of ones, \
                 under a voltage-nested fault model",
                entry.line, entry.cell, entry.mask
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<StoreError> for CampaignError {
    fn from(e: StoreError) -> Self {
        CampaignError::Store(e)
    }
}

/// Per-scheme binning aggregate of a finished campaign.
#[derive(Debug, Clone)]
pub struct SchemeBin {
    /// Canonical scheme label.
    pub scheme: String,
    /// `hist[g]` = dies whose Vmin is exactly `vdds[g]`.
    pub hist: Vec<u64>,
    /// Dies that fail even the highest grid voltage.
    pub failed: u64,
    /// Welford accumulator over passing dies' Vmin voltages.
    pub vmin: Accumulator,
    /// Lowest / highest observed Vmin grid index among passing dies.
    pub min_idx: Option<usize>,
    /// See [`SchemeBin::min_idx`].
    pub max_idx: Option<usize>,
    /// Usable-line fraction per grid point, accumulated over all dies.
    pub capacity: Vec<Accumulator>,
}

impl SchemeBin {
    /// Exact order statistic over passing dies: the smallest grid index
    /// whose cumulative histogram count reaches `ceil(q * n)`.
    pub fn quantile_idx(&self, q: f64) -> Option<usize> {
        let n = self.vmin.n();
        if n == 0 {
            return None;
        }
        let rank = ((q * n as f64).ceil() as u64).max(1);
        let mut cum = 0;
        for (g, &count) in self.hist.iter().enumerate() {
            cum += count;
            if cum >= rank {
                return Some(g);
            }
        }
        Some(self.hist.len() - 1)
    }
}

/// A finished campaign: everything the `killi-vmin/v1` report carries.
#[derive(Debug, Clone)]
pub struct VminReport {
    /// Root seed the fleet derives from.
    pub root_seed: u64,
    /// Dies evaluated.
    pub dies: usize,
    /// Lines per die.
    pub lines: usize,
    /// Usable-line fraction target.
    pub target: f64,
    /// Canonical fault-model label.
    pub fault_model: String,
    /// Whether the model is voltage-nested (bisection-eligible).
    pub nested: bool,
    /// Ascending voltage grid.
    pub vdds: Vec<f64>,
    /// Per-scheme binning aggregates, in config scheme order.
    pub schemes: Vec<SchemeBin>,
    /// Search-probe accounting summed over every die. Deliberately the
    /// only observability in the report: store traffic counters differ
    /// between the streamed and direct paths, and the report must not.
    pub stats: SearchStats,
}

/// A campaign result: the deterministic report plus the full (path-
/// dependent) observability counters, kept apart so the report bytes
/// stay identical with and without a die store.
#[derive(Debug, Clone)]
pub struct CampaignOutput {
    /// The deterministic `killi-vmin/v1` report.
    pub report: VminReport,
    /// Full campaign counters (includes store traffic).
    pub metrics: VminMetrics,
}

fn json_f64(x: f64) -> String {
    // Shortest round-trip float formatting, matching the sweep report.
    format!("{x:?}")
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

fn json_opt_f64(x: Option<f64>) -> String {
    match x {
        Some(v) => json_f64(v),
        None => "null".to_string(),
    }
}

impl VminReport {
    /// Serializes the report as `killi-vmin/v1` JSON. Byte-determinism
    /// is part of the schema contract (golden-tested at 1/2/8 threads).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"killi-vmin/v1\",\n");
        out.push_str(&format!("  \"root_seed\": {},\n", self.root_seed));
        out.push_str(&format!("  \"dies\": {},\n", self.dies));
        out.push_str(&format!("  \"lines\": {},\n", self.lines));
        out.push_str(&format!("  \"target\": {},\n", json_f64(self.target)));
        out.push_str(&format!(
            "  \"fault_model\": {},\n",
            json_str(&self.fault_model)
        ));
        out.push_str(&format!("  \"nested_search\": {},\n", self.nested));
        out.push_str(&format!(
            "  \"vdds\": [{}],\n",
            self.vdds
                .iter()
                .map(|&v| json_f64(v))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"schemes\": [\n");
        for (i, bin) in self.schemes.iter().enumerate() {
            let n = bin.vmin.n();
            out.push_str("    {\n");
            out.push_str(&format!("      \"scheme\": {},\n", json_str(&bin.scheme)));
            out.push_str(&format!(
                "      \"vmin\": {{\"n\": {}, \"failed\": {}, \"mean\": {}, \"stddev\": {}, \
                 \"min\": {}, \"max\": {}, \"quantiles\": ",
                n,
                bin.failed,
                json_opt_f64((n > 0).then(|| bin.vmin.mean())),
                json_opt_f64((n > 0).then(|| bin.vmin.stddev())),
                json_opt_f64(bin.min_idx.map(|g| self.vdds[g])),
                json_opt_f64(bin.max_idx.map(|g| self.vdds[g])),
            ));
            if n > 0 {
                let q = |q: f64| json_opt_f64(bin.quantile_idx(q).map(|g| self.vdds[g]));
                out.push_str(&format!(
                    "{{\"p10\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
                    q(0.10),
                    q(0.50),
                    q(0.90),
                    q(0.99)
                ));
            } else {
                out.push_str("null");
            }
            out.push_str("},\n");
            out.push_str("      \"cdf\": [\n");
            let mut cum = 0u64;
            for (g, &count) in bin.hist.iter().enumerate() {
                cum += count;
                out.push_str(&format!(
                    "        {{\"vdd\": {}, \"dies_at_or_below\": {}, \"yield\": {}}}{}\n",
                    json_f64(self.vdds[g]),
                    cum,
                    json_f64(cum as f64 / self.dies as f64),
                    if g + 1 < bin.hist.len() { "," } else { "" }
                ));
            }
            out.push_str("      ],\n");
            out.push_str("      \"capacity\": [\n");
            for (g, acc) in bin.capacity.iter().enumerate() {
                out.push_str(&format!(
                    "        {{\"vdd\": {}, \"mean\": {}, \"stddev\": {}}}{}\n",
                    json_f64(self.vdds[g]),
                    json_f64(acc.mean()),
                    json_f64(acc.stddev()),
                    if g + 1 < bin.capacity.len() { "," } else { "" }
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.schemes.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"search\": {\n");
        out.push_str(&format!("    \"dies_evaluated\": {},\n", self.dies));
        out.push_str(&format!("    \"voltage_probes\": {},\n", self.stats.probes));
        out.push_str(&format!(
            "    \"binary_searches\": {},\n",
            self.stats.binary_searches
        ));
        out.push_str(&format!(
            "    \"linear_scans\": {}\n",
            self.stats.linear_scans
        ));
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

/// Synthesizes one die's grid-folded sparse record: the fault model's
/// stream of grid masks ([`killi_fault::FaultModel::grid_masks`]),
/// collected. A campaign without a die store evaluates that stream line by
/// line instead and never holds a record.
///
/// # Panics
///
/// Panics if `lines` exceeds `u32::MAX`, the record's line index.
pub fn synth_record(model: &dyn FaultModel, lines: usize, grid: &[f64], seed: u64) -> DieRecord {
    let mut entries = Vec::new();
    model.grid_masks(
        0..lines,
        &normalized(grid),
        FreqGhz::PEAK,
        seed,
        &mut |line, faults| entries.extend(faults.iter().map(|&f| die_entry(line, f))),
    );
    DieRecord { seed, entries }
}

fn normalized(grid: &[f64]) -> Vec<NormVdd> {
    grid.iter().map(|&v| NormVdd(v)).collect()
}

/// A streamed cell as a record entry, stuck at its polarity at its
/// lowest faulty grid index.
fn die_entry(line: LineId, fault: GridFault) -> DieEntry {
    DieEntry {
        line: u32::try_from(line).expect("a die has at most u32::MAX lines"),
        cell: fault.cell,
        stuck: fault.at(fault.mask.trailing_zeros()).stuck,
        mask: fault.mask,
    }
}

/// A record entry as the stream carries it: stuck at its one polarity at
/// every faulty grid index.
fn grid_fault(entry: &DieEntry) -> GridFault {
    GridFault {
        cell: entry.cell,
        mask: entry.mask,
        stuck: if entry.stuck { entry.mask } else { 0 },
    }
}

/// One die's integer outcome: everything the sequential aggregation
/// phase needs, with no floats computed in parallel.
#[derive(Debug, Clone, PartialEq)]
struct DieOutcome {
    /// Per-scheme Vmin grid index (`-1` = fails the whole grid).
    vmin_idx: Vec<i32>,
    /// `usable[rule][g]` admissible-line counts per distinct rule.
    usable: Vec<Vec<u32>>,
    stats: SearchStats,
}

/// The shared, per-campaign inputs of [`evaluate_die`] (everything but
/// the die itself).
struct EvalContext<'a> {
    lines: usize,
    grid_len: usize,
    rules: &'a [LineRule],
    rule_of: &'a [usize],
    min_usable: u32,
    nested: bool,
    mode: SearchMode,
}

/// Reduces one die record to usable-line tables and per-scheme Vmin
/// indices. `Err` carries an entry whose grid mask is not a prefix of
/// ones although the model is voltage-nested.
fn evaluate_die(rec: &DieRecord, ctx: &EvalContext<'_>) -> Result<DieOutcome, DieEntry> {
    let mut usable = UsableLines::new(ctx);
    let mut faults = Vec::new();
    for line in rec.entries.chunk_by(|a, b| a.line == b.line) {
        faults.clear();
        faults.extend(line.iter().map(grid_fault));
        usable.add_line(line[0].line as LineId, &faults)?;
    }
    Ok(usable.finish())
}

/// [`evaluate_die`] of [`synth_record`]'s record, without the record: the
/// model's stream hands each faulty line to the accumulator as it is
/// drawn, so only one line of the die is ever held.
fn stream_die(
    model: &dyn FaultModel,
    grid: &[NormVdd],
    seed: u64,
    ctx: &EvalContext<'_>,
) -> Result<DieOutcome, DieEntry> {
    let mut usable = UsableLines::new(ctx);
    let mut added = Ok(());
    let mut add = |line, faults: &[GridFault]| {
        if added.is_ok() && !faults.is_empty() {
            added = usable.add_line(line, faults);
        }
    };
    model.grid_masks(0..ctx.lines, grid, FreqGhz::PEAK, seed, &mut add);
    added?;
    Ok(usable.finish())
}

/// Whether `mask` is a prefix of ones inside a grid of `grid_len` points:
/// the cell is faulty at grid indices `0..=top` and at no other.
fn is_prefix(mask: u64, grid_len: usize) -> bool {
    let ones = mask.trailing_ones() as usize;
    ones > 0 && ones <= grid_len && mask & mask.wrapping_add(1) == 0
}

/// One die's `usable[rule][g]`, accumulated line by line.
///
/// A line whose masks are all prefixes of ones has each fault at grid
/// indices `0..=top`. Each rule bins the line at its lowest admitted grid
/// index ([`LineRule::lowest_admitted`]), and the line is usable from
/// that index up, so these lines add a prefix sum over the bins, in
/// O(faults + lines x rules + grid). Any other line is evaluated at every
/// grid point ([`admit_per_point`]) when the model is not nested, and is
/// an error when it is. Lines never added are fault-free.
struct UsableLines<'a> {
    ctx: &'a EvalContext<'a>,
    /// `lowest[r][g]`: prefix lines rule `r` first admits at grid index
    /// `g` (`g == grid_len`: never on the grid).
    lowest: Vec<Vec<u32>>,
    /// The counts of the lines evaluated point by point; [`Self::finish`]
    /// adds the binned and the fault-free lines.
    usable: Vec<Vec<u32>>,
    faulty_lines: u32,
    /// A prefix line's cells bucketed by top index, then flattened
    /// highest first into `faults`.
    by_top: Vec<Vec<u16>>,
    faults: Vec<(u16, usize)>,
    scratch: Vec<CellFault>,
}

impl<'a> UsableLines<'a> {
    fn new(ctx: &'a EvalContext<'a>) -> Self {
        UsableLines {
            ctx,
            lowest: vec![vec![0; ctx.grid_len + 1]; ctx.rules.len()],
            usable: vec![vec![0; ctx.grid_len]; ctx.rules.len()],
            faulty_lines: 0,
            by_top: vec![Vec::new(); ctx.grid_len],
            faults: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Adds the faulty line `line`, its faults in cell order. `Err`
    /// carries the line's first fault whose mask is not a prefix of ones
    /// when the model is voltage-nested.
    fn add_line(&mut self, line: LineId, faults: &[GridFault]) -> Result<(), DieEntry> {
        let ctx = self.ctx;
        self.faulty_lines += 1;
        if let Some(&f) = faults.iter().find(|f| !is_prefix(f.mask, ctx.grid_len)) {
            if ctx.nested {
                return Err(die_entry(line, f));
            }
            admit_per_point(faults, ctx, &mut self.usable, &mut self.scratch);
            return Ok(());
        }
        for f in faults {
            self.by_top[f.mask.trailing_ones() as usize - 1].push(f.cell);
        }
        self.faults.clear();
        for (top, cells) in self.by_top.iter_mut().enumerate().rev() {
            self.faults.extend(cells.drain(..).map(|cell| (cell, top)));
        }
        for (bins, rule) in self.lowest.iter_mut().zip(ctx.rules) {
            bins[rule.lowest_admitted(&self.faults)] += 1;
        }
        Ok(())
    }

    /// The finished tables and each scheme's Vmin grid index over them.
    fn finish(mut self) -> DieOutcome {
        let ctx = self.ctx;
        let fault_free = ctx.lines as u32 - self.faulty_lines;
        for (table, bins) in self.usable.iter_mut().zip(&self.lowest) {
            let mut admitted = fault_free;
            for (count, &n) in table.iter_mut().zip(bins) {
                admitted += n;
                *count += admitted;
            }
        }
        let usable = self.usable;
        let mut stats = SearchStats::default();
        let vmin_idx = ctx
            .rule_of
            .iter()
            .map(|&r| {
                grid_vmin(
                    ctx.grid_len,
                    ctx.nested,
                    ctx.mode,
                    |g| usable[r][g] >= ctx.min_usable,
                    &mut stats,
                )
                .map_or(-1, |g| g as i32)
            })
            .collect();
        DieOutcome {
            vmin_idx,
            usable,
            stats,
        }
    }
}

/// Counts one line's faults into `usable[rule][g]` at every grid point
/// where the rule admits the faults present there: the definition the
/// prefix-sum binning of [`UsableLines`] must match.
fn admit_per_point(
    line: &[GridFault],
    ctx: &EvalContext<'_>,
    usable: &mut [Vec<u32>],
    scratch: &mut Vec<CellFault>,
) {
    let union = line.iter().fold(0u64, |m, f| m | f.mask);
    for g in 0..ctx.grid_len {
        let bit = 1u64 << g;
        scratch.clear();
        if union & bit != 0 {
            scratch.extend(
                line.iter()
                    .filter(|f| f.mask & bit != 0)
                    .map(|f| f.at(g as u32)),
            );
        }
        for (table, rule) in usable.iter_mut().zip(ctx.rules) {
            if scratch.is_empty() || rule.admits(scratch) {
                table[g] += 1;
            }
        }
    }
}

fn check_store_meta(meta: &StoreMeta, c: &VminConfig, fm_label: &str) -> Result<(), CampaignError> {
    let mismatch = |reason: String| Err(CampaignError::StoreMismatch { reason });
    if meta.root_seed != c.root_seed {
        return mismatch(format!(
            "store root_seed {} != campaign {}",
            meta.root_seed, c.root_seed
        ));
    }
    if meta.lines as usize != c.lines {
        return mismatch(format!(
            "store lines {} != campaign {}",
            meta.lines, c.lines
        ));
    }
    if meta.grid.len() != c.vdds.len()
        || meta
            .grid
            .iter()
            .zip(c.vdds.iter())
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return mismatch(format!(
            "store grid {:?} != campaign {:?}",
            meta.grid, c.vdds
        ));
    }
    if meta.fault_model != fm_label {
        return mismatch(format!(
            "store fault model '{}' != campaign '{}'",
            meta.fault_model, fm_label
        ));
    }
    if (meta.dies as usize) < c.dies {
        return mismatch(format!(
            "store holds {} dies, campaign needs {} (die seeds depend only on index, so a larger store serves a smaller campaign — not vice versa)",
            meta.dies, c.dies
        ));
    }
    Ok(())
}

/// Checks die 0 of a reused store against the model's draw of die 0. The
/// header keys a store on seed, lines, grid and fault-model label, and a
/// change to how a model draws its faults moves none of them.
fn check_store_draw(
    rec: &DieRecord,
    model: &dyn FaultModel,
    c: &VminConfig,
) -> Result<(), CampaignError> {
    let seed = derive_seed(c.root_seed, "die", &[0]);
    if *rec == synth_record(model, c.lines, &c.vdds, seed) {
        return Ok(());
    }
    Err(CampaignError::StoreMismatch {
        reason: "die 0 is not the fault model's draw of it (the store was written by \
                 another version of the model); delete the store to rebuild it"
            .to_string(),
    })
}

fn build_store(
    path: &Path,
    c: &VminConfig,
    model: &dyn FaultModel,
    fm_label: &str,
    metrics: &mut VminMetrics,
) -> Result<(), CampaignError> {
    let meta = StoreMeta {
        root_seed: c.root_seed,
        lines: c.lines as u32,
        grid: c.vdds.clone(),
        fault_model: fm_label.to_string(),
        dies: c.dies as u32,
    };
    let mut writer = DieStoreWriter::create(path, meta)?;
    let threads = c.threads.max(1);
    let chunk = (threads * 4).max(1);
    let mut start = 0;
    while start < c.dies {
        let end = (start + chunk).min(c.dies);
        let seeds: Vec<u64> = (start..end)
            .map(|i| derive_seed(c.root_seed, "die", &[i as u64]))
            .collect();
        let records = par_map(threads, &seeds, None, |_, &seed| {
            synth_record(model, c.lines, &c.vdds, seed)
        });
        for rec in &records {
            writer.append(rec)?;
        }
        start = end;
    }
    let bytes = writer.finish()?;
    metrics.add(VminCounter::StoreDiesWritten, c.dies as u64);
    metrics.add(VminCounter::StoreBytesWritten, bytes);
    Ok(())
}

/// Runs a validated campaign: streams every die from the fault model (or
/// reads it from the die store), searches its per-scheme Vmin, and folds
/// the fleet into a [`VminReport`]. Without a store, each worker holds one
/// line of one die; with one, a chunk of records (a few per worker
/// thread) is read at a time. Peak memory never grows with the fleet. A
/// store that already existed must match the config and hold the model's
/// draw of die 0, or the campaign is a [`CampaignError::StoreMismatch`].
pub fn run_campaign(config: &ValidatedVminConfig) -> Result<CampaignOutput, CampaignError> {
    let c = config.config();
    let model = build_fault_model(&c.fault_model).expect("config validated");
    let fm_label = fault_model_label(&c.fault_model).expect("config validated");
    let nested = model.voltage_nested();
    let labels: Vec<String> = c
        .schemes
        .iter()
        .map(|s| scheme_label(s).expect("config validated"))
        .collect();
    // Distinct admissibility rules: schemes sharing a rule (killi and
    // its policy ablations, flair and secded, ...) share one usable-line
    // table per die.
    let mut rules: Vec<LineRule> = Vec::new();
    let rule_of: Vec<usize> = c
        .schemes
        .iter()
        .map(|s| {
            let rule = scheme_admissibility(s).expect("config validated");
            rules.iter().position(|&r| r == rule).unwrap_or_else(|| {
                rules.push(rule);
                rules.len() - 1
            })
        })
        .collect();

    let grid_len = c.vdds.len();
    let min_usable = (c.target * c.lines as f64).ceil() as u32;
    let mut metrics = VminMetrics::new();
    metrics.add(VminCounter::CampaignsStarted, 1);

    let reused = c.store.as_ref().is_some_and(|path| path.exists());
    let mut reader = match &c.store {
        Some(path) => {
            if !reused {
                build_store(path, c, model.as_ref(), &fm_label, &mut metrics)?;
            }
            let reader = DieStoreReader::open(path)?;
            check_store_meta(reader.meta(), c, &fm_label)?;
            metrics.add(VminCounter::StoresOpened, 1);
            Some(reader)
        }
        None => None,
    };

    let mut bins: Vec<SchemeBin> = labels
        .iter()
        .map(|label| SchemeBin {
            scheme: label.clone(),
            hist: vec![0; grid_len],
            failed: 0,
            vmin: Accumulator::default(),
            min_idx: None,
            max_idx: None,
            capacity: vec![Accumulator::default(); grid_len],
        })
        .collect();
    let mut stats = SearchStats::default();

    let ctx = EvalContext {
        lines: c.lines,
        grid_len,
        rules: &rules,
        rule_of: &rule_of,
        min_usable,
        nested,
        mode: c.search,
    };
    let grid = normalized(&c.vdds);
    let threads = c.threads.max(1);
    let chunk = (threads * 4).max(1);
    let progress = (c.progress_every > 0).then(|| Progress::new("vmin", c.dies, c.progress_every));
    let mut start = 0;
    while start < c.dies {
        let end = (start + chunk).min(c.dies);
        let outcomes: Vec<Result<DieOutcome, DieEntry>> = match reader.as_mut() {
            Some(r) => {
                // Sequential chunk read (the store is a single file),
                // parallel evaluation.
                let mut records = Vec::with_capacity(end - start);
                for i in start..end {
                    records.push(r.read_die(i)?);
                    metrics.add(VminCounter::StoreDiesRead, 1);
                }
                let outcomes = par_map(threads, &records, progress.as_ref(), |_, rec| {
                    evaluate_die(rec, &ctx)
                });
                // A record that breaks nesting is named below; otherwise a
                // reused store must hold the model's draw of die 0.
                if start == 0 && reused && outcomes.iter().all(Result::is_ok) {
                    check_store_draw(&records[0], model.as_ref(), c)?;
                }
                outcomes
            }
            None => {
                // Direct path: each die is streamed line by line into its
                // evaluation, so no die record is ever resident.
                let seeds: Vec<u64> = (start..end)
                    .map(|i| derive_seed(c.root_seed, "die", &[i as u64]))
                    .collect();
                par_map(threads, &seeds, progress.as_ref(), |_, &seed| {
                    stream_die(model.as_ref(), &grid, seed, &ctx)
                })
            }
        };
        // Sequential fold in die order: the only place floats happen.
        for (offset, outcome) in outcomes.into_iter().enumerate() {
            let outcome = outcome.map_err(|entry| CampaignError::NotNested {
                die: start + offset,
                entry,
            })?;
            metrics.add(VminCounter::DiesEvaluated, 1);
            metrics.add(VminCounter::VoltageProbes, outcome.stats.probes);
            metrics.add(VminCounter::BinarySearches, outcome.stats.binary_searches);
            metrics.add(VminCounter::LinearScans, outcome.stats.linear_scans);
            stats.merge(&outcome.stats);
            for (s, bin) in bins.iter_mut().enumerate() {
                let idx = outcome.vmin_idx[s];
                if idx < 0 {
                    bin.failed += 1;
                } else {
                    let g = idx as usize;
                    bin.hist[g] += 1;
                    bin.vmin.add(c.vdds[g]);
                    bin.min_idx = Some(bin.min_idx.map_or(g, |m| m.min(g)));
                    bin.max_idx = Some(bin.max_idx.map_or(g, |m| m.max(g)));
                }
                let table = &outcome.usable[rule_of[s]];
                for (g, acc) in bin.capacity.iter_mut().enumerate() {
                    acc.add(table[g] as f64 / c.lines as f64);
                }
            }
        }
        start = end;
    }
    metrics.add(VminCounter::CampaignsCompleted, 1);

    Ok(CampaignOutput {
        report: VminReport {
            root_seed: c.root_seed,
            dies: c.dies,
            lines: c.lines,
            target: c.target,
            fault_model: fm_label,
            nested,
            vdds: c.vdds.clone(),
            schemes: bins,
            stats,
        },
        metrics,
    })
}

/// Validates a `killi-vmin/v1` report: schema tag, required fields, and
/// internal consistency (histogram totals, CDF monotonicity, grid
/// alignment). The checker behind `killi vmin --check`.
pub fn check_report(text: &str) -> Result<(), String> {
    let v = killi_obs::json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = v
        .get("schema")
        .and_then(|s| s.as_str())
        .ok_or("missing schema tag")?;
    if schema != "killi-vmin/v1" {
        return Err(format!("schema is '{schema}', expected 'killi-vmin/v1'"));
    }
    let dies = v
        .get("dies")
        .and_then(|d| d.as_u64())
        .ok_or("missing dies")?;
    if dies == 0 {
        return Err("dies must be positive".to_string());
    }
    v.get("root_seed")
        .and_then(|s| s.as_u64())
        .ok_or("missing root_seed")?;
    v.get("lines")
        .and_then(|l| l.as_u64())
        .ok_or("missing lines")?;
    let target = v
        .get("target")
        .and_then(|t| t.as_f64())
        .ok_or("missing target")?;
    if !(target > 0.0 && target <= 1.0) {
        return Err(format!("target {target} outside (0, 1]"));
    }
    v.get("fault_model")
        .and_then(|f| f.as_str())
        .ok_or("missing fault_model")?;
    v.get("nested_search")
        .and_then(|n| n.as_bool())
        .ok_or("missing nested_search")?;
    let vdds = v
        .get("vdds")
        .and_then(|g| g.as_array())
        .ok_or("missing vdds array")?;
    let grid: Vec<f64> = vdds
        .iter()
        .map(|p| p.as_f64().ok_or("non-numeric grid point"))
        .collect::<Result<_, _>>()?;
    validate_voltage_grid(&grid)?;
    if grid.windows(2).any(|w| w[0] > w[1]) {
        return Err("report grid must be ascending".to_string());
    }
    let schemes = v
        .get("schemes")
        .and_then(|s| s.as_array())
        .ok_or("missing schemes array")?;
    if schemes.is_empty() {
        return Err("report has no schemes".to_string());
    }
    for (i, s) in schemes.iter().enumerate() {
        let label = s
            .get("scheme")
            .and_then(|l| l.as_str())
            .ok_or(format!("scheme {i}: missing label"))?;
        let vmin = s
            .get("vmin")
            .ok_or(format!("scheme '{label}': missing vmin block"))?;
        let n = vmin
            .get("n")
            .and_then(|n| n.as_u64())
            .ok_or(format!("scheme '{label}': missing vmin.n"))?;
        let failed = vmin
            .get("failed")
            .and_then(|f| f.as_u64())
            .ok_or(format!("scheme '{label}': missing vmin.failed"))?;
        if n + failed != dies {
            return Err(format!(
                "scheme '{label}': n {n} + failed {failed} != dies {dies}"
            ));
        }
        let cdf = s
            .get("cdf")
            .and_then(|c| c.as_array())
            .ok_or(format!("scheme '{label}': missing cdf"))?;
        if cdf.len() != grid.len() {
            return Err(format!(
                "scheme '{label}': cdf has {} rows, grid has {} points",
                cdf.len(),
                grid.len()
            ));
        }
        let mut prev = 0u64;
        for (g, row) in cdf.iter().enumerate() {
            let at = row
                .get("dies_at_or_below")
                .and_then(|d| d.as_u64())
                .ok_or(format!("scheme '{label}': cdf row {g} malformed"))?;
            if at < prev {
                return Err(format!("scheme '{label}': cdf not monotone at row {g}"));
            }
            let y = row
                .get("yield")
                .and_then(|y| y.as_f64())
                .ok_or(format!("scheme '{label}': cdf row {g} missing yield"))?;
            if !(0.0..=1.0).contains(&y) {
                return Err(format!("scheme '{label}': yield {y} outside [0, 1]"));
            }
            prev = at;
        }
        if prev != n {
            return Err(format!(
                "scheme '{label}': cdf total {prev} != passing dies {n}"
            ));
        }
        let capacity = s
            .get("capacity")
            .and_then(|c| c.as_array())
            .ok_or(format!("scheme '{label}': missing capacity"))?;
        if capacity.len() != grid.len() {
            return Err(format!(
                "scheme '{label}': capacity has {} rows, grid has {} points",
                capacity.len(),
                grid.len()
            ));
        }
    }
    let search = v.get("search").ok_or("missing search block")?;
    for key in [
        "dies_evaluated",
        "voltage_probes",
        "binary_searches",
        "linear_scans",
    ] {
        search
            .get(key)
            .and_then(|k| k.as_u64())
            .ok_or(format!("search block missing {key}"))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use killi_fault::model::fold_grid_maps;

    use super::*;

    fn small_config() -> VminConfig {
        VminConfig {
            root_seed: 7,
            dies: 12,
            lines: 256,
            target: 0.99,
            vdds: vec![0.55, 0.6, 0.65, 0.7],
            schemes: vec![
                SchemeConfig::parse("killi:ratio=64").unwrap(),
                SchemeConfig::new("flair"),
            ],
            threads: 2,
            ..VminConfig::default()
        }
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = small_config();
        c.vdds = vec![0.6];
        assert!(matches!(c.validated(), Err(VminConfigError::Grid { .. })));
        let mut c = small_config();
        c.schemes.clear();
        assert!(matches!(c.validated(), Err(VminConfigError::Config { .. })));
        let mut c = small_config();
        c.dies = 0;
        assert!(matches!(c.validated(), Err(VminConfigError::Config { .. })));
        // Die records index lines with a u32: a larger die would wrap.
        if let Some(lines) = (u32::MAX as usize).checked_add(1) {
            let mut c = small_config();
            c.lines = lines;
            assert!(matches!(c.validated(), Err(VminConfigError::Config { .. })));
        }
        let mut c = small_config();
        c.target = 0.0;
        assert!(matches!(c.validated(), Err(VminConfigError::Config { .. })));
        let mut c = small_config();
        c.schemes[0] = SchemeConfig::new("no-such-scheme");
        assert!(matches!(c.validated(), Err(VminConfigError::Scheme(_))));
    }

    #[test]
    fn validation_rejects_two_schemes_under_one_label() {
        // A parameter the label does not show, or a repeated scheme,
        // would bin two configs under one name.
        for (spellings, label, second) in [
            (
                "killi:ratio=16,killi:ratio=16,ecc_ways=8",
                "killi-1:16",
                "killi:ratio=16,ecc_ways=8",
            ),
            ("ms-ecc,flair,ms-ecc:m=16,t=2", "ms-ecc", "ms-ecc:m=16,t=2"),
            // A list of defaults is compared by name.
            ("flair,dected,flair", "flair", "flair"),
        ] {
            let mut c = small_config();
            c.schemes = SchemeConfig::parse_list(spellings).unwrap();
            match c.validated() {
                Err(VminConfigError::Scheme(BuildError::DuplicateLabel {
                    label: got,
                    second: got_second,
                    ..
                })) => {
                    assert_eq!(got, label, "{spellings}");
                    assert_eq!(got_second, second, "{spellings}");
                }
                other => panic!("{spellings}: {other:?}"),
            }
        }
    }

    #[test]
    fn validation_rejects_codes_and_models_that_cannot_be_built() {
        // An OLSC code its build rejects has no binning rule either: the
        // campaign must not bin dies for it.
        for spelling in [
            "ms-ecc:m=0",
            "ms-ecc:t=3",
            "ms-ecc:m=65536",
            "ms-ecc:m=4294967296",
        ] {
            let mut c = small_config();
            c.schemes[1] = SchemeConfig::parse(spelling).unwrap();
            match c.validated() {
                Err(VminConfigError::Scheme(BuildError::Build { name, .. })) => {
                    assert_eq!(name, "ms-ecc", "{spelling}");
                }
                other => panic!("{spelling}: {other:?}"),
            }
        }
        // A non-finite fault-model parameter is a typed error, not a panic.
        let mut c = small_config();
        c.fault_model = FaultModelConfig::parse("table:sigma=nan").unwrap();
        let err = c.validated().unwrap_err();
        assert!(
            matches!(
                err,
                VminConfigError::FaultModel(FaultModelBuildError::InvalidParam { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn validation_canonicalizes_grid_ascending() {
        let mut c = small_config();
        c.vdds = vec![0.7, 0.65, 0.6, 0.55];
        let v = c.validated().unwrap();
        assert_eq!(v.config().vdds, vec![0.55, 0.6, 0.65, 0.7]);
    }

    #[test]
    fn canonical_json_ignores_execution_knobs() {
        let base = small_config().validated().unwrap().canonical_json();
        let mut retuned = small_config();
        retuned.threads = 9;
        retuned.progress_every = 100;
        retuned.store = Some(PathBuf::from("/tmp/somewhere.kds"));
        retuned.search = SearchMode::Exhaustive;
        assert_eq!(retuned.validated().unwrap().canonical_json(), base);
        let mut reseeded = small_config();
        reseeded.root_seed ^= 1;
        assert_ne!(reseeded.validated().unwrap().canonical_json(), base);
    }

    #[test]
    fn report_is_thread_count_invariant() {
        let mut texts = Vec::new();
        for threads in [1, 3] {
            let mut c = small_config();
            c.threads = threads;
            let out = run_campaign(&c.validated().unwrap()).unwrap();
            texts.push(out.report.to_json());
        }
        assert_eq!(texts[0], texts[1]);
        check_report(&texts[0]).expect("report validates");
    }

    #[test]
    fn store_and_direct_paths_produce_identical_reports() {
        let dir = std::env::temp_dir().join("killi-vmin-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("campaign-{}.kds", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let direct = run_campaign(&small_config().validated().unwrap()).unwrap();
        let mut c = small_config();
        c.store = Some(path.clone());
        let stored = run_campaign(&c.clone().validated().unwrap()).unwrap();
        assert_eq!(direct.report.to_json(), stored.report.to_json());
        // Second run reuses the store rather than rebuilding.
        let reused = run_campaign(&c.validated().unwrap()).unwrap();
        assert_eq!(direct.report.to_json(), reused.report.to_json());

        // Every counter, exactly: each run bisects the same 12 dies once
        // per distinct rule (killi's and flair's), in 3 probes each, and
        // the store runs add the store's traffic.
        use killi_obs::VminCounter::*;
        let bytes = std::fs::metadata(&path).unwrap().len();
        for (name, out, opened, written, bytes_written, read) in [
            ("direct", &direct, 0, 0, 0, 0),
            ("building the store", &stored, 1, 12, bytes, 12),
            ("reusing the store", &reused, 1, 0, 0, 12),
        ] {
            let expected = [
                (CampaignsStarted, 1),
                (CampaignsCompleted, 1),
                (DiesEvaluated, 12),
                (VoltageProbes, 72),
                (BinarySearches, 24),
                (LinearScans, 0),
                (StoresOpened, opened),
                (StoreDiesWritten, written),
                (StoreBytesWritten, bytes_written),
                (StoreDiesRead, read),
            ];
            assert_eq!(expected.len(), killi_obs::VminCounter::ALL.len());
            for (counter, n) in expected {
                assert_eq!(out.metrics.get(counter), n, "{name}: {}", counter.name());
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_store_whose_build_failed_is_rebuilt_on_the_next_run() {
        let dir = std::env::temp_dir().join("killi-vmin-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("failed-build-{}.kds", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // A build that stopped after its first die, as an error return
        // or an unwinding panic in `build_store` stops it: the writer is
        // dropped unfinished.
        let c = small_config();
        let model = build_fault_model(&c.fault_model).unwrap();
        let meta = StoreMeta {
            root_seed: c.root_seed,
            lines: c.lines as u32,
            grid: c.vdds.clone(),
            fault_model: fault_model_label(&c.fault_model).unwrap(),
            dies: c.dies as u32,
        };
        let mut writer = DieStoreWriter::create(&path, meta).unwrap();
        let seed = derive_seed(c.root_seed, "die", &[0]);
        writer
            .append(&synth_record(model.as_ref(), c.lines, &c.vdds, seed))
            .unwrap();
        drop(writer);
        assert!(!path.exists(), "an unfinished build must leave no store");

        let direct = run_campaign(&small_config().validated().unwrap()).unwrap();
        let mut stored = small_config();
        stored.store = Some(path.clone());
        let out = run_campaign(&stored.validated().unwrap()).unwrap();
        assert!(
            out.metrics.get(killi_obs::VminCounter::StoreBytesWritten) > 0,
            "the next run must build the store"
        );
        assert_eq!(out.report.to_json(), direct.report.to_json());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mismatched_store_is_rejected() {
        let dir = std::env::temp_dir().join("killi-vmin-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("mismatch-{}.kds", std::process::id()));
        let _ = std::fs::remove_file(&path);

        let mut c = small_config();
        c.store = Some(path.clone());
        run_campaign(&c.validated().unwrap()).unwrap();
        // Same store, different seed: refuse rather than silently reuse.
        let mut other = small_config();
        other.root_seed ^= 0xdead;
        other.store = Some(path.clone());
        assert!(matches!(
            run_campaign(&other.validated().unwrap()),
            Err(CampaignError::StoreMismatch { .. })
        ));
        // A larger store serves a smaller campaign.
        let mut fewer = small_config();
        fewer.dies = 5;
        fewer.store = Some(path.clone());
        let out = run_campaign(&fewer.validated().unwrap()).unwrap();
        assert_eq!(out.report.dies, 5);
        std::fs::remove_file(&path).unwrap();
    }

    /// `usable[rule][g]` with every faulty line evaluated point by point: the
    /// oracle of [`UsableLines`].
    fn usable_per_grid(rec: &DieRecord, ctx: &EvalContext<'_>) -> Vec<Vec<u32>> {
        let mut usable = vec![vec![0u32; ctx.grid_len]; ctx.rules.len()];
        let mut faulty_lines = 0u32;
        let mut scratch = Vec::new();
        for line in rec.entries.chunk_by(|a, b| a.line == b.line) {
            faulty_lines += 1;
            let faults: Vec<GridFault> = line.iter().map(grid_fault).collect();
            admit_per_point(&faults, ctx, &mut usable, &mut scratch);
        }
        let fault_free = ctx.lines as u32 - faulty_lines;
        for table in usable.iter_mut() {
            for count in table.iter_mut() {
                *count += fault_free;
            }
        }
        usable
    }

    #[test]
    fn a_store_of_another_draw_is_rejected() {
        let dir = std::env::temp_dir().join("killi-vmin-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("other-draw-{}.kds", std::process::id()));
        let _ = std::fs::remove_file(&path);

        // The campaign's header, and under each die's seed the faults of
        // another seed: what a store written by another version of the
        // model holds.
        let c = small_config();
        let model = build_fault_model(&c.fault_model).unwrap();
        let meta = StoreMeta {
            root_seed: c.root_seed,
            lines: c.lines as u32,
            grid: c.vdds.clone(),
            fault_model: fault_model_label(&c.fault_model).unwrap(),
            dies: c.dies as u32,
        };
        let mut writer = DieStoreWriter::create(&path, meta).unwrap();
        for i in 0..c.dies {
            let seed = derive_seed(c.root_seed, "die", &[i as u64]);
            let other = synth_record(model.as_ref(), c.lines, &c.vdds, !seed);
            writer.append(&DieRecord { seed, ..other }).unwrap();
        }
        writer.finish().unwrap();

        let mut stored = small_config();
        stored.store = Some(path.clone());
        let err = run_campaign(&stored.validated().unwrap()).unwrap_err();
        assert!(matches!(err, CampaignError::StoreMismatch { .. }), "{err}");
        assert!(
            err.to_string().contains("delete the store to rebuild it"),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// Every distinct admissibility rule of the registered schemes.
    fn registered_rules() -> Vec<LineRule> {
        let mut rules = Vec::new();
        for d in default_registry().descriptors() {
            let rule = scheme_admissibility(&SchemeConfig::new(d.name)).unwrap();
            if !rules.contains(&rule) {
                rules.push(rule);
            }
        }
        rules
    }

    #[test]
    fn nested_evaluation_equals_per_grid_evaluation() {
        let rules = registered_rules();
        let rule_of: Vec<usize> = (0..rules.len()).collect();
        killi_check::check("nested_evaluation_equals_per_grid_evaluation", |g| {
            let lines = g.usize_in(1, 48);
            let grid_len = g.usize_in(2, 65);
            // A nested context sees only prefix masks; any other mixes in
            // lines with arbitrary masks.
            let nested = g.bool();
            let grid_mask = u64::MAX >> (64 - grid_len);
            let mut entries = Vec::new();
            for line in 0..lines as u32 {
                // Mostly sparse lines, some with more than 500 faults.
                let faults = match g.usize_in(0, 8) {
                    0 => g.usize_in(501, 561),
                    1..=3 => 0,
                    _ => g.usize_in(1, 12),
                };
                let prefix_line = nested || g.bool();
                for cell in g.distinct(560, faults, faults) {
                    let mask = if prefix_line || g.usize_in(0, 4) == 0 {
                        u64::MAX >> (63 - g.usize_in(0, grid_len))
                    } else {
                        (g.u64() & grid_mask).max(1)
                    };
                    entries.push(DieEntry {
                        line,
                        cell: cell as u16,
                        stuck: g.bool(),
                        mask,
                    });
                }
            }
            let rec = DieRecord { seed: 0, entries };
            let ctx = EvalContext {
                lines,
                grid_len,
                rules: &rules,
                rule_of: &rule_of,
                min_usable: 1,
                nested,
                mode: SearchMode::Auto,
            };
            assert_eq!(
                evaluate_die(&rec, &ctx).unwrap().usable,
                usable_per_grid(&rec, &ctx)
            );
        });
    }

    #[test]
    fn synth_record_equals_the_fold_of_per_grid_maps_for_every_model() {
        let grid: Vec<NormVdd> = DEFAULT_GRID.iter().map(|&v| NormVdd(v)).collect();
        let spellings = default_fault_registry()
            .names()
            .into_iter()
            .map(String::from)
            .chain(
                [
                    "transient:mode=burst,rate=0.05",
                    "transient:mode=msb,rate=0.01",
                ]
                .map(String::from),
            );
        for spelling in spellings {
            let model = build_fault_model(&FaultModelConfig::parse(&spelling).unwrap()).unwrap();
            for seed in [1, 2024] {
                let rec = synth_record(model.as_ref(), 256, &DEFAULT_GRID, seed);
                let mut folded = Vec::new();
                fold_grid_maps(
                    256,
                    &grid,
                    |vdd| model.map_reference(256, vdd, FreqGhz::PEAK, seed),
                    &mut |line, faults| folded.extend(faults.iter().map(|&f| die_entry(line, f))),
                );
                assert!(!folded.is_empty(), "{spelling}: no faults on the grid");
                assert_eq!(rec.entries, folded, "{spelling}, seed {seed}");
            }
        }
    }

    /// A registered fault model with random parameters.
    fn random_fault_model(g: &mut killi_check::Gen) -> FaultModelConfig {
        let spelling = match g.usize_in(0, 4) {
            0 => "stuck-at".to_string(),
            1 => {
                let corr = g.f64_in(0.0, 1.0);
                let col_corr = g.f64_in(0.0, 0.999 * (1.0 - corr * corr).sqrt());
                format!(
                    "clustered:rows={},corr={corr},col_cells={},col_corr={col_corr}",
                    g.usize_in(1, 17),
                    g.pick(&[1, 7, 64, 560])
                )
            }
            2 => {
                let mode = *g.pick(&["random", "burst", "msb"]);
                let rate = g.f64_in(0.0, if mode == "burst" { 0.5 } else { 0.05 });
                format!(
                    "transient:mode={mode},rate={rate},burst_len={}",
                    g.usize_in(1, 17)
                )
            }
            _ => format!("table:sigma={}", g.f64_in(0.0, 3.0)),
        };
        FaultModelConfig::parse(&spelling).unwrap()
    }

    #[test]
    fn a_streamed_die_evaluates_as_its_record() {
        let rules = registered_rules();
        let rule_of: Vec<usize> = (0..rules.len()).collect();
        killi_check::check("a_streamed_die_evaluates_as_its_record", |g| {
            let config = random_fault_model(g);
            let model = build_fault_model(&config).unwrap();
            let lines = g.usize_in(1, 97);
            let points = g.usize_in(2, 17);
            let mut vdds: Vec<f64> = g
                .distinct(100, points, points)
                .into_iter()
                .map(|i| 0.5 + 0.0025 * i as f64)
                .collect();
            // A descending grid turns a nested model's prefixes into
            // suffixes, which both paths must reject with the same entry.
            if g.usize_in(0, 4) == 0 {
                vdds.reverse();
            }
            let seed = g.u64();
            let ctx = EvalContext {
                lines,
                grid_len: points,
                rules: &rules,
                rule_of: &rule_of,
                min_usable: (g.f64_in(0.5, 1.0) * lines as f64).ceil() as u32,
                nested: model.voltage_nested(),
                mode: *g.pick(&[SearchMode::Auto, SearchMode::Exhaustive]),
            };
            let rec = synth_record(model.as_ref(), lines, &vdds, seed);
            let streamed = stream_die(model.as_ref(), &normalized(&vdds), seed, &ctx);
            assert_eq!(streamed, evaluate_die(&rec, &ctx), "{config}, {vdds:?}");
            if let Ok(outcome) = streamed {
                assert_eq!(outcome.usable, usable_per_grid(&rec, &ctx), "{config}");
            }
        });
    }

    #[test]
    fn nested_evaluation_rejects_a_mask_that_is_not_a_prefix() {
        let rules = registered_rules();
        let ctx = EvalContext {
            lines: 4,
            grid_len: 3,
            rules: &rules,
            rule_of: &[0],
            min_usable: 4,
            nested: true,
            mode: SearchMode::Auto,
        };
        let entry = |cell, mask| DieEntry {
            line: 1,
            cell,
            stuck: true,
            mask,
        };
        for mask in [0b011, 0b111] {
            let rec = DieRecord {
                seed: 0,
                entries: vec![entry(7, mask)],
            };
            assert!(evaluate_die(&rec, &ctx).is_ok(), "{mask:#b}");
        }
        for mask in [0b101, 0b010, 0b110] {
            let rec = DieRecord {
                seed: 0,
                entries: vec![entry(3, 0b001), entry(7, mask)],
            };
            assert_eq!(evaluate_die(&rec, &ctx).unwrap_err(), entry(7, mask));
        }
    }

    #[test]
    fn checker_rejects_tampered_reports() {
        let out = run_campaign(&small_config().validated().unwrap()).unwrap();
        let good = out.report.to_json();
        check_report(&good).unwrap();
        assert!(check_report("{}").is_err());
        assert!(check_report(&good.replace("killi-vmin/v1", "killi-vmin/v9")).is_err());
        assert!(check_report("not json").is_err());
        // Break the n + failed == dies invariant.
        let tampered = good.replace("\"dies\": 12", "\"dies\": 13");
        assert!(check_report(&tampered).is_err());
    }
}
