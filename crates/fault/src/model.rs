//! Data-driven fault models: declarative [`FaultModelConfig`]s resolved
//! against a [`FaultModelRegistry`] of [`FaultModelDescriptor`]s.
//!
//! The registry is the single place fault-model names, parameters and
//! defaults live. Everything that draws faults goes through
//! [`FaultModelRegistry::build`], so a new fault distribution —
//! row/column clustering, transient overlays, measured CDFs — is one
//! descriptor, zero new plumbing.
//!
//! The configs, errors, parameter resolution and canonical spellings are
//! the shared [`killi_obs::registry`] machinery that the scheme registry
//! also instantiates; this module adds the fault-model descriptors, their
//! nesting contract and the `table` model's canonicalization hook.
//! Configs have three interchangeable spellings:
//!
//! - CLI shorthand: `clustered:rows=4,corr=0.8` ([`FaultModelConfig::parse`])
//! - JSON (via the in-repo `killi-obs` parser):
//!   `{"name": "clustered", "params": {"rows": 4, "corr": 0.8}}`
//! - programmatic: [`FaultModelConfig::new`] + [`FaultModelConfig::with`]
//!
//! A built model is a [`FaultModel`]: a *pure function* from
//! `(lines, vdd, freq, die_seed)` to a [`FaultMap`]. Determinism is part
//! of the trait contract; voltage nesting (faults at a higher voltage are
//! a subset of faults at any lower voltage — the property the Vmin search
//! relies on) is part of the contract *unless* the model explicitly
//! declares otherwise via [`FaultModel::voltage_nested`], as the
//! `transient` model does.
//!
//! Registered models:
//!
//! | name       | distribution                                            | nested |
//! |------------|---------------------------------------------------------|--------|
//! | `stuck-at` | the paper's 14nm FinFET lognormal-mixture stuck-at model | yes |
//! | `clustered`| MoRS-style row/column-correlated stuck-at faults         | yes |
//! | `transient`| random/burst/MSB-biased flips over a stuck-at base       | no  |
//! | `table`    | stuck-at drawn from a measured CDF (inline or from file) | yes |
//!
//! A model implements one draw, [`FaultModel::grid_masks`]: it streams a
//! range of a die's lines over a voltage grid, one call per line with the
//! line's faulty cells in one slice, each cell carrying its grid mask and
//! its polarity at every grid point. A line is hashed once at the grid's
//! lowest voltage. `stuck-at` and `table` keep one variation draw per
//! line, `clustered` one per (line, column group), and `transient` merges
//! each grid point's overlay flips into its stuck-at base. The overlay
//! hashes no cell it does not flip: its random and MSB flips are drawn as
//! geometric gaps over the eligible cells, one hash per flip, and each
//! flip is stuck at 0 or 1 with probability ½. Everything else
//! reads the stream a line at a time: [`FaultModel::grid_maps`] pushes
//! each line's faults into one map per grid point, [`FaultModel::map`]
//! is its one-point case, a sweep draws each die's line ranges into maps
//! on several threads and joins them ([`FaultMap::join`]), and a Vmin
//! campaign adds each faulty line to its usable-line tables.
//! [`FaultModel::die`] only wraps [`FaultModel::map`] for the repository
//! benchmark.
//!
//! Each model keeps one construction written apart from the stream,
//! [`FaultModel::map_reference`]: [`FaultMap::dense_reference`] for
//! `stuck-at`, `table` and `transient`'s base, and a per-cell pass over
//! the column groups for `clustered`. It is the oracle of the model's
//! maps, and [`fold_grid_maps`] of its maps the oracle of the model's
//! stream.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

use killi_obs::params::ParamValue;
use killi_obs::registry::{self, DefaultName, Descriptor, Kind, ParamSpec, ResolvedParams};

use crate::cell_model::{CellFailureModel, FailureKind, FreqGhz, NormVdd};
use crate::map::{layout, line_z, CellFault, CellGroups, FaultMap, GridFault, LineId, LineMasks};
use crate::rng::{
    for_each_failing_cell, hash3, hash3_base, hash3_with_base, splitmix64, standard_normal,
    to_unit, unit_threshold,
};

/// A deterministic fault-population generator.
///
/// Implementations must be pure: the same `(lines, vdd, freq, seed)`
/// always yields the same map, across thread counts and job orders. The
/// `seed` is the *die* seed — Monte-Carlo callers derive it as
/// `derive_seed(root_seed, "die", &[replicate])`, so one replicate is one
/// physical die across every operating point of a sweep grid.
///
/// A model draws its die one way, as a stream of grid masks
/// ([`Self::grid_masks`]); every map, a sweep's maps at each grid point
/// and every campaign die come from it. [`Self::map_reference`] is the
/// model's one construction written apart from that draw, the oracle the
/// draw is tested against.
pub trait FaultModel: fmt::Debug + Send + Sync {
    /// The fault map of one die at one operating point: its
    /// [`Self::grid_maps`] over the one-point grid `[vdd]`.
    fn map(&self, lines: usize, vdd: NormVdd, freq: FreqGhz, seed: u64) -> FaultMap {
        let mut maps = self.grid_maps(0..lines, &[vdd], freq, seed);
        maps.pop().expect("one map per grid point")
    }

    /// The maps of the lines `lines` of the die `(freq, seed)` at every
    /// point of `grid` (at most 64), in grid order, read from one
    /// [`Self::grid_masks`] stream: a cell goes into point `g`'s map when
    /// bit `g` of its mask is set, stuck at bit `g` of its polarity. Map
    /// line `i` is die line `lines.start + i`; [`FaultMap::join`] of the
    /// maps of contiguous ranges is the map of their union.
    fn grid_maps(
        &self,
        lines: Range<LineId>,
        grid: &[NormVdd],
        freq: FreqGhz,
        seed: u64,
    ) -> Vec<FaultMap> {
        let mut maps: Vec<FaultMap> = grid
            .iter()
            .map(|_| FaultMap::with_lines(lines.len()))
            .collect();
        self.grid_masks(lines, grid, freq, seed, &mut |_, faults| {
            for &fault in faults {
                let mut mask = fault.mask;
                while mask != 0 {
                    let g = mask.trailing_zeros();
                    maps[g as usize].push(fault.at(g));
                    mask &= mask - 1;
                }
            }
            for map in &mut maps {
                map.end_line();
            }
        });
        maps
    }

    /// The independently-written reference construction of [`Self::map`],
    /// used by the perf-equivalence oracle. Must equal it bit for bit.
    fn map_reference(&self, lines: usize, vdd: NormVdd, freq: FreqGhz, seed: u64) -> FaultMap;

    /// The die `(lines, freq, seed)` at every voltage `>= cap_vdd`, each
    /// map drawn by [`Self::map`] when it is asked for. Only the
    /// repository benchmark reads it; it is always `Some`, and the
    /// `Option` stays because the benchmark matches on it.
    fn die(
        &self,
        lines: usize,
        cap_vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
    ) -> Option<Box<dyn ReplicateDie + '_>> {
        Some(Box::new(LazyDie {
            model: self,
            lines,
            cap_vdd,
            freq,
            seed,
        }))
    }

    /// Calls `emit(line, faults)` exactly once per line of the range
    /// `lines` of the die `(freq, seed)`, in line order. `faults` holds the
    /// line's cells that are faulty at some point of `grid` (at most 64
    /// points), in strictly ascending cell order, and is empty for a line
    /// faulty at no point. Bit `g` of a fault's `mask` is set iff the cell
    /// is in `map(.., grid[g], freq, seed)`, and bit `g` of its `stuck` is
    /// its polarity there. A voltage-nested model over an ascending grid
    /// therefore emits prefixes of ones.
    ///
    /// A line's draw depends only on `(seed, line)` and die-wide values,
    /// so a range streams the same lines as that range of the whole die.
    /// A model holds one line at a time, and the slice lives only for the
    /// call; [`fold_grid_maps`] of its reference maps is the oracle.
    fn grid_masks(
        &self,
        lines: Range<LineId>,
        grid: &[NormVdd],
        freq: FreqGhz,
        seed: u64,
        emit: &mut dyn FnMut(LineId, &[GridFault]),
    );

    /// Whether fault sets are nested across voltage: every fault at a
    /// higher voltage also present at any lower voltage. Models that
    /// violate this (transient overlays redrawn per operating point) must
    /// return `false`; the Vmin search is only meaningful when `true`.
    fn voltage_nested(&self) -> bool;

    /// The per-cell failure-probability curve behind the model, when it
    /// has one (analytic coverage/Vmin tooling needs it).
    fn cell_model(&self) -> Option<&CellFailureModel> {
        None
    }
}

/// One die of a [`FaultModel`] at every voltage at or above a cap
/// ([`FaultModel::die`]).
pub trait ReplicateDie: Send + Sync {
    /// The die's fault map at `vdd` (which must be `>=` the cap), equal
    /// to the model's [`FaultModel::map_reference`] there.
    fn map_at(&self, vdd: NormVdd) -> FaultMap;
}

/// The [`ReplicateDie`] of [`FaultModel::die`]: the model's maps of one
/// die, drawn when asked for.
struct LazyDie<'a, M: ?Sized> {
    model: &'a M,
    lines: usize,
    cap_vdd: NormVdd,
    freq: FreqGhz,
    seed: u64,
}

impl<M: FaultModel + ?Sized> ReplicateDie for LazyDie<'_, M> {
    fn map_at(&self, vdd: NormVdd) -> FaultMap {
        assert!(
            vdd.0 >= self.cap_vdd.0,
            "requested vdd {} below the die's cap {}",
            vdd.0,
            self.cap_vdd.0
        );
        self.model.map(self.lines, vdd, self.freq, self.seed)
    }
}

/// Folds the maps `map_at(vdd)` of a die's `lines` lines over `grid` into
/// grid masks and emits them line by line as [`FaultModel::grid_masks`]
/// does: the oracle every model's stream is tested against. It holds one
/// map per grid point.
pub fn fold_grid_maps(
    lines: usize,
    grid: &[NormVdd],
    map_at: impl Fn(NormVdd) -> FaultMap,
    emit: &mut dyn FnMut(LineId, &[GridFault]),
) {
    let maps: Vec<FaultMap> = grid.iter().map(|&vdd| map_at(vdd)).collect();
    for line in 0..lines {
        let mut cells: BTreeMap<u16, GridFault> = BTreeMap::new();
        for (g, map) in maps.iter().enumerate() {
            for &fault in map.line(line) {
                let cell = cells.entry(fault.cell).or_insert(GridFault {
                    cell: fault.cell,
                    mask: 0,
                    stuck: 0,
                });
                cell.mask |= 1 << g;
                cell.stuck |= u64::from(fault.stuck) << g;
            }
        }
        emit(line, &cells.into_values().collect::<Vec<_>>());
    }
}

/// The fault-model registry's [`Kind`]: its messages name a `fault model`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultModelKind;

impl Kind for FaultModelKind {
    const NOUN: &'static str = "fault model";
    const MODIFIER: &'static str = "fault-model";
    const BUILD_PREFIX: &'static str = "fault model ";
}

impl DefaultName for FaultModelKind {
    /// The paper's model: `stuck-at`.
    const DEFAULT_NAME: &'static str = STUCK_AT;
}

/// A declarative fault-model instantiation: a registered name plus
/// parameter overrides (unset parameters take the descriptor's defaults).
/// The default is `stuck-at` with no overrides.
pub type FaultModelConfig = registry::Config<FaultModelKind>;

/// Why a [`FaultModelConfig`] could not be parsed, resolved or built.
pub type BuildError = registry::BuildError<FaultModelKind>;

/// The ordered collection of registered fault models.
pub type FaultModelRegistry = registry::Registry<FaultModelDescriptor>;

/// Signature of a descriptor's build function: resolved parameters yield
/// a live model or a typed error.
pub type BuildModelFn = fn(&ResolvedParams) -> Result<Arc<dyn FaultModel>, BuildError>;

/// Signature of a descriptor's canonicalization hook (see
/// [`FaultModelDescriptor::canonicalize`]).
pub type CanonicalizeFn = fn(&mut ResolvedParams) -> Result<(), BuildError>;

/// A registered fault model: name, documentation, parameter schema, and
/// the label/build functions. The nesting contract is the built model's
/// ([`FaultModel::voltage_nested`]).
#[derive(Debug)]
pub struct FaultModelDescriptor {
    /// Registered name (what `--fault-model` selects).
    pub name: &'static str,
    /// One-line description for `killi fault-models`.
    pub doc: &'static str,
    /// Declared parameters with defaults.
    pub params: Vec<ParamSpec>,
    /// Report label for a resolved config (the string stamped into
    /// reports and obs events, e.g. `clustered:rows=4,corr=0.8`).
    pub label: fn(&ResolvedParams) -> String,
    /// Builds the model.
    pub build: BuildModelFn,
    /// Optional canonicalization hook, run after resolution (see
    /// [`Descriptor::canonicalize`]).
    pub canonicalize: Option<CanonicalizeFn>,
}

impl Descriptor for FaultModelDescriptor {
    type Kind = FaultModelKind;
    type Ctx = ();
    type Output = Arc<dyn FaultModel>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn label(&self, params: &ResolvedParams) -> String {
        (self.label)(params)
    }

    fn build(&self, params: &ResolvedParams, _: &()) -> Result<Arc<dyn FaultModel>, BuildError> {
        (self.build)(params)
    }

    fn canonicalize(&self, params: &mut ResolvedParams) -> Result<(), BuildError> {
        self.canonicalize.map_or(Ok(()), |hook| hook(params))
    }
}

/// Name of the default (paper) model.
pub const STUCK_AT: &str = "stuck-at";

/// The process-wide registry with every built-in model registered.
pub fn default_registry() -> &'static FaultModelRegistry {
    static REGISTRY: OnceLock<FaultModelRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut registry = FaultModelRegistry::new();
        register_builtin_models(&mut registry);
        registry
    })
}

// ---------------------------------------------------------------------------
// stuck-at / table: parametric lognormal-mixture stuck-at faults
// ---------------------------------------------------------------------------

/// The parametric stuck-at model behind both `stuck-at` (FinFET-14
/// calibration) and `table` (measured-CDF calibration): persistent faults
/// drawn cell-wise from a [`CellFailureModel`], voltage-nested by
/// construction (each cell's uniform threshold is frozen; voltage only
/// moves the probability it is compared against).
#[derive(Debug, Clone)]
struct ParametricStuckAt {
    cell: CellFailureModel,
}

impl FaultModel for ParametricStuckAt {
    fn map_reference(&self, lines: usize, vdd: NormVdd, freq: FreqGhz, seed: u64) -> FaultMap {
        FaultMap::dense_reference(lines, &self.cell, vdd, freq, seed)
    }

    fn grid_masks(
        &self,
        lines: Range<LineId>,
        grid: &[NormVdd],
        freq: FreqGhz,
        seed: u64,
        emit: &mut dyn FnMut(LineId, &[GridFault]),
    ) {
        let groups = CellGroups::Line;
        let mut masks = LineMasks::new(&self.cell, &groups, grid, freq, seed, line_z);
        for line in lines {
            emit(line, masks.line(line));
        }
    }

    fn voltage_nested(&self) -> bool {
        true
    }

    fn cell_model(&self) -> Option<&CellFailureModel> {
        Some(&self.cell)
    }
}

// ---------------------------------------------------------------------------
// clustered: MoRS-style row/column-correlated stuck-at faults
// ---------------------------------------------------------------------------

/// Row/column-clustered stuck-at faults: each line's effective variation
/// draw mixes a per-row component (shared by `rows` consecutive lines), a
/// per-column-group component (shared die-wide by cells in the same group
/// of `col_cells` cells), and an independent per-line residual, with the
/// weights chosen so the marginal per-cell distribution matches the base
/// model. All draws are frozen across voltage, so nesting holds exactly
/// as for the plain stuck-at model.
#[derive(Debug, Clone)]
struct ClusteredModel {
    cell: CellFailureModel,
    rows: u64,
    corr: f64,
    col_cells: u64,
    col_corr: f64,
}

impl ClusteredModel {
    /// The frozen per-line and per-column-group normal draws.
    fn z_line(&self, seed: u64, line: u64) -> f64 {
        let row_seed = splitmix64(seed ^ 0x524F_575A_5EED_0001); // "ROWZ" domain
        let z_row = standard_normal(hash3(row_seed, line / self.rows.max(1), 0xF00D));
        let base = hash3_base(seed, line);
        let z_resid = standard_normal(hash3_with_base(base, 0xF00D));
        let resid_weight = (1.0 - self.corr * self.corr - self.col_corr * self.col_corr)
            .max(0.0)
            .sqrt();
        self.corr * z_row + resid_weight * z_resid
    }

    /// The shared column-group draw for cell-group `group`.
    fn z_col(&self, seed: u64, group: u64) -> f64 {
        let col_seed = splitmix64(seed ^ 0xC01_5EED_0000_0002); // "COL" domain
        standard_normal(hash3(col_seed, group, 0xF00D))
    }

    /// The die's column groups of `col_cells` cells, each adding
    /// `col_corr` times its die-wide draw to a line's draw.
    fn column_groups(&self, seed: u64) -> CellGroups {
        let groups = usize::from(layout::CELLS_PER_LINE).div_ceil(self.col_cells.max(1) as usize);
        CellGroups::Columns {
            // col_cells is validated to be in [1, CELLS_PER_LINE].
            cells: self.col_cells as u16,
            offsets: (0..groups)
                .map(|g| self.col_corr * self.z_col(seed, g as u64))
                .collect(),
        }
    }
}

impl FaultModel for ClusteredModel {
    /// The one construction of a clustered map that does not go through
    /// the stream: every cell hashed against its group's threshold at
    /// `vdd`, with no candidate filter.
    fn map_reference(&self, lines: usize, vdd: NormVdd, freq: FreqGhz, seed: u64) -> FaultMap {
        let median = self.cell.p_cell_median(vdd, freq, FailureKind::Combined);
        // Column-group draws are shared die-wide; hoist them.
        let groups = self.column_groups(seed);
        let mut map = FaultMap::with_lines(lines);
        let mut per_cell = [0; layout::CELLS_PER_LINE as usize];
        for line in 0..lines {
            let base = hash3_base(seed, line as u64);
            let z_line = self.z_line(seed, line as u64);
            let thresholds = groups.thresholds(&mut per_cell, |g| {
                unit_threshold(self.cell.line_p(median, groups.z(z_line, g)))
            });
            for_each_failing_cell(base, 0..layout::CELLS_PER_LINE, thresholds, |cell, h| {
                map.push(CellFault::drawn(cell, h))
            });
            map.end_line();
        }
        map
    }

    fn grid_masks(
        &self,
        lines: Range<LineId>,
        grid: &[NormVdd],
        freq: FreqGhz,
        seed: u64,
        emit: &mut dyn FnMut(LineId, &[GridFault]),
    ) {
        let groups = self.column_groups(seed);
        let mut masks = LineMasks::new(&self.cell, &groups, grid, freq, seed, |line, _| {
            self.z_line(seed, line as u64)
        });
        for line in lines {
            emit(line, masks.line(line));
        }
    }

    fn voltage_nested(&self) -> bool {
        true
    }

    fn cell_model(&self) -> Option<&CellFailureModel> {
        Some(&self.cell)
    }
}

// ---------------------------------------------------------------------------
// transient: random/burst/MSB-biased flips over a persistent base
// ---------------------------------------------------------------------------

/// How the transient overlay picks cells. Every flip is stuck at 0 or 1
/// with probability ½ each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransientMode {
    /// Each cell flips independently with probability `rate`.
    Random,
    /// Each line suffers a burst of `burst_len` adjacent flipped cells
    /// with probability `rate`.
    Burst,
    /// Like `Random`, but only the most significant bit of each byte
    /// (cells 7, 15, ..., 559) is eligible, at `min(8 * rate, 1)` to keep
    /// the overall density.
    Msb,
}

/// The hash domain of the overlay's geometric gaps: draw `k` of a line
/// is `hash3_with_base(tbase, GAP_DOMAIN + k)`, apart from every burst
/// draw (`0xB0B5`, `0x57A7` and `0x1_0000 + cell`).
const GAP_DOMAIN: u64 = 0x2_0000;

/// Transient flips layered on a persistent stuck-at base. The overlay is
/// re-drawn per operating point (the physical upsets a die sees during a
/// run at 0.6 V are not a subset of those at 0.55 V), so the model
/// *declares itself non-nested*; the persistent substrate underneath
/// still nests.
#[derive(Debug, Clone)]
struct TransientModel {
    cell: CellFailureModel,
    mode: TransientMode,
    rate: f64,
    burst_len: u64,
}

impl TransientModel {
    /// The overlay's hash domain at one operating point. It folds the
    /// voltage in: transient populations at different operating points
    /// are independent draws.
    fn overlay_seed(seed: u64, vdd: NormVdd) -> u64 {
        splitmix64(seed ^ 0x7EAB_5EED ^ vdd.0.to_bits())
    }

    /// Replaces `out` with the transient flips of `line` under overlay
    /// seed `tseed`, in cell order.
    ///
    /// `random` and `msb` flips are drawn by geometric gaps over the
    /// eligible cells, so the draw costs one hash per flip, not one per
    /// cell. Draw `k` is `h = hash3_with_base(tbase, GAP_DOMAIN + k)`:
    /// with `u = ((h >> 11) + 1) * 2^-53` in `(0, 1]`, the next
    /// `floor(ln u / ln(1 - p))` eligible cells keep their value and the
    /// one after them flips, stuck at `h`'s bit 0. Each eligible cell
    /// therefore flips with probability `p`, independently of the others.
    /// `p = 1` flips every eligible cell, and its draws take no logarithm.
    fn flips(&self, tseed: u64, line: LineId, out: &mut Vec<CellFault>) {
        out.clear();
        let tbase = hash3_base(tseed, line as u64);
        let (first, step, p) = match self.mode {
            TransientMode::Random => (0, 1, self.rate),
            TransientMode::Msb => (7, 8, (self.rate * 8.0).min(1.0)),
            TransientMode::Burst => {
                let cells = u64::from(layout::CELLS_PER_LINE);
                if to_unit(hash3_with_base(tbase, 0xB0B5)) < self.rate {
                    let start = hash3_with_base(tbase, 0x57A7) % cells;
                    for i in 0..self.burst_len {
                        let cell = ((start + i) % cells) as u16;
                        let h = hash3_with_base(tbase, 0x1_0000 + u64::from(cell));
                        out.push(CellFault {
                            cell,
                            stuck: h & (1 << 63) != 0,
                        });
                    }
                    out.sort_unstable_by_key(|f| f.cell);
                }
                return;
            }
        };
        if p == 0.0 {
            return;
        }
        let eligible = u64::from((layout::CELLS_PER_LINE - first).div_ceil(step));
        let ln_keep = (-p).ln_1p();
        // The eligible index of the next cell that may flip. Each draw
        // flips one cell at or after it, or ends the line.
        let mut next = 0;
        for k in 0..eligible {
            let h = hash3_with_base(tbase, GAP_DOMAIN + k);
            if p < 1.0 {
                let u = ((h >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64);
                let gap = (u.ln() / ln_keep).floor();
                if gap >= (eligible - next) as f64 {
                    break;
                }
                next += gap as u64;
            }
            out.push(CellFault {
                cell: first + next as u16 * step,
                stuck: h & 1 != 0,
            });
            next += 1;
        }
    }

    /// Merges the transient overlay of the die `seed` at `vdd` into its
    /// persistent base map. The base wins on conflicts (a stuck cell
    /// cannot also be flipped); the result stays sorted by cell index
    /// like every generated map.
    fn overlay(&self, base: &FaultMap, vdd: NormVdd, seed: u64) -> FaultMap {
        let tseed = Self::overlay_seed(seed, vdd);
        let mut flips = Vec::new();
        let mut map = FaultMap::with_lines(base.lines());
        for line in 0..base.lines() {
            self.flips(tseed, line, &mut flips);
            let mut rest = flips.iter().peekable();
            for &fault in base.line(line) {
                while let Some(&flip) = rest.next_if(|flip| flip.cell < fault.cell) {
                    map.push(flip);
                }
                rest.next_if(|flip| flip.cell == fault.cell);
                map.push(fault);
            }
            for &flip in rest {
                map.push(flip);
            }
            map.end_line();
        }
        map
    }
}

impl FaultModel for TransientModel {
    fn map_reference(&self, lines: usize, vdd: NormVdd, freq: FreqGhz, seed: u64) -> FaultMap {
        let base = FaultMap::dense_reference(lines, &self.cell, vdd, freq, seed);
        self.overlay(&base, vdd, seed)
    }

    /// The stuck-at base's masks, line by line, each line merged with its
    /// flips at every grid point into one reused buffer. A line with no
    /// flip at any point is the base's slice as it is.
    fn grid_masks(
        &self,
        lines: Range<LineId>,
        grid: &[NormVdd],
        freq: FreqGhz,
        seed: u64,
        emit: &mut dyn FnMut(LineId, &[GridFault]),
    ) {
        let tseeds: Vec<u64> = grid
            .iter()
            .map(|&vdd| Self::overlay_seed(seed, vdd))
            .collect();
        let groups = CellGroups::Line;
        let mut masks = LineMasks::new(&self.cell, &groups, grid, freq, seed, line_z);
        let mut point_flips = Vec::new();
        // The line's flips at every grid point, one entry per cell.
        let mut flips: Vec<GridFault> = Vec::new();
        let mut merged = Vec::new();
        for line in lines {
            flips.clear();
            for (g, &tseed) in tseeds.iter().enumerate() {
                self.flips(tseed, line, &mut point_flips);
                flips.extend(point_flips.iter().map(|f| GridFault {
                    cell: f.cell,
                    mask: 1 << g,
                    stuck: u64::from(f.stuck) << g,
                }));
            }
            let base = masks.line(line);
            if flips.is_empty() {
                emit(line, base);
                continue;
            }
            flips.sort_unstable_by_key(|f| f.cell);
            flips.dedup_by(|next, kept| {
                let same = next.cell == kept.cell;
                if same {
                    kept.mask |= next.mask;
                    kept.stuck |= next.stuck;
                }
                same
            });
            merged.clear();
            let mut rest = flips.iter().peekable();
            for &fault in base {
                while let Some(&flip) = rest.next_if(|flip| flip.cell < fault.cell) {
                    merged.push(flip);
                }
                // The persistent fault wins at the points where it is
                // faulty, the flips at the others.
                merged.push(match rest.next_if(|flip| flip.cell == fault.cell) {
                    Some(flip) => GridFault {
                        cell: fault.cell,
                        mask: fault.mask | flip.mask,
                        stuck: fault.stuck | (flip.stuck & !fault.mask),
                    },
                    None => fault,
                });
            }
            merged.extend(rest);
            emit(line, &merged);
        }
    }

    fn voltage_nested(&self) -> bool {
        false
    }

    fn cell_model(&self) -> Option<&CellFailureModel> {
        Some(&self.cell)
    }
}

// ---------------------------------------------------------------------------
// Registration
// ---------------------------------------------------------------------------

/// Spells anchors canonically: `vdd@log10_p` pairs joined by `;` (chosen
/// so the string survives the CLI shorthand's `,`/`:`/`=` splitting).
fn anchors_to_str(anchors: &[(f64, f64)]) -> String {
    anchors
        .iter()
        .map(|(v, l)| format!("{v:?}@{l:?}"))
        .collect::<Vec<_>>()
        .join(";")
}

/// Parses an anchors string (see [`anchors_to_str`]).
fn anchors_from_str(text: &str) -> Result<Vec<(f64, f64)>, String> {
    let mut anchors = Vec::new();
    for pair in text.split(';') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let Some((v, l)) = pair.split_once('@') else {
            return Err(format!("anchor `{pair}` is not vdd@log10_p"));
        };
        let v: f64 = v
            .trim()
            .parse()
            .map_err(|_| format!("anchor voltage `{v}` is not a number"))?;
        let l: f64 = l
            .trim()
            .parse()
            .map_err(|_| format!("anchor log10_p `{l}` is not a number"))?;
        anchors.push((v, l));
    }
    Ok(anchors)
}

/// Loads anchors from a parameter file: one `vdd,log10_p` pair per line,
/// `#` comments and blank lines ignored (the measured-CDF flow).
fn anchors_from_file(path: &str) -> Result<Vec<(f64, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut anchors = Vec::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((v, l)) = line.split_once(',') else {
            return Err(format!("{path}:{}: expected `vdd,log10_p`", number + 1));
        };
        let v: f64 = v
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{}: voltage `{v}` is not a number", number + 1))?;
        let l: f64 = l
            .trim()
            .parse()
            .map_err(|_| format!("{path}:{}: log10_p `{l}` is not a number", number + 1))?;
        anchors.push((v, l));
    }
    Ok(anchors)
}

/// Resolves the `table` model's anchors: the file takes precedence over
/// the inline string when set.
fn table_anchors(p: &ResolvedParams) -> Result<Vec<(f64, f64)>, BuildError> {
    let model_err = |reason: String| BuildError::Build {
        name: p.name().to_string(),
        reason,
    };
    let file = p.str("file");
    let anchors = if file.is_empty() {
        anchors_from_str(p.str("anchors")).map_err(model_err)?
    } else {
        anchors_from_file(file).map_err(model_err)?
    };
    if anchors
        .iter()
        .any(|&(v, l)| !(v.is_finite() && l.is_finite()))
    {
        return Err(model_err("anchor values must be finite".to_string()));
    }
    if anchors.len() < 2 {
        return Err(model_err("need at least two anchors".to_string()));
    }
    if !anchors.windows(2).all(|w| w[0].0 < w[1].0) {
        return Err(model_err(
            "anchor voltages must be strictly increasing".to_string(),
        ));
    }
    // The model declares itself voltage-nested: a cell failing at one
    // voltage must fail at every lower one, so p may not rise with vdd.
    if let Some(w) = anchors.windows(2).find(|w| w[0].1 < w[1].1) {
        return Err(model_err(format!(
            "anchor log10_p must not increase with voltage ({:?}@{:?} then {:?}@{:?})",
            w[0].0, w[0].1, w[1].0, w[1].1
        )));
    }
    Ok(anchors)
}

/// The FinFET-14 anchors spelled as the `table` model's default, so the
/// default `table` config builds (and approximates `stuck-at`).
fn finfet14_anchors_str() -> String {
    anchors_to_str(CellFailureModel::finfet14().anchors())
}

/// Registers the built-in fault models (see the module docs).
pub fn register_builtin_models(registry: &mut FaultModelRegistry) {
    registry.register(FaultModelDescriptor {
        name: STUCK_AT,
        doc: "the paper's persistent stuck-at model (14nm FinFET calibration, §3)",
        params: Vec::new(),
        label: |_| STUCK_AT.to_string(),
        build: |_| {
            Ok(Arc::new(ParametricStuckAt {
                cell: CellFailureModel::finfet14(),
            }))
        },
        canonicalize: None,
    });

    registry.register(FaultModelDescriptor {
        name: "clustered",
        doc: "MoRS-style row/column-correlated persistent stuck-at faults",
        params: vec![
            ParamSpec {
                name: "rows",
                doc: "lines per physical row (share one row-variation draw)",
                default: ParamValue::U64(4),
            },
            ParamSpec {
                name: "corr",
                doc: "row-correlation weight in [0, 1]",
                default: ParamValue::F64(0.8),
            },
            ParamSpec {
                name: "col_cells",
                doc: "cells per column group (share one column draw die-wide)",
                default: ParamValue::U64(64),
            },
            ParamSpec {
                name: "col_corr",
                doc: "column-correlation weight in [0, 1]",
                default: ParamValue::F64(0.0),
            },
        ],
        label: |p| {
            let mut label = format!("clustered:rows={},corr={:?}", p.u64("rows"), p.f64("corr"));
            if p.f64("col_corr") > 0.0 {
                label.push_str(&format!(
                    ",col_cells={},col_corr={:?}",
                    p.u64("col_cells"),
                    p.f64("col_corr")
                ));
            }
            label
        },
        build: |p| {
            let invalid = |param: &str, reason: &str| BuildError::InvalidParam {
                name: p.name().to_string(),
                param: param.to_string(),
                reason: reason.to_string(),
            };
            let (rows, corr) = (p.u64("rows"), p.f64("corr"));
            let (col_cells, col_corr) = (p.u64("col_cells"), p.f64("col_corr"));
            if rows == 0 {
                return Err(invalid("rows", "must be positive"));
            }
            if !(1..=u64::from(layout::CELLS_PER_LINE)).contains(&col_cells) {
                return Err(invalid("col_cells", "must be in [1, 560]"));
            }
            if !(0.0..=1.0).contains(&corr) {
                return Err(invalid("corr", "must be in [0, 1]"));
            }
            if !(0.0..=1.0).contains(&col_corr) {
                return Err(invalid("col_corr", "must be in [0, 1]"));
            }
            if corr * corr + col_corr * col_corr > 1.0 {
                return Err(invalid(
                    "corr",
                    "corr^2 + col_corr^2 must not exceed 1 (variance budget)",
                ));
            }
            Ok(Arc::new(ClusteredModel {
                cell: CellFailureModel::finfet14(),
                rows,
                corr,
                col_cells,
                col_corr,
            }))
        },
        canonicalize: None,
    });

    registry.register(FaultModelDescriptor {
        name: "transient",
        doc: "random/burst/MSB-biased transient flips over a stuck-at base (NOT voltage-nested)",
        params: vec![
            ParamSpec {
                name: "mode",
                doc: "overlay shape: random | burst | msb",
                default: ParamValue::Str("random".to_string()),
            },
            ParamSpec {
                name: "rate",
                doc: "per-cell (random/msb) or per-line (burst) flip probability",
                default: ParamValue::F64(1e-4),
            },
            ParamSpec {
                name: "burst_len",
                doc: "adjacent cells flipped per burst event (burst mode)",
                default: ParamValue::U64(4),
            },
        ],
        label: |p| {
            let mut label = format!("transient:mode={},rate={:?}", p.str("mode"), p.f64("rate"));
            if p.str("mode") == "burst" {
                label.push_str(&format!(",burst_len={}", p.u64("burst_len")));
            }
            label
        },
        build: |p| {
            let invalid = |param: &str, reason: String| BuildError::InvalidParam {
                name: p.name().to_string(),
                param: param.to_string(),
                reason,
            };
            let mode = match p.str("mode") {
                "random" => TransientMode::Random,
                "burst" => TransientMode::Burst,
                "msb" => TransientMode::Msb,
                other => {
                    return Err(invalid(
                        "mode",
                        format!("`{other}` is not one of random, burst, msb"),
                    ))
                }
            };
            let rate = p.f64("rate");
            if !(0.0..=1.0).contains(&rate) {
                return Err(invalid("rate", "must be a probability".to_string()));
            }
            let burst_len = p.u64("burst_len");
            if !(1..=u64::from(layout::CELLS_PER_LINE)).contains(&burst_len) {
                return Err(invalid(
                    "burst_len",
                    format!("must be in [1, {}]", layout::CELLS_PER_LINE),
                ));
            }
            Ok(Arc::new(TransientModel {
                cell: CellFailureModel::finfet14(),
                mode,
                rate,
                burst_len,
            }))
        },
        canonicalize: None,
    });

    registry.register(FaultModelDescriptor {
        name: "table",
        doc: "persistent stuck-at faults drawn from a measured CDF (inline anchors or a file)",
        params: vec![
            ParamSpec {
                name: "file",
                doc: "parameter file of `vdd,log10_p` lines (overrides `anchors`)",
                default: ParamValue::Str(String::new()),
            },
            ParamSpec {
                name: "anchors",
                doc: "inline CDF anchors: `vdd@log10_p` pairs joined by `;`",
                default: ParamValue::Str(finfet14_anchors_str()),
            },
            ParamSpec {
                name: "sigma",
                doc: "lognormal line-to-line variation (in ln units)",
                default: ParamValue::F64(2.0),
            },
        ],
        label: |p| {
            let anchors = table_anchors(p).map(|a| a.len()).unwrap_or(0);
            format!("table:anchors={anchors},sigma={:?}", p.f64("sigma"))
        },
        build: |p| {
            let anchors = table_anchors(p)?;
            let sigma = p.f64("sigma");
            if sigma < 0.0 {
                return Err(BuildError::InvalidParam {
                    name: p.name().to_string(),
                    param: "sigma".to_string(),
                    reason: "must be non-negative".to_string(),
                });
            }
            Ok(Arc::new(ParametricStuckAt {
                cell: CellFailureModel::from_anchors(anchors, sigma),
            }))
        },
        canonicalize: Some(|p| {
            // Fold the file's *contents* into the inline anchors (and
            // normalize their spelling) so cache keys address what the
            // model computes, not the path it was loaded from.
            let anchors = table_anchors(p)?;
            p.set("anchors", ParamValue::Str(anchors_to_str(&anchors)));
            p.set("file", ParamValue::Str(String::new()));
            Ok(())
        }),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> FaultModelRegistry {
        let mut r = FaultModelRegistry::new();
        register_builtin_models(&mut r);
        r
    }

    fn assert_maps_equal(a: &FaultMap, b: &FaultMap) {
        assert_eq!(a.lines(), b.lines());
        for l in 0..a.lines() {
            assert_eq!(a.line(l), b.line(l), "line {l} differs");
        }
    }

    #[test]
    fn all_builtin_models_build_from_defaults() {
        let r = registry();
        assert_eq!(
            r.names(),
            vec!["stuck-at", "clustered", "transient", "table"]
        );
        for d in r.descriptors() {
            let model = r
                .build(&FaultModelConfig::new(d.name), &())
                .unwrap_or_else(|e| panic!("{e}"));
            // The module docs' table: only transient overlays break nesting.
            assert_eq!(model.voltage_nested(), d.name != "transient", "{}", d.name);
        }
    }

    #[test]
    fn every_model_is_deterministic_and_reference_equal() {
        let r = registry();
        for d in r.descriptors() {
            let model = r.build(&FaultModelConfig::new(d.name), &()).unwrap();
            let a = model.map(64, NormVdd(0.575), FreqGhz::PEAK, 7);
            let b = model.map(64, NormVdd(0.575), FreqGhz::PEAK, 7);
            let reference = model.map_reference(64, NormVdd(0.575), FreqGhz::PEAK, 7);
            assert_maps_equal(&a, &b);
            assert_maps_equal(&a, &reference);
        }
    }

    #[test]
    fn stuck_at_matches_the_old_concrete_path_bit_for_bit() {
        let r = registry();
        let model = r.build(&FaultModelConfig::default(), &()).unwrap();
        for vdd in [0.55, 0.6, 0.65] {
            let via_registry = model.map(96, NormVdd(vdd), FreqGhz::PEAK, 42);
            let direct = FaultMap::dense_reference(
                96,
                &CellFailureModel::finfet14(),
                NormVdd(vdd),
                FreqGhz::PEAK,
                42,
            );
            assert_maps_equal(&via_registry, &direct);
        }
    }

    #[test]
    fn every_model_die_matches_per_voltage_maps() {
        let r = registry();
        let grid = [NormVdd(0.7), NormVdd(0.55), NormVdd(0.6)];
        for name in r.names() {
            let model = r.build(&FaultModelConfig::new(name), &()).unwrap();
            let mut parts: Vec<_> = [0..20, 20..20, 20..64]
                .into_iter()
                .map(|lines| model.grid_maps(lines, &grid, FreqGhz::PEAK, 9).into_iter())
                .collect();
            for &vdd in &grid {
                let map = FaultMap::join(parts.iter_mut().map(|p| p.next().unwrap()).collect());
                let reference = model.map_reference(64, vdd, FreqGhz::PEAK, 9);
                assert_maps_equal(&map, &reference);
                let lazy = model.die(64, NormVdd(0.55), FreqGhz::PEAK, 9).unwrap();
                assert_maps_equal(&lazy.map_at(vdd), &reference);
            }
        }
    }

    #[test]
    fn clustered_is_voltage_nested_and_row_correlated() {
        let r = registry();
        let model = r
            .build(
                &FaultModelConfig::parse("clustered:rows=8,corr=0.9").unwrap(),
                &(),
            )
            .unwrap();
        let hi = model.map(256, NormVdd(0.6), FreqGhz::PEAK, 3);
        let lo = model.map(256, NormVdd(0.55), FreqGhz::PEAK, 3);
        for l in 0..256 {
            for f in hi.line(l) {
                assert!(lo.line(l).contains(f), "nesting violated at line {l}");
            }
        }
        // Row clustering: the variance of per-row fault counts under high
        // correlation exceeds the uncorrelated model's (faults pile into
        // shared-draw rows instead of spreading).
        let uncorrelated = r
            .build(
                &FaultModelConfig::parse("clustered:rows=8,corr=0.0").unwrap(),
                &(),
            )
            .unwrap();
        let row_variance = |map: &FaultMap| {
            let rows: Vec<f64> = (0..32)
                .map(|r| (0..8).map(|i| map.line(r * 8 + i).len()).sum::<usize>() as f64)
                .collect();
            let mean = rows.iter().sum::<f64>() / rows.len() as f64;
            rows.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / rows.len() as f64
        };
        let clustered_var = row_variance(&model.map(256, NormVdd(0.55), FreqGhz::PEAK, 11));
        let flat_var = row_variance(&uncorrelated.map(256, NormVdd(0.55), FreqGhz::PEAK, 11));
        assert!(
            clustered_var > flat_var,
            "row correlation must concentrate faults: {clustered_var} <= {flat_var}"
        );
    }

    #[test]
    fn transient_declares_and_exhibits_non_nesting() {
        let r = registry();
        let model = r
            .build(
                &FaultModelConfig::parse("transient:rate=0.01").unwrap(),
                &(),
            )
            .unwrap();
        assert!(!model.voltage_nested());
        // The overlay is redrawn per voltage: some fault present at the
        // higher voltage must be absent at the lower one.
        let hi = model.map(512, NormVdd(0.65), FreqGhz::PEAK, 5);
        let lo = model.map(512, NormVdd(0.6), FreqGhz::PEAK, 5);
        let violated = (0..512).any(|l| hi.line(l).iter().any(|f| !lo.line(l).contains(f)));
        assert!(violated, "transient overlay should break nesting");
    }

    #[test]
    fn transient_burst_and_msb_modes_shape_the_overlay() {
        let r = registry();
        let msb = r
            .build(
                &FaultModelConfig::parse("transient:mode=msb,rate=0.05").unwrap(),
                &(),
            )
            .unwrap();
        let map = msb.map(128, NormVdd::NOMINAL, FreqGhz::PEAK, 2);
        let mut total = 0;
        for l in 0..128 {
            for f in map.line(l) {
                assert_eq!(f.cell % 8, 7, "msb overlay flipped a non-MSB cell");
                total += 1;
            }
        }
        assert!(total > 0, "msb overlay fired at nominal voltage");

        let burst = r
            .build(
                &FaultModelConfig::parse("transient:mode=burst,rate=1.0,burst_len=6").unwrap(),
                &(),
            )
            .unwrap();
        let map = burst.map(64, NormVdd::NOMINAL, FreqGhz::PEAK, 2);
        for l in 0..64 {
            assert_eq!(map.line(l).len(), 6, "burst length respected (line {l})");
        }
    }

    #[test]
    fn table_defaults_match_finfet14_and_empty_anchors_are_rejected() {
        let r = registry();
        // The default table config is the FinFET-14 curve spelled inline:
        // it builds, and it reproduces the stuck-at map exactly (same
        // anchors, same sigma, same draw path).
        let table = r.build(&FaultModelConfig::new("table"), &()).unwrap();
        let stuck = r.build(&FaultModelConfig::default(), &()).unwrap();
        assert_maps_equal(
            &table.map(64, NormVdd(0.575), FreqGhz::PEAK, 7),
            &stuck.map(64, NormVdd(0.575), FreqGhz::PEAK, 7),
        );
        let err = r
            .build(
                &FaultModelConfig::new("table").with("anchors", ParamValue::Str(String::new())),
                &(),
            )
            .unwrap_err();
        assert!(matches!(err, BuildError::Build { .. }), "{err}");
    }

    #[test]
    fn non_finite_table_values_are_typed_errors() {
        let r = registry();
        for spelling in ["table:sigma=nan", "table:sigma=inf"] {
            let config = FaultModelConfig::parse(spelling).unwrap();
            let err = r.build(&config, &()).map(|_| ()).unwrap_err();
            assert!(
                matches!(err, BuildError::InvalidParam { .. }),
                "{spelling}: {err}"
            );
        }
        for anchors in ["0.5@nan;0.6@-4", "0.5@-0.3;inf@-4", "0.5@-inf;0.6@-4"] {
            let config =
                FaultModelConfig::new("table").with("anchors", ParamValue::Str(anchors.into()));
            let err = r.build(&config, &()).map(|_| ()).unwrap_err();
            assert_eq!(
                err.to_string(),
                "cannot build fault model `table`: anchor values must be finite"
            );
        }
    }

    #[test]
    fn table_anchors_rising_with_voltage_are_typed_errors() {
        let r = registry();
        for anchors in ["0.5@-10;0.7@-2", "0.5@-2;0.6@-4;0.7@-3.9"] {
            let config =
                FaultModelConfig::new("table").with("anchors", ParamValue::Str(anchors.into()));
            let err = r.build(&config, &()).map(|_| ()).unwrap_err();
            assert!(matches!(err, BuildError::Build { .. }), "{anchors}: {err}");
            assert!(
                err.to_string()
                    .contains("anchor log10_p must not increase with voltage"),
                "{anchors}: {err}"
            );
            assert!(r.canonicalize(&config).is_err(), "{anchors}");
        }
        // Flat stretches keep nesting and still build.
        let flat = FaultModelConfig::new("table")
            .with("anchors", ParamValue::Str("0.5@-3;0.6@-3;0.7@-9".into()));
        let model = r.build(&flat, &()).unwrap();
        model.grid_masks(
            0..64,
            &[NormVdd(0.5), NormVdd(0.55), NormVdd(0.65)],
            FreqGhz::PEAK,
            3,
            &mut |_, faults| {
                for &GridFault { mask, .. } in faults {
                    assert_eq!(mask & mask.wrapping_add(1), 0, "{mask:#b} is not a prefix");
                }
            },
        );
    }

    #[test]
    fn table_file_and_inline_spellings_canonicalize_identically() {
        let r = registry();
        let dir = std::env::temp_dir().join("killi_fault_model_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cdf.csv");
        std::fs::write(&path, "# measured CDF\n0.5,-0.3\n0.6, -4.19\n\n0.7,-9.5\n").unwrap();
        let from_file = FaultModelConfig::new("table")
            .with("file", ParamValue::Str(path.to_str().unwrap().to_string()));
        let inline = FaultModelConfig::parse("table:anchors=0.5@-0.3;0.6@-4.19;0.7@-9.5").unwrap();
        let a = r.canonicalize(&from_file).unwrap();
        let b = r.canonicalize(&inline).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.get("file"), Some(&ParamValue::Str(String::new())));
        // And both build the same maps.
        let ma = r.build(&from_file, &()).unwrap();
        let mb = r.build(&inline, &()).unwrap();
        assert_maps_equal(
            &ma.map(64, NormVdd(0.55), FreqGhz::PEAK, 1),
            &mb.map(64, NormVdd(0.55), FreqGhz::PEAK, 1),
        );
    }

    #[test]
    fn default_registry_is_shared_and_complete() {
        let r = default_registry();
        assert_eq!(r.names().len(), 4);
        assert!(std::ptr::eq(r, default_registry()));
    }
}
