//! Persistent low-voltage fault maps.
//!
//! A fault map assigns every SRAM cell of a cache a *stuck-at* fault iff its
//! per-cell uniform threshold (a pure hash of `(seed, line, cell)`) falls
//! below the voltage/frequency-dependent failure probability. This gives the
//! properties the paper measured on silicon (§3):
//!
//! - **persistence** — the same map is seen by every access at a given
//!   operating point,
//! - **voltage/frequency monotonicity** — a cell failing at `V` fails at all
//!   lower voltages (same threshold, larger `p`),
//! - **masking** — each faulty cell is stuck at a random polarity, so a
//!   write whose bit matches the stuck value is *masked* until a later write
//!   flips it (the §5.6.2 hazard emerges naturally).
//!
//! A model's maps have one construction, its stream of grid masks
//! ([`crate::model::FaultModel::grid_masks`]): each line of a die is
//! hashed once at the grid's lowest voltage, and each cell faulty there
//! carries the grid points it is faulty at and its polarity at each
//! ([`GridFault`]). The maps of a grid's points are read from one stream
//! ([`crate::model::FaultModel::grid_maps`]), a map is its one-point
//! case, and the maps of contiguous line ranges join in line order
//! ([`FaultMap::join`]).
//! [`FaultMap::dense_reference`] hashes every cell of the stuck-at model
//! on its own; it is the oracle that construction is tested against.

use killi_ecc::bch::DectedCode;
use killi_ecc::bits::{Line512, LINE_BITS};
use killi_ecc::secded::SecdedCode;

use crate::cell_model::{CellFailureModel, FailureKind, FreqGhz, NormVdd};
use crate::rng::{
    for_each_failing_cell, hash3, hash3_base, hash3_with_base, standard_normal, to_unit,
    unit_threshold, CellThresholds,
};

/// Cell-index layout of a protected line. Data cells come first; metadata
/// cells follow so every protection scheme draws its faults from the same
/// per-line cell pool.
pub mod layout {
    /// Cells `0..512`: the data payload.
    pub const DATA: std::ops::Range<u16> = 0..512;
    /// Cells `512..528`: the 16 training-mode parity bits (the 4
    /// stable-mode parity bits reuse cells `512..516`).
    pub const PARITY16: std::ops::Range<u16> = 512..528;
    /// Cells `512..516`: the 4 stable-mode parity bits.
    pub const PARITY4: std::ops::Range<u16> = 512..516;
    /// Cells `528..539`: SECDED checkbits (schemes storing them in the LV
    /// array).
    pub const SECDED: std::ops::Range<u16> = 528..539;
    /// Cells `539..560`: DEC-TED checkbits (the DECTED-per-line baseline).
    pub const DECTED: std::ops::Range<u16> = 539..560;
    /// Total cells generated per line.
    pub const CELLS_PER_LINE: u16 = 560;
}

/// A persistent stuck-at fault in one cell of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellFault {
    /// Cell index within the line (see [`layout`]).
    pub cell: u16,
    /// The value the cell is stuck at.
    pub stuck: bool,
}

impl CellFault {
    /// The fault of `cell` whose draw `h` fell below its threshold: stuck
    /// at `h`'s top bit.
    #[inline]
    pub(crate) fn drawn(cell: u16, h: u64) -> Self {
        CellFault {
            cell,
            stuck: h & (1 << 63) != 0,
        }
    }
}

/// Identifies a physical line in the cache (set-major: `set * ways + way`).
pub type LineId = usize;

/// The fault population of a cache at one operating point, packed: line
/// `l`'s faults are `cells[offsets[l]..offsets[l + 1]]`, in cell order.
/// Constructors push a line's faults and then close the line.
#[derive(Debug, Clone)]
pub struct FaultMap {
    offsets: Vec<u32>,
    cells: Vec<CellFault>,
}

impl FaultMap {
    /// An empty map with room for `lines` lines, its first line open.
    pub(crate) fn with_lines(lines: usize) -> Self {
        let mut offsets = Vec::with_capacity(lines + 1);
        offsets.push(0);
        FaultMap {
            offsets,
            cells: Vec::new(),
        }
    }

    /// Adds a fault to the open line.
    #[inline]
    pub(crate) fn push(&mut self, fault: CellFault) {
        self.cells.push(fault);
    }

    /// Closes the open line; the next pushes go to the line after it.
    ///
    /// # Panics
    ///
    /// Panics if the map holds more than `u32::MAX` faults.
    pub(crate) fn end_line(&mut self) {
        let end = u32::try_from(self.cells.len()).expect("fault map exceeds u32::MAX faults");
        self.offsets.push(end);
    }

    /// The map of contiguous line ranges `parts`, in line order: the
    /// lines of each part follow those of the part before it. The first
    /// part's vectors grow into the result, so joining one part copies
    /// nothing, and the others' lines are copied after it. No parts join
    /// into a map of no lines.
    ///
    /// # Panics
    ///
    /// Panics if the joined map holds more than `u32::MAX` faults.
    pub fn join(parts: Vec<FaultMap>) -> Self {
        let lines = parts.iter().map(FaultMap::lines).sum::<usize>();
        let cells = parts.iter().map(|part| part.cells.len()).sum::<usize>();
        u32::try_from(cells).expect("fault map exceeds u32::MAX faults");
        let mut parts = parts.into_iter();
        let mut map = parts.next().unwrap_or_else(|| FaultMap::with_lines(0));
        map.offsets.reserve_exact(lines - map.lines());
        map.cells.reserve_exact(cells - map.cells.len());
        for part in parts {
            let base = map.cells.len() as u32;
            map.offsets
                .extend(part.offsets[1..].iter().map(|&offset| base + offset));
            map.cells.extend_from_slice(&part.cells);
        }
        map
    }

    /// The dense reference construction of a stuck-at map: one [`hash3`]
    /// and one float comparison per cell, exactly as originally specified,
    /// with no hoisted hash base, integer threshold or candidate filter.
    /// The stream behind [`crate::model::FaultModel::map`] is
    /// property-tested to reproduce it bit for bit.
    pub fn dense_reference(
        lines: usize,
        model: &CellFailureModel,
        vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
    ) -> Self {
        let mut map = FaultMap::with_lines(lines);
        for line in 0..lines {
            let z = standard_normal(hash3(seed, line as u64, 0xF00D));
            let p = model.p_cell_for_line(vdd, freq, FailureKind::Combined, z);
            for cell in 0..layout::CELLS_PER_LINE {
                let h = hash3(seed, line as u64, u64::from(cell));
                if to_unit(h) < p {
                    map.push(CellFault {
                        cell,
                        stuck: h & (1 << 63) != 0,
                    });
                }
            }
            map.end_line();
        }
        map
    }

    /// A map with an explicit fault population (targeted fault-injection
    /// tests and ablations).
    pub fn from_faults(faults: Vec<Vec<CellFault>>) -> Self {
        let mut map = FaultMap::with_lines(faults.len());
        for line in &faults {
            for &fault in line {
                map.push(fault);
            }
            map.end_line();
        }
        map
    }

    /// A map with no faults (nominal voltage baseline).
    pub fn fault_free(lines: usize) -> Self {
        FaultMap {
            offsets: vec![0; lines + 1],
            cells: Vec::new(),
        }
    }

    /// Number of physical lines covered.
    pub fn lines(&self) -> usize {
        self.offsets.len() - 1
    }

    /// All faults of a line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[inline]
    pub fn line(&self, line: LineId) -> &[CellFault] {
        &self.cells[self.offsets[line] as usize..self.offsets[line + 1] as usize]
    }

    /// Number of faults among a line's cells within `range`.
    pub fn count_in(&self, line: LineId, range: std::ops::Range<u16>) -> usize {
        self.line(line)
            .iter()
            .filter(|f| range.contains(&f.cell))
            .count()
    }

    /// Number of faulty *data* cells in a line.
    pub fn data_fault_count(&self, line: LineId) -> usize {
        self.count_in(line, layout::DATA)
    }

    /// Applies stuck-at corruption to a line's data payload, as the SRAM
    /// array would store it.
    pub fn corrupt_data(&self, line: LineId, data: &mut Line512) {
        for f in self.line(line) {
            if f.cell < LINE_BITS as u16 {
                data.set_bit(f.cell as usize, f.stuck);
            }
        }
    }

    /// Applies stuck-at corruption to the 4 stable-mode parity cells.
    pub fn corrupt_parity4(&self, line: LineId, parity: u8) -> u8 {
        let mut out = parity;
        for f in self.line(line) {
            if layout::PARITY4.contains(&f.cell) {
                let bit = f.cell - layout::PARITY4.start;
                if f.stuck {
                    out |= 1 << bit;
                } else {
                    out &= !(1 << bit);
                }
            }
        }
        out
    }

    /// Applies stuck-at corruption to SECDED checkbit cells (for schemes
    /// storing checkbits in the LV array).
    pub fn corrupt_secded(&self, line: LineId, code: SecdedCode) -> SecdedCode {
        let mut out = code.0;
        for f in self.line(line) {
            if layout::SECDED.contains(&f.cell) {
                let bit = f.cell - layout::SECDED.start;
                if f.stuck {
                    out |= 1 << bit;
                } else {
                    out &= !(1 << bit);
                }
            }
        }
        SecdedCode(out)
    }

    /// Applies stuck-at corruption to DEC-TED checkbit cells.
    pub fn corrupt_dected(&self, line: LineId, code: DectedCode) -> DectedCode {
        let mut out = code.0;
        for f in self.line(line) {
            if layout::DECTED.contains(&f.cell) {
                let bit = u32::from(f.cell - layout::DECTED.start);
                if f.stuck {
                    out |= 1 << bit;
                } else {
                    out &= !(1 << bit);
                }
            }
        }
        DectedCode(out)
    }

    /// Histogram of data-fault counts per line: `hist[k]` = number of lines
    /// with exactly `k` faulty data cells (last bucket aggregates the rest).
    pub fn data_fault_histogram(&self, buckets: usize) -> Vec<usize> {
        let mut hist = vec![0usize; buckets];
        for line in 0..self.lines() {
            let n = self.data_fault_count(line).min(buckets - 1);
            hist[n] += 1;
        }
        hist
    }
}

/// How the cells of a line draw their failure probability in a
/// [`LineMasks`] draw.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CellGroups {
    /// Every cell shares its line's variation draw (the stuck-at model).
    Line,
    /// Cells `g * cells .. (g + 1) * cells` add the die-wide `offsets[g]`
    /// to their line's draw (the clustered model's column groups).
    Columns {
        /// Cells per group, in `1..=CELLS_PER_LINE`.
        cells: u16,
        /// One offset per group: `ceil(CELLS_PER_LINE / cells)` of them.
        offsets: Vec<f64>,
    },
}

impl CellGroups {
    /// The cells of group `g`.
    fn range(&self, g: usize) -> std::ops::Range<u16> {
        match self {
            CellGroups::Line => 0..layout::CELLS_PER_LINE,
            CellGroups::Columns { cells, .. } => {
                let start = g as u16 * cells;
                start..(start + cells).min(layout::CELLS_PER_LINE)
            }
        }
    }

    /// The variation draw of group `g` in a line whose own draw is `z`.
    pub(crate) fn z(&self, z: f64, g: usize) -> f64 {
        match self {
            CellGroups::Line => z,
            CellGroups::Columns { offsets, .. } => z + offsets[g],
        }
    }

    /// The cell thresholds of a line whose group `g` has threshold
    /// `group_threshold(g)`, called in group order: one value for
    /// [`CellGroups::Line`], else written cell by cell into `per_cell`.
    pub(crate) fn thresholds<'a>(
        &self,
        per_cell: &'a mut [u64; layout::CELLS_PER_LINE as usize],
        mut group_threshold: impl FnMut(usize) -> u64,
    ) -> CellThresholds<'a> {
        match self {
            CellGroups::Line => CellThresholds::Uniform(group_threshold(0)),
            CellGroups::Columns { cells, .. } => {
                for (g, group) in per_cell.chunks_mut(usize::from(*cells)).enumerate() {
                    group.fill(group_threshold(g));
                }
                CellThresholds::PerCell(per_cell)
            }
        }
    }
}

/// The variation draw of a line whose hash base is `base`, shared by all
/// of its cells: the stuck-at model's `z_of` (see [`LineMasks`]).
pub(crate) fn line_z(_: LineId, base: u64) -> f64 {
    standard_normal(hash3_with_base(base, 0xF00D))
}

/// One cell of a die over a grid of at most 64 voltages, as a model's
/// stream ([`crate::model::FaultModel::grid_masks`]) carries it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridFault {
    /// Cell index within the line (see [`layout`]).
    pub cell: u16,
    /// Bit `g` is set iff the cell is faulty at grid point `g`.
    pub mask: u64,
    /// Bit `g` is set iff the cell is stuck at 1 at grid point `g`; no bit
    /// outside `mask` is set.
    pub stuck: u64,
}

impl GridFault {
    /// The cell's fault at grid point `g`, one of `mask`'s bits.
    #[inline]
    pub fn at(self, g: u32) -> CellFault {
        CellFault {
            cell: self.cell,
            stuck: (self.stuck >> g) & 1 != 0,
        }
    }
}

/// A persistent model's die over a grid of at most 64 voltages, drawn one
/// line at a time: every cell of a line is hashed once, the cells faulty
/// at the grid's lowest voltage (its cap) are kept, and each carries its
/// grid mask. It holds one line, never the die.
///
/// Line `l` draws `z_of(l, base)`, with `base = hash3_base(seed, l)`, and
/// its cells draw from `groups`: cell `c` fails at `vdd` iff its key
/// `hash3(seed, l, c) >> 11` falls below the threshold of its group's
/// probability there.
pub(crate) struct LineMasks<'a, Z> {
    model: &'a CellFailureModel,
    groups: &'a CellGroups,
    seed: u64,
    z_of: Z,
    /// The median cell probability at the cap.
    cap_median: f64,
    /// The median cell probability at each grid point.
    medians: Vec<f64>,
    /// The grid thresholds of one cell group.
    table: ThresholdTable,
    per_cell: [u64; layout::CELLS_PER_LINE as usize],
    /// The line's cells faulty at the cap: `(h >> 11, fault)`.
    candidates: Vec<(u64, CellFault)>,
    masks: Vec<GridFault>,
}

impl<'a, Z: Fn(LineId, u64) -> f64> LineMasks<'a, Z> {
    /// The grid masks of the die whose lines draw as the type describes.
    ///
    /// # Panics
    ///
    /// Panics if `grid` has more than 64 points.
    pub(crate) fn new(
        model: &'a CellFailureModel,
        groups: &'a CellGroups,
        grid: &[NormVdd],
        freq: FreqGhz,
        seed: u64,
        z_of: Z,
    ) -> Self {
        assert!(grid.len() <= 64, "grid masks hold at most 64 points");
        let median = |vdd: NormVdd| model.p_cell_median(vdd, freq, FailureKind::Combined);
        let cap = grid.iter().fold(f64::INFINITY, |cap, vdd| cap.min(vdd.0));
        LineMasks {
            model,
            groups,
            seed,
            z_of,
            cap_median: median(NormVdd(cap)),
            medians: grid.iter().map(|&vdd| median(vdd)).collect(),
            table: ThresholdTable::default(),
            per_cell: [0; layout::CELLS_PER_LINE as usize],
            candidates: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// The cells of `line` faulty at some grid point, in cell order, each
    /// with its grid mask. Bit `g` of a mask is set iff the cell's key
    /// falls below its group's threshold at `grid[g]`, the dense
    /// reference's `to_unit(h) < p` in integers, so the cell is in the
    /// model's map at `grid[g]`.
    ///
    /// # Panics
    ///
    /// Panics if the model's probability at some grid point exceeds the
    /// one at the cap, where the candidates were drawn.
    pub(crate) fn line(&mut self, line: LineId) -> &[GridFault] {
        let base = hash3_base(self.seed, line as u64);
        let z = (self.z_of)(line, base);
        let (model, groups, cap_median) = (self.model, self.groups, self.cap_median);
        let cap_thresholds = groups.thresholds(&mut self.per_cell, |g| {
            unit_threshold(model.line_p(cap_median, groups.z(z, g)))
        });
        let candidates = &mut self.candidates;
        candidates.clear();
        for_each_failing_cell(
            base,
            0..layout::CELLS_PER_LINE,
            cap_thresholds,
            |cell, h| candidates.push((h >> 11, CellFault::drawn(cell, h))),
        );
        self.fold(line, z)
    }

    /// Folds the candidates of `line`, whose variation draw is `z`, into
    /// their grid masks (see [`Self::line`]).
    fn fold(&mut self, line: LineId, z: f64) -> &[GridFault] {
        let (model, groups, cap_median) = (self.model, self.groups, self.cap_median);
        self.masks.clear();
        // `table` holds the thresholds of `group`, whose cells end before `end`.
        let (mut group, mut end) = (0, 0);
        for &(key, fault) in &self.candidates {
            if fault.cell >= end {
                while groups.range(group).end <= fault.cell {
                    group += 1;
                }
                end = groups.range(group).end;
                let z = groups.z(z, group);
                let cap_threshold = unit_threshold(model.line_p(cap_median, z));
                self.table.fill(self.medians.iter().map(|&median| {
                    let threshold = unit_threshold(model.line_p(median, z));
                    assert!(
                        threshold <= cap_threshold,
                        "model not monotone against the grid's cap at line {line}"
                    );
                    threshold
                }));
            }
            let mask = self.table.mask(key);
            if mask != 0 {
                self.masks.push(GridFault {
                    cell: fault.cell,
                    mask,
                    stuck: if fault.stuck { mask } else { 0 },
                });
            }
        }
        &self.masks
    }
}

/// The grid thresholds `t_g` of one cell group, sorted once, with their
/// cumulative grid bits from the highest down: a key below exactly `k` of
/// them is faulty at the points of the `k` highest, so its grid mask, the
/// OR over `g` of `(key < t_g) << g`, is one lookup.
#[derive(Debug, Default)]
struct ThresholdTable {
    /// `(t_g, 1 << g)` for each grid point `g`, by ascending threshold.
    sorted: Vec<(u64, u64)>,
    /// `cum[k]`: the grid bits of the `k` highest thresholds.
    cum: Vec<u64>,
}

impl ThresholdTable {
    /// Replaces the table with the thresholds `t_g`, in grid order.
    fn fill(&mut self, thresholds: impl Iterator<Item = u64>) {
        let pairs = thresholds.enumerate().map(|(g, t)| (t, 1 << g));
        self.sorted.clear();
        self.sorted.extend(pairs);
        self.sorted.sort_unstable();
        self.cum.clear();
        self.cum.push(0);
        for (k, &(_, bit)) in self.sorted.iter().rev().enumerate() {
            self.cum.push(self.cum[k] | bit);
        }
    }

    /// The grid mask of `key`: `cum` at the number of thresholds above it.
    #[inline]
    fn mask(&self, key: u64) -> u64 {
        let above = self.sorted.iter().map(|&(t, _)| usize::from(key < t));
        self.cum[above.sum::<usize>()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CellFailureModel {
        CellFailureModel::finfet14()
    }

    /// The registered `stuck-at` model, built on `model()`.
    fn stuck_at() -> std::sync::Arc<dyn crate::model::FaultModel> {
        let config = crate::model::FaultModelConfig::default();
        crate::model::default_registry()
            .build(&config, &())
            .unwrap()
    }

    /// Shorthand for the tests below: the stuck-at map, read from its die.
    fn build(lines: usize, vdd: NormVdd, freq: FreqGhz, seed: u64) -> FaultMap {
        stuck_at().map(lines, vdd, freq, seed)
    }

    /// Replicate shorthand: derives the die seed the way the sweep does.
    fn build_replicate(lines: usize, vdd: NormVdd, root_seed: u64, replicate: u64) -> FaultMap {
        let die_seed = crate::rng::derive_seed(root_seed, "die", &[replicate]);
        build(lines, vdd, FreqGhz::PEAK, die_seed)
    }

    #[test]
    fn fault_free_map_is_empty() {
        let m = FaultMap::fault_free(64);
        assert_eq!(m.lines(), 64);
        for l in 0..64 {
            assert!(m.line(l).is_empty());
            assert_eq!(m.data_fault_count(l), 0);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build(128, NormVdd(0.575), FreqGhz::PEAK, 7);
        let b = build(128, NormVdd(0.575), FreqGhz::PEAK, 7);
        let c = build(128, NormVdd(0.575), FreqGhz::PEAK, 8);
        for l in 0..128 {
            assert_eq!(a.line(l), b.line(l));
        }
        assert!((0..128).any(|l| a.line(l) != c.line(l)));
    }

    #[test]
    fn voltage_monotone_inclusion() {
        let hi = build(256, NormVdd(0.625), FreqGhz::PEAK, 42);
        let lo = build(256, NormVdd(0.575), FreqGhz::PEAK, 42);
        for l in 0..256 {
            for f in hi.line(l) {
                assert!(
                    lo.line(l).contains(f),
                    "fault {f:?} at 0.625 missing at 0.575 (line {l})"
                );
            }
        }
        let total_hi: usize = (0..256).map(|l| hi.line(l).len()).sum();
        let total_lo: usize = (0..256).map(|l| lo.line(l).len()).sum();
        assert!(total_lo > total_hi);
    }

    #[test]
    fn replicate_maps_are_deterministic_and_nested_across_voltage() {
        let a = build_replicate(64, NormVdd(0.6), 42, 3);
        let b = build_replicate(64, NormVdd(0.6), 42, 3);
        let other = build_replicate(64, NormVdd(0.6), 42, 4);
        for l in 0..64 {
            assert_eq!(a.line(l), b.line(l));
        }
        assert!(
            (0..64).any(|l| a.line(l) != other.line(l)),
            "distinct replicates must draw distinct dies"
        );
        // Same replicate across the voltage grid = same die: monotone
        // nesting must hold exactly as for a shared raw seed.
        let lo = build_replicate(64, NormVdd(0.55), 42, 3);
        for l in 0..64 {
            for f in a.line(l) {
                assert!(lo.line(l).contains(f));
            }
        }
    }

    #[test]
    fn frequency_monotone_inclusion() {
        let slow = build(256, NormVdd(0.575), FreqGhz(0.4), 42);
        let fast = build(256, NormVdd(0.575), FreqGhz(1.0), 42);
        for l in 0..256 {
            for f in slow.line(l) {
                assert!(fast.line(l).contains(f));
            }
        }
    }

    #[test]
    fn fault_rate_tracks_realized_line_rates() {
        let (lines, vdd) = (2000, NormVdd(0.575));
        let m = build(lines, vdd, FreqGhz::PEAK, 1);
        let total: usize = (0..lines).map(|l| m.line(l).len()).sum();
        let mean_p_line = (0..lines)
            .map(|l| {
                let z = standard_normal(hash3(1, l as u64, 0xF00D));
                model().p_cell_for_line(vdd, FreqGhz::PEAK, FailureKind::Combined, z)
            })
            .sum::<f64>()
            / lines as f64;
        let expected = mean_p_line * lines as f64 * f64::from(layout::CELLS_PER_LINE);
        let ratio = total as f64 / expected;
        assert!((0.9..1.1).contains(&ratio), "ratio = {ratio}");
        // Heavy tail: the mean line rate far exceeds the median.
        assert!(mean_p_line > model().p_cell_median(vdd, FreqGhz::PEAK, FailureKind::Combined));
    }

    #[test]
    fn corrupt_data_sets_stuck_values() {
        let m = build(512, NormVdd(0.55), FreqGhz::PEAK, 3);
        // Find a line with at least one data fault.
        let line = (0..512)
            .find(|&l| m.data_fault_count(l) > 0)
            .expect("a faulty line at 0.55 VDD");
        let mut data = Line512::from_seed(99);
        m.corrupt_data(line, &mut data);
        for f in m.line(line) {
            if f.cell < 512 {
                assert_eq!(data.bit(f.cell as usize), f.stuck);
            }
        }
        // Corruption is idempotent (persistence).
        let snapshot = data;
        m.corrupt_data(line, &mut data);
        assert_eq!(data, snapshot);
    }

    #[test]
    fn masked_fault_leaves_data_intact() {
        let m = build(2048, NormVdd(0.625), FreqGhz::PEAK, 5);
        // A write whose bit already equals the stuck value is masked.
        let line = (0..2048)
            .find(|&l| m.data_fault_count(l) == 1)
            .expect("a single-fault line");
        let f = m.line(line).iter().find(|f| f.cell < 512).copied().unwrap();
        let mut data = Line512::zero();
        data.set_bit(f.cell as usize, f.stuck); // matches stuck polarity
        let original = data;
        m.corrupt_data(line, &mut data);
        assert_eq!(data, original, "matching write must be masked");
    }

    #[test]
    fn parity_and_checkbit_corruption_respects_layout() {
        let m = build(4096, NormVdd(0.5), FreqGhz::PEAK, 11);
        let line = (0..4096)
            .find(|&l| m.count_in(l, layout::PARITY4) > 0)
            .expect("a parity-cell fault at 0.5 VDD");
        let stuck = |value: bool| {
            m.line(line)
                .iter()
                .filter(|f| layout::PARITY4.contains(&f.cell) && f.stuck == value)
                .count() as u32
        };
        assert_eq!(m.corrupt_parity4(line, 0).count_ones(), stuck(true));
        assert_eq!(m.corrupt_parity4(line, 0xf).count_ones(), 4 - stuck(false));
    }

    #[test]
    fn histogram_sums_to_line_count() {
        let m = build(1000, NormVdd(0.6), FreqGhz::PEAK, 2);
        let hist = m.data_fault_histogram(4);
        assert_eq!(hist.iter().sum::<usize>(), 1000);
    }

    #[test]
    fn nominal_voltage_has_no_faults() {
        let m = build(500, NormVdd::NOMINAL, FreqGhz::PEAK, 9);
        let total: usize = (0..500).map(|l| m.line(l).len()).sum();
        assert_eq!(total, 0);
    }

    /// Every line of two maps must hold the same faults.
    fn assert_maps_identical(a: &FaultMap, b: &FaultMap) {
        assert_eq!(a.lines(), b.lines());
        for l in 0..a.lines() {
            assert_eq!(a.line(l), b.line(l), "line {l} differs");
        }
    }

    #[test]
    fn map_matches_dense_reference() {
        for seed in [0, 7, 42, 0xDEAD_BEEF] {
            for v in [0.5, 0.55, 0.575, 0.6, 0.625, 0.675, 1.0] {
                for f in [0.4, 1.0] {
                    let map = build(96, NormVdd(v), FreqGhz(f), seed);
                    let dense =
                        FaultMap::dense_reference(96, &model(), NormVdd(v), FreqGhz(f), seed);
                    assert_maps_identical(&map, &dense);
                }
            }
        }
    }

    #[test]
    fn grid_maps_match_dense_reference() {
        let grid = [0.55, 0.575, 0.6, 0.625, 0.65, 0.7, 1.0].map(NormVdd);
        let model_ = stuck_at();
        let mut parts: Vec<_> = [0..50, 50..50, 50..128]
            .into_iter()
            .map(|lines| {
                model_
                    .grid_maps(lines, &grid, FreqGhz::PEAK, 42)
                    .into_iter()
            })
            .collect();
        for &vdd in &grid {
            let map = FaultMap::join(parts.iter_mut().map(|p| p.next().unwrap()).collect());
            let dense = FaultMap::dense_reference(128, &model(), vdd, FreqGhz::PEAK, 42);
            assert_maps_identical(&map, &dense);
        }
    }

    #[test]
    fn join_concatenates_line_ranges() {
        let fault = |cell| CellFault { cell, stuck: true };
        let lines = |map: &FaultMap| -> Vec<Vec<CellFault>> {
            (0..map.lines()).map(|l| map.line(l).to_vec()).collect()
        };
        // No parts: a map of no lines.
        let empty = FaultMap::join(Vec::new());
        assert_eq!(empty.lines(), 0);
        // One part: the part itself, its vectors moved.
        let one = FaultMap::from_faults(vec![vec![fault(1)], vec![], vec![fault(2), fault(9)]]);
        let (offsets, cells) = (one.offsets.as_ptr(), one.cells.as_ptr());
        let joined = FaultMap::join(vec![one.clone()]);
        assert_eq!(lines(&joined), lines(&one));
        let moved = FaultMap::join(vec![one]);
        assert_eq!(
            (moved.offsets.as_ptr(), moved.cells.as_ptr()),
            (offsets, cells)
        );
        // Several parts, with empty lines on both sides of each seam and
        // parts of no lines and of no faults among them.
        let parts = [
            vec![vec![fault(3)], vec![]],
            vec![],
            vec![vec![], vec![fault(0), fault(511)], vec![]],
            vec![vec![]],
            vec![vec![], vec![fault(559)]],
        ];
        let joined = FaultMap::join(parts.iter().cloned().map(FaultMap::from_faults).collect());
        assert_eq!(lines(&joined), parts.concat());
        let free = FaultMap::join(vec![FaultMap::fault_free(3), FaultMap::fault_free(2)]);
        assert_eq!(lines(&free), vec![Vec::new(); 5]);
    }

    #[test]
    #[should_panic(expected = "below the die's cap")]
    fn die_rejects_voltage_below_cap() {
        let model = stuck_at();
        let die = model.die(8, NormVdd(0.6), FreqGhz::PEAK, 1).unwrap();
        die.map_at(NormVdd(0.575));
    }

    #[test]
    fn threshold_table_masks_equal_the_per_point_fold() {
        // The fold the table replaces: bit g iff the key is below t_g.
        let fold = |thresholds: &[u64], key: u64| {
            thresholds
                .iter()
                .enumerate()
                .fold(0u64, |mask, (g, &t)| mask | (u64::from(key < t) << g))
        };
        killi_check::check("threshold_table_masks_equal_the_per_point_fold", |g| {
            // One table refilled, as a line's column groups refill it.
            let mut table = ThresholdTable::default();
            for _ in 0..2 {
                let points = match g.usize_in(0, 4) {
                    0 => 1,
                    1 => 64,
                    _ => g.usize_in(1, 65),
                };
                // A narrow range makes keys land on thresholds; `line_p`
                // clamps at `P_CEIL`, so low grid points can share one.
                let scale = *g.pick(&[8, 1 << 53]);
                let mut thresholds: Vec<u64> = Vec::with_capacity(points);
                for _ in 0..points {
                    let t = match g.usize_in(0, 5) {
                        0 => 0,
                        1 if !thresholds.is_empty() => *g.pick(&thresholds),
                        _ => g.u64_below(scale),
                    };
                    thresholds.push(t);
                }
                table.fill(thresholds.iter().copied());
                let keys = thresholds
                    .iter()
                    .flat_map(|&t| [t.saturating_sub(1), t, t + 1])
                    .chain([0, scale, g.u64_below(scale)]);
                for key in keys {
                    assert_eq!(
                        table.mask(key),
                        fold(&thresholds, key),
                        "key {key}, thresholds {thresholds:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn line_masks_apply_the_dense_comparison_at_the_threshold() {
        // No hashed key lands on a threshold by chance, so plant keys
        // just below, at and just above the threshold of 0.6 x VDD, the
        // grid's second point: only the one the dense reference's
        // `to_unit(h) < p` admits may carry that point's bit.
        let (m, vdd, z) = (model(), NormVdd(0.6), 0.25);
        let p = m.line_p(
            m.p_cell_median(vdd, FreqGhz::PEAK, FailureKind::Combined),
            z,
        );
        let t = unit_threshold(p);
        let keys = [t - 1, t, t + 1];
        let groups = CellGroups::Line;
        let grid = [NormVdd(0.55), vdd];
        let mut masks = LineMasks::new(&m, &groups, &grid, FreqGhz::PEAK, 0, line_z);
        masks.candidates = (0..3)
            .map(|cell| (keys[cell], CellFault::drawn(cell as u16, 0)))
            .collect();
        let folded = masks.fold(0, z);
        // Every planted key is below the cap's threshold.
        assert!(folded.iter().all(|f| f.mask & 1 != 0), "{folded:?}");
        let kept: Vec<u16> = folded
            .iter()
            .filter(|f| f.mask & 2 != 0)
            .map(|f| f.cell)
            .collect();
        let dense: Vec<u16> = (0..3)
            .filter(|&c| to_unit(keys[c] << 11) < p)
            .map(|c| c as u16)
            .collect();
        assert_eq!(kept, dense);
        assert_eq!(kept, [0]);
    }
}
