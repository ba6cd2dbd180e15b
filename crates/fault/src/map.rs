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

use killi_ecc::bch::DectedCode;
use killi_ecc::bits::{Line512, LINE_BITS};
use killi_ecc::secded::SecdedCode;

use crate::cell_model::{CellFailureModel, FailureKind, FreqGhz, NormVdd};
use crate::rng::{
    for_each_failing_cell, hash3, hash3_base, hash3_with_base, to_unit, unit_threshold,
    CellThresholds,
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

/// The fault population of a cache at one operating point.
#[derive(Debug, Clone)]
pub struct FaultMap {
    faults: Vec<Box<[CellFault]>>,
    p_cell_median: f64,
    mean_p_line: f64,
    vdd: NormVdd,
    freq: FreqGhz,
    seed: u64,
}

/// Which construction [`FaultMap::generate`] uses. Both are bit-identical
/// by property test; the dense path exists as the independently-written
/// oracle the optimized path is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Construction {
    /// Hoists the per-line hash base and the operating-point median out of
    /// the inner loop and compares hashes against an exact integer
    /// threshold ([`unit_threshold`]) instead of converting every draw to
    /// `f64`. The production path.
    #[default]
    Optimized,
    /// One [`hash3`] and one float comparison per cell, exactly as
    /// originally specified.
    DenseReference,
}

/// Options for [`FaultMap::generate`]: the operating point, the die seed,
/// and which construction to run.
#[derive(Debug, Clone, Copy)]
pub struct MapOptions {
    /// Supply voltage of the map.
    pub vdd: NormVdd,
    /// Clock frequency of the map.
    pub freq: FreqGhz,
    /// Die seed. Monte-Carlo callers derive it as
    /// `derive_seed(root, "die", &[replicate])` so the same replicate sees
    /// the same physical die at every voltage of a sweep grid.
    pub seed: u64,
    /// Construction to run (defaults to [`Construction::Optimized`]).
    pub construction: Construction,
}

impl MapOptions {
    /// Options for the optimized construction at an operating point.
    pub fn new(vdd: NormVdd, freq: FreqGhz, seed: u64) -> Self {
        MapOptions {
            vdd,
            freq,
            seed,
            construction: Construction::Optimized,
        }
    }

    /// Switches to the dense reference construction.
    #[must_use]
    pub fn dense(mut self) -> Self {
        self.construction = Construction::DenseReference;
        self
    }
}

impl FaultMap {
    /// Builds the fault map for `lines` physical lines with the given
    /// options — the one seeded constructor behind every fault model.
    pub fn generate(lines: usize, model: &CellFailureModel, opts: MapOptions) -> Self {
        match opts.construction {
            Construction::Optimized => {
                Self::generate_optimized(lines, model, opts.vdd, opts.freq, opts.seed)
            }
            Construction::DenseReference => {
                Self::generate_dense(lines, model, opts.vdd, opts.freq, opts.seed)
            }
        }
    }

    /// The optimized construction (see [`Construction::Optimized`]).
    fn generate_optimized(
        lines: usize,
        model: &CellFailureModel,
        vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
    ) -> Self {
        let median = model.p_cell_median(vdd, freq, FailureKind::Combined);
        let mut faults = Vec::with_capacity(lines);
        let mut scratch = Vec::new();
        let mut mean_p_line = 0.0;
        for line in 0..lines {
            let base = hash3_base(seed, line as u64);
            // Per-line variation draw, frozen across voltages so fault
            // populations at different operating points stay nested.
            let z = standard_normal(hash3_with_base(base, 0xF00D));
            let p = model.line_p(median, z);
            mean_p_line += p;
            scratch.clear();
            for_each_failing_cell(
                base,
                0..layout::CELLS_PER_LINE,
                1,
                CellThresholds::Uniform(unit_threshold(p)),
                |cell, h| scratch.push(CellFault::drawn(cell, h)),
            );
            faults.push(scratch.as_slice().into());
        }
        FaultMap {
            faults,
            p_cell_median: median,
            mean_p_line: mean_p_line / lines.max(1) as f64,
            vdd,
            freq,
            seed,
        }
    }

    /// The dense reference construction (see
    /// [`Construction::DenseReference`]). The optimized construction and
    /// the sparse [`DieFaultTable`] derivation are property-tested to
    /// reproduce this map bit for bit.
    fn generate_dense(
        lines: usize,
        model: &CellFailureModel,
        vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
    ) -> Self {
        let mut faults = Vec::with_capacity(lines);
        let mut scratch = Vec::new();
        let mut mean_p_line = 0.0;
        for line in 0..lines {
            let z = standard_normal(hash3(seed, line as u64, 0xF00D));
            let p = model.p_cell_for_line(vdd, freq, FailureKind::Combined, z);
            mean_p_line += p;
            scratch.clear();
            for cell in 0..layout::CELLS_PER_LINE {
                let h = hash3(seed, line as u64, u64::from(cell));
                if to_unit(h) < p {
                    scratch.push(CellFault {
                        cell,
                        stuck: h & (1 << 63) != 0,
                    });
                }
            }
            faults.push(scratch.as_slice().into());
        }
        FaultMap {
            faults,
            p_cell_median: model.p_cell_median(vdd, freq, FailureKind::Combined),
            mean_p_line: mean_p_line / lines.max(1) as f64,
            vdd,
            freq,
            seed,
        }
    }

    /// A map assembled from precomputed parts — the seam fault models that
    /// post-process another model's output (e.g. transient overlays) use
    /// to keep the derived statistics coherent.
    pub(crate) fn from_parts(
        faults: Vec<Box<[CellFault]>>,
        p_cell_median: f64,
        mean_p_line: f64,
        vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
    ) -> Self {
        FaultMap {
            faults,
            p_cell_median,
            mean_p_line,
            vdd,
            freq,
            seed,
        }
    }

    /// A map with an explicit fault population (targeted fault-injection
    /// tests and ablations).
    pub fn from_faults(faults: Vec<Vec<CellFault>>) -> Self {
        FaultMap {
            faults: faults.into_iter().map(|v| v.into_boxed_slice()).collect(),
            p_cell_median: 0.0,
            mean_p_line: 0.0,
            vdd: NormVdd::NOMINAL,
            freq: FreqGhz::PEAK,
            seed: 0,
        }
    }

    /// A map with no faults (nominal voltage baseline).
    pub fn fault_free(lines: usize) -> Self {
        FaultMap {
            faults: vec![Box::from([]); lines],
            p_cell_median: 0.0,
            mean_p_line: 0.0,
            vdd: NormVdd::NOMINAL,
            freq: FreqGhz::PEAK,
            seed: 0,
        }
    }

    /// Number of physical lines covered.
    pub fn lines(&self) -> usize {
        self.faults.len()
    }

    /// The median per-cell failure probability the map was drawn from.
    pub fn p_cell_median(&self) -> f64 {
        self.p_cell_median
    }

    /// The realized mean per-line cell failure probability of this map.
    pub fn mean_p_line(&self) -> f64 {
        self.mean_p_line
    }

    /// The operating point of this map.
    pub fn operating_point(&self) -> (NormVdd, FreqGhz) {
        (self.vdd, self.freq)
    }

    /// The seed the map was drawn from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All faults of a line.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    pub fn line(&self, line: LineId) -> &[CellFault] {
        &self.faults[line]
    }

    /// Number of faults among a line's cells within `range`.
    pub fn count_in(&self, line: LineId, range: std::ops::Range<u16>) -> usize {
        self.faults[line]
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
        for f in self.faults[line].iter() {
            if f.cell < LINE_BITS as u16 {
                data.set_bit(f.cell as usize, f.stuck);
            }
        }
    }

    /// Applies stuck-at corruption to the 16 training-mode parity cells.
    pub fn corrupt_parity16(&self, line: LineId, parity: u16) -> u16 {
        let mut out = parity;
        for f in self.faults[line].iter() {
            if layout::PARITY16.contains(&f.cell) {
                let bit = f.cell - layout::PARITY16.start;
                if f.stuck {
                    out |= 1 << bit;
                } else {
                    out &= !(1 << bit);
                }
            }
        }
        out
    }

    /// Applies stuck-at corruption to the 4 stable-mode parity cells.
    pub fn corrupt_parity4(&self, line: LineId, parity: u8) -> u8 {
        let mut out = parity;
        for f in self.faults[line].iter() {
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
        for f in self.faults[line].iter() {
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
        for f in self.faults[line].iter() {
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
/// [`DieFaultTable`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CellGroups {
    /// Every cell shares its line's variation draw, and a line's mean
    /// probability is that draw's probability (the stuck-at model).
    Line,
    /// Cells `g * cells .. (g + 1) * cells` add the die-wide `offsets[g]`
    /// to their line's draw, and a line's mean probability weighs each
    /// group's probability by its cell count (the clustered model's
    /// column groups).
    Columns {
        /// Cells per group, in `1..=CELLS_PER_LINE`.
        cells: u16,
        /// One offset per group: `ceil(CELLS_PER_LINE / cells)` of them.
        offsets: Vec<f64>,
    },
}

impl CellGroups {
    /// Number of groups in a line.
    fn count(&self) -> usize {
        match self {
            CellGroups::Line => 1,
            CellGroups::Columns { offsets, .. } => offsets.len(),
        }
    }

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

    /// The cell thresholds of a line whose group `g` of `n` cells has
    /// threshold `group_threshold(g, n)`, called in group order: one
    /// value for [`CellGroups::Line`], else written cell by cell into
    /// `per_cell`.
    pub(crate) fn thresholds<'a>(
        &self,
        per_cell: &'a mut [u64; layout::CELLS_PER_LINE as usize],
        mut group_threshold: impl FnMut(usize, usize) -> u64,
    ) -> CellThresholds<'a> {
        match self {
            CellGroups::Line => CellThresholds::Uniform(group_threshold(0, per_cell.len())),
            CellGroups::Columns { cells, .. } => {
                for (g, group) in per_cell.chunks_mut(usize::from(*cells)).enumerate() {
                    group.fill(group_threshold(g, group.len()));
                }
                CellThresholds::PerCell(per_cell)
            }
        }
    }

    /// A line's mean cell probability from its groups' probabilities
    /// `probs`, in the order and rounding of the model's direct map
    /// construction.
    fn line_mean(&self, probs: &[f64]) -> f64 {
        match self {
            CellGroups::Line => probs[0],
            CellGroups::Columns { .. } => {
                let mut p_line = 0.0;
                for (g, &p) in probs.iter().enumerate() {
                    let cells = self.range(g);
                    p_line += p * f64::from(cells.end - cells.start);
                }
                p_line / f64::from(layout::CELLS_PER_LINE)
            }
        }
    }
}

/// Sparse per-die fault memo: the cross-voltage factorization of a
/// persistent fault model's maps.
///
/// Cell hashes depend only on `(seed, line, cell)` — voltage enters solely
/// through the per-line (or per column group) probability threshold — so
/// all maps of one die over a voltage grid share one hash pass. The table
/// is built once at the grid's *cap* (lowest) voltage, keeping only the
/// cells faulty there (their count is tiny at realistic `p_cell`); by
/// voltage-monotone nesting, the fault set at any voltage `>=` the cap is
/// a subset of these candidates, so [`Self::fault_map_at`] derives a
/// bit-identical [`FaultMap`] by filtering the sparse candidate list
/// against that voltage's thresholds instead of re-hashing every cell of
/// every line.
#[derive(Debug, Clone)]
pub struct DieFaultTable {
    /// Per line, in cell order: `(h >> 11, fault)` for every candidate
    /// cell (faulty at the cap voltage).
    candidates: Vec<Box<[(u64, CellFault)]>>,
    /// Per-line frozen variation draws.
    z: Vec<f64>,
    groups: CellGroups,
    cap_vdd: NormVdd,
    freq: FreqGhz,
    seed: u64,
}

impl DieFaultTable {
    /// Builds the candidate table of [`FaultMap::generate`]'s model for
    /// `lines` physical lines, covering all voltages `>= cap_vdd` at
    /// frequency `freq`.
    pub fn build(
        lines: usize,
        model: &CellFailureModel,
        cap_vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
    ) -> Self {
        Self::build_grouped(
            lines,
            model,
            cap_vdd,
            freq,
            seed,
            CellGroups::Line,
            |_, base| standard_normal(hash3_with_base(base, 0xF00D)),
        )
    }

    /// Builds a candidate table whose line `l` draws `z_of(l, base)`, with
    /// `base = hash3_base(seed, l)`, and whose cells draw from `groups`.
    /// Cell `c` of line `l` fails at `vdd` iff its key
    /// `hash3(seed, l, c) >> 11` falls below the threshold of its group's
    /// probability there.
    pub(crate) fn build_grouped(
        lines: usize,
        model: &CellFailureModel,
        cap_vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
        groups: CellGroups,
        z_of: impl Fn(LineId, u64) -> f64,
    ) -> Self {
        let median = model.p_cell_median(cap_vdd, freq, FailureKind::Combined);
        let mut candidates = Vec::with_capacity(lines);
        let mut z_draws = Vec::with_capacity(lines);
        let mut scratch = Vec::new();
        let mut per_cell = [0; layout::CELLS_PER_LINE as usize];
        for line in 0..lines {
            let base = hash3_base(seed, line as u64);
            let z = z_of(line, base);
            z_draws.push(z);
            scratch.clear();
            let thresholds = groups.thresholds(&mut per_cell, |g, _| {
                unit_threshold(model.line_p(median, groups.z(z, g)))
            });
            for_each_failing_cell(base, 0..layout::CELLS_PER_LINE, 1, thresholds, |cell, h| {
                scratch.push((h >> 11, CellFault::drawn(cell, h)))
            });
            candidates.push(scratch.as_slice().into());
        }
        DieFaultTable {
            candidates,
            z: z_draws,
            groups,
            cap_vdd,
            freq,
            seed,
        }
    }

    /// Number of physical lines covered.
    pub fn lines(&self) -> usize {
        self.candidates.len()
    }

    /// The lowest voltage this table can derive maps for.
    pub fn cap_vdd(&self) -> NormVdd {
        self.cap_vdd
    }

    /// The die seed the table was drawn from.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The thresholds of group `g` of `line` at each of `medians`, checked
    /// against the group's cap-voltage threshold.
    fn group_thresholds(
        &self,
        model: &CellFailureModel,
        line: LineId,
        g: usize,
        cap_median: f64,
        medians: &[f64],
        thresholds: &mut [u64],
    ) {
        let z = self.groups.z(self.z[line], g);
        let cap_threshold = unit_threshold(model.line_p(cap_median, z));
        for (threshold, &median) in thresholds.iter_mut().zip(medians) {
            *threshold = unit_threshold(model.line_p(median, z));
            assert!(
                *threshold <= cap_threshold,
                "model not monotone against table cap at line {line}"
            );
        }
    }

    fn assert_above_cap(&self, vdd: NormVdd) {
        assert!(
            vdd.0 >= self.cap_vdd.0,
            "requested vdd {} below table cap {}",
            vdd.0,
            self.cap_vdd.0
        );
    }

    /// Derives the fault map of this die at `vdd`, bit-identical to the
    /// model's direct construction at the table's frequency and seed
    /// (`FaultMap::generate(lines, model, MapOptions::new(vdd, freq,
    /// seed))` for a table from [`Self::build`]).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is below the table's cap voltage (fault sets there
    /// may exceed the candidate pool) or if `model` disagrees with the
    /// table's cap-voltage candidate census (a different model than the
    /// table was built with).
    pub fn fault_map_at(&self, model: &CellFailureModel, vdd: NormVdd) -> FaultMap {
        self.assert_above_cap(vdd);
        let median = model.p_cell_median(vdd, self.freq, FailureKind::Combined);
        let cap_median = model.p_cell_median(self.cap_vdd, self.freq, FailureKind::Combined);
        let mut faults = Vec::with_capacity(self.lines());
        let mut mean_p_line = 0.0;
        let mut probs = Vec::with_capacity(self.groups.count());
        for (line, cands) in self.candidates.iter().enumerate() {
            let mut line_faults = Vec::new();
            let mut rest = &cands[..];
            probs.clear();
            for g in 0..self.groups.count() {
                let z = self.groups.z(self.z[line], g);
                let p = model.line_p(median, z);
                probs.push(p);
                let threshold = unit_threshold(p);
                assert!(
                    threshold <= unit_threshold(model.line_p(cap_median, z)),
                    "model not monotone against table cap at line {line}"
                );
                let end = self.groups.range(g).end;
                let (group, tail) = rest.split_at(rest.partition_point(|(_, f)| f.cell < end));
                rest = tail;
                line_faults.extend(
                    group
                        .iter()
                        .filter(|(key, _)| *key < threshold)
                        .map(|&(_, f)| f),
                );
            }
            mean_p_line += self.groups.line_mean(&probs);
            faults.push(line_faults.into_boxed_slice());
        }
        FaultMap {
            faults,
            p_cell_median: median,
            mean_p_line: mean_p_line / self.lines().max(1) as f64,
            vdd,
            freq: self.freq,
            seed: self.seed,
        }
    }

    /// This die's grid masks over `grid`, to be read line by line with
    /// [`GridMasks::line`]. One pass over the candidates replaces one
    /// derived map per grid point.
    ///
    /// # Panics
    ///
    /// Panics if `grid` has more than 64 points or a point below the cap
    /// voltage.
    pub(crate) fn grid_masks<'a>(
        &'a self,
        model: &'a CellFailureModel,
        grid: &[NormVdd],
    ) -> GridMasks<'a> {
        assert!(grid.len() <= 64, "grid masks hold at most 64 points");
        for &vdd in grid {
            self.assert_above_cap(vdd);
        }
        GridMasks {
            table: self,
            model,
            medians: grid
                .iter()
                .map(|&vdd| model.p_cell_median(vdd, self.freq, FailureKind::Combined))
                .collect(),
            cap_median: model.p_cell_median(self.cap_vdd, self.freq, FailureKind::Combined),
            thresholds: vec![0; grid.len()],
        }
    }
}

/// A [`DieFaultTable`]'s faulty cells over a voltage grid, with their
/// grid masks (see [`DieFaultTable::grid_masks`]).
#[derive(Debug)]
pub(crate) struct GridMasks<'a> {
    table: &'a DieFaultTable,
    model: &'a CellFailureModel,
    medians: Vec<f64>,
    cap_median: f64,
    thresholds: Vec<u64>,
}

impl GridMasks<'_> {
    /// Calls `emit(fault, mask)` for each cell of `line` faulty at some
    /// grid point, in cell order. Bit `g` of `mask` is set iff the cell's
    /// key falls below its group's threshold at `grid[g]`, the test
    /// [`DieFaultTable::fault_map_at`] applies, so the cell is in
    /// `fault_map_at(model, grid[g])`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range or the model disagrees with the
    /// table (see [`DieFaultTable::fault_map_at`]).
    pub(crate) fn line(&mut self, line: LineId, mut emit: impl FnMut(CellFault, u64)) {
        let table = self.table;
        // `thresholds` holds those of `group`, whose cells end before `end`.
        let (mut group, mut end) = (0, 0);
        for &(key, fault) in table.candidates[line].iter() {
            if fault.cell >= end {
                while table.groups.range(group).end <= fault.cell {
                    group += 1;
                }
                end = table.groups.range(group).end;
                table.group_thresholds(
                    self.model,
                    line,
                    group,
                    self.cap_median,
                    &self.medians,
                    &mut self.thresholds,
                );
            }
            let mask = self
                .thresholds
                .iter()
                .enumerate()
                .fold(0u64, |mask, (g, &t)| mask | (u64::from(key < t) << g));
            if mask != 0 {
                emit(fault, mask);
            }
        }
    }
}

/// Converts 64 uniform bits to a standard-normal deviate via the inverse
/// CDF (Acklam's rational approximation; far more accuracy than the fault
/// model needs).
pub(crate) fn standard_normal(h: u64) -> f64 {
    let u = crate::rng::to_unit(h).clamp(1e-12, 1.0 - 1e-12);
    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if u < P_LOW {
        let q = (-2.0 * u.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if u <= 1.0 - P_LOW {
        let q = u - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - u).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CellFailureModel {
        CellFailureModel::finfet14()
    }

    /// Optimized-construction shorthand for the tests below.
    fn build(lines: usize, vdd: NormVdd, freq: FreqGhz, seed: u64) -> FaultMap {
        FaultMap::generate(lines, &model(), MapOptions::new(vdd, freq, seed))
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
        let total_a: usize = (0..128).map(|l| a.line(l).len()).sum();
        let total_c: usize = (0..128).map(|l| c.line(l).len()).sum();
        assert_ne!((total_a, a.seed()), (total_c, c.seed()));
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
        let lines = 2000;
        let m = build(lines, NormVdd(0.575), FreqGhz::PEAK, 1);
        let total: usize = (0..lines).map(|l| m.line(l).len()).sum();
        let expected = m.mean_p_line() * lines as f64 * f64::from(layout::CELLS_PER_LINE);
        let ratio = total as f64 / expected;
        assert!((0.9..1.1).contains(&ratio), "ratio = {ratio}");
        // Heavy tail: the mean line rate far exceeds the median.
        assert!(m.mean_p_line() > m.p_cell_median());
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
            .find(|&l| m.count_in(l, layout::PARITY16) > 0)
            .expect("a parity-cell fault at 0.5 VDD");
        let corrupted = m.corrupt_parity16(line, 0);
        let stuck_ones = m
            .line(line)
            .iter()
            .filter(|f| layout::PARITY16.contains(&f.cell) && f.stuck)
            .count() as u32;
        assert_eq!(corrupted.count_ones(), stuck_ones);
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

    /// Every observable field of two maps must agree bit for bit
    /// (floats compared via `to_bits`).
    fn assert_maps_identical(a: &FaultMap, b: &FaultMap) {
        assert_eq!(a.lines(), b.lines());
        for l in 0..a.lines() {
            assert_eq!(a.line(l), b.line(l), "line {l} differs");
        }
        assert_eq!(a.p_cell_median().to_bits(), b.p_cell_median().to_bits());
        assert_eq!(a.mean_p_line().to_bits(), b.mean_p_line().to_bits());
        assert_eq!(a.seed(), b.seed());
        let ((av, af), (bv, bf)) = (a.operating_point(), b.operating_point());
        assert_eq!(
            (av.0.to_bits(), af.0.to_bits()),
            (bv.0.to_bits(), bf.0.to_bits())
        );
    }

    #[test]
    fn optimized_build_matches_dense_reference() {
        for seed in [0, 7, 42, 0xDEAD_BEEF] {
            for v in [0.5, 0.55, 0.575, 0.6, 0.625, 0.675, 1.0] {
                for f in [0.4, 1.0] {
                    let fast = build(96, NormVdd(v), FreqGhz(f), seed);
                    let options = MapOptions::new(NormVdd(v), FreqGhz(f), seed).dense();
                    let dense = FaultMap::generate(96, &model(), options);
                    assert_maps_identical(&fast, &dense);
                }
            }
        }
    }

    #[test]
    fn die_table_derivation_matches_dense_reference() {
        let cap = NormVdd(0.55);
        let table = DieFaultTable::build(128, &model(), cap, FreqGhz::PEAK, 42);
        for v in [0.55, 0.575, 0.6, 0.625, 0.65, 0.7, 1.0] {
            let derived = table.fault_map_at(&model(), NormVdd(v));
            let options = MapOptions::new(NormVdd(v), FreqGhz::PEAK, 42).dense();
            let dense = FaultMap::generate(128, &model(), options);
            assert_maps_identical(&derived, &dense);
        }
    }

    #[test]
    fn die_table_replicate_matches_build_replicate() {
        let die_seed = crate::rng::derive_seed(42, "die", &[3]);
        let table = DieFaultTable::build(64, &model(), NormVdd(0.575), FreqGhz::PEAK, die_seed);
        let derived = table.fault_map_at(&model(), NormVdd(0.6));
        let direct = build_replicate(64, NormVdd(0.6), 42, 3);
        assert_maps_identical(&derived, &direct);
    }

    #[test]
    #[should_panic(expected = "below table cap")]
    fn die_table_rejects_voltage_below_cap() {
        let table = DieFaultTable::build(8, &model(), NormVdd(0.6), FreqGhz::PEAK, 1);
        table.fault_map_at(&model(), NormVdd(0.575));
    }
}
