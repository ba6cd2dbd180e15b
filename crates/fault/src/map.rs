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
//! A model's map has one construction: its die is drawn line by line at a
//! cap voltage into a sparse candidate table (`TableDraw`, `CandidateDraw`),
//! and each map at or above the cap is filtered out of it
//! ([`crate::model::FaultModel::map`] caps the die at the map's own
//! voltage). [`FaultMap::dense_reference`] hashes every cell of the
//! stuck-at model on its own; it is the oracle that construction is
//! tested against.

use std::ops::Range;

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

/// The faults of every line of a map, packed: line `l`'s faults are
/// `cells[offsets[l]..offsets[l + 1]]`, in cell order. Constructors push
/// a line's faults and then close it with [`LineFaults::end_line`].
#[derive(Debug, Clone)]
pub(crate) struct LineFaults {
    offsets: Vec<u32>,
    cells: Vec<CellFault>,
}

impl LineFaults {
    /// An empty list with room for `lines` lines.
    pub(crate) fn with_lines(lines: usize) -> Self {
        let mut offsets = Vec::with_capacity(lines + 1);
        offsets.push(0);
        LineFaults {
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

    fn lines(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn line(&self, line: LineId) -> &[CellFault] {
        &self.cells[self.offsets[line] as usize..self.offsets[line + 1] as usize]
    }
}

/// The fault population of a cache at one operating point.
#[derive(Debug, Clone)]
pub struct FaultMap {
    faults: LineFaults,
    p_cell_median: f64,
    mean_p_line: f64,
    vdd: NormVdd,
    freq: FreqGhz,
    seed: u64,
}

impl FaultMap {
    /// The dense reference construction of a stuck-at map: one [`hash3`]
    /// and one float comparison per cell, exactly as originally specified,
    /// with no hoisted hash base, integer threshold or candidate table. The
    /// die that [`crate::model::FaultModel::map`] draws is property-tested
    /// to reproduce it bit for bit.
    pub fn dense_reference(
        lines: usize,
        model: &CellFailureModel,
        vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
    ) -> Self {
        let mut faults = LineFaults::with_lines(lines);
        let mut mean_p_line = 0.0;
        for line in 0..lines {
            let z = standard_normal(hash3(seed, line as u64, 0xF00D));
            let p = model.p_cell_for_line(vdd, freq, FailureKind::Combined, z);
            mean_p_line += p;
            for cell in 0..layout::CELLS_PER_LINE {
                let h = hash3(seed, line as u64, u64::from(cell));
                if to_unit(h) < p {
                    faults.push(CellFault {
                        cell,
                        stuck: h & (1 << 63) != 0,
                    });
                }
            }
            faults.end_line();
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
        faults: LineFaults,
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
        let mut packed = LineFaults::with_lines(faults.len());
        for line in &faults {
            for &fault in line {
                packed.push(fault);
            }
            packed.end_line();
        }
        FaultMap {
            faults: packed,
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
            faults: LineFaults {
                offsets: vec![0; lines + 1],
                cells: Vec::new(),
            },
            p_cell_median: 0.0,
            mean_p_line: 0.0,
            vdd: NormVdd::NOMINAL,
            freq: FreqGhz::PEAK,
            seed: 0,
        }
    }

    /// Number of physical lines covered.
    pub fn lines(&self) -> usize {
        self.faults.lines()
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
    #[inline]
    pub fn line(&self, line: LineId) -> &[CellFault] {
        self.faults.line(line)
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

    /// Applies stuck-at corruption to the 16 training-mode parity cells.
    pub fn corrupt_parity16(&self, line: LineId, parity: u16) -> u16 {
        let mut out = parity;
        for f in self.line(line) {
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
    /// `probs`, in the order and rounding of the model's reference
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
/// persistent fault model's maps, and the one construction of every map a
/// model draws ([`crate::model::FaultModel::map`] reads a table capped at
/// its own voltage).
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
///
/// Since a line's draw depends only on its own cells and die-wide values,
/// a table can be drawn in contiguous line ranges on any threads
/// ([`DieLines`]) and joined by moving each line's candidates, never
/// copying them. They stay one exact-size slice per line: packed into one
/// vector with line offsets, a die's candidates (about 11 MB for a 2 MiB
/// L2 at 0.575 x VDD) were measured to raise the peak resident memory of
/// repeated sweeps by half or more, since a freed allocation that large
/// stays resident with the allocator.
#[derive(Debug, Clone)]
pub(crate) struct DieFaultTable {
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

/// A contiguous range of a die's lines, drawn on its own: the unit a die
/// is joined from ([`crate::model::DieDraw`]).
#[derive(Debug)]
pub struct DieLines {
    range: Range<LineId>,
    candidates: Vec<Box<[(u64, CellFault)]>>,
    z: Vec<f64>,
}

/// The recipe of one die's [`DieFaultTable`]: its lines draw
/// `z_of(l, base)`, with `base = hash3_base(seed, l)`, and their cells
/// draw from `groups`. Cell `c` of line `l` fails at `vdd` iff its key
/// `hash3(seed, l, c) >> 11` falls below the threshold of its group's
/// probability there.
pub(crate) struct TableDraw<'a, Z> {
    lines: usize,
    model: &'a CellFailureModel,
    groups: CellGroups,
    cap_vdd: NormVdd,
    freq: FreqGhz,
    seed: u64,
    z_of: Z,
}

impl<'a, Z: Fn(LineId, u64) -> f64> TableDraw<'a, Z> {
    /// The table of `lines` lines covering all voltages `>= cap_vdd` at
    /// frequency `freq`.
    pub(crate) fn new(
        lines: usize,
        model: &'a CellFailureModel,
        groups: CellGroups,
        cap_vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
        z_of: Z,
    ) -> Self {
        TableDraw {
            lines,
            model,
            groups,
            cap_vdd,
            freq,
            seed,
            z_of,
        }
    }

    /// Draws the lines `range` of the die.
    ///
    /// # Panics
    ///
    /// Panics if `range` ends past the die's lines.
    pub(crate) fn lines(&self, range: Range<LineId>) -> DieLines {
        assert!(range.end <= self.lines, "lines {range:?} past the die");
        let mut draw = CandidateDraw::new(
            self.model,
            &self.groups,
            self.cap_vdd,
            self.freq,
            self.seed,
            &self.z_of,
        );
        let mut candidates = Vec::with_capacity(range.len());
        let mut z = Vec::with_capacity(range.len());
        let mut scratch = Vec::new();
        for line in range.clone() {
            z.push(draw.line(line, &mut scratch));
            candidates.push(scratch.as_slice().into());
        }
        DieLines {
            range,
            candidates,
            z,
        }
    }

    /// The die's table from its line ranges `parts`, concatenated in
    /// order. The lines' candidates move; they are never copied. The
    /// first part's vectors grow into the table's, so a die drawn in one
    /// range is joined without allocating, and the join allocates where
    /// the draw did, not on the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics unless `parts` cover the die's lines in order, without
    /// gaps or overlaps.
    pub(crate) fn join(&self, parts: Vec<DieLines>) -> DieFaultTable {
        let mut parts = parts.into_iter();
        let (mut candidates, mut z) = match parts.next() {
            Some(first) => {
                assert_eq!(first.range.start, 0, "parts must start at line 0");
                (first.candidates, first.z)
            }
            None => (Vec::new(), Vec::new()),
        };
        candidates.reserve_exact(self.lines.saturating_sub(z.len()));
        z.reserve_exact(self.lines.saturating_sub(z.len()));
        for part in parts {
            assert_eq!(part.range.start, z.len(), "parts must be contiguous");
            candidates.extend(part.candidates);
            z.extend(part.z);
        }
        assert_eq!(z.len(), self.lines, "parts must cover the die");
        DieFaultTable {
            candidates,
            z,
            groups: self.groups.clone(),
            cap_vdd: self.cap_vdd,
            freq: self.freq,
            seed: self.seed,
        }
    }
}

impl DieFaultTable {
    /// Derives the fault map of this die at `vdd`, bit-identical to the
    /// model's reference construction at the table's frequency and seed
    /// ([`FaultMap::dense_reference`] for a stuck-at table).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is below the table's cap voltage (fault sets there
    /// may exceed the candidate pool) or if `model` disagrees with the
    /// table's cap-voltage candidate census (a different model than the
    /// table was built with).
    pub(crate) fn fault_map_at(&self, model: &CellFailureModel, vdd: NormVdd) -> FaultMap {
        assert!(
            vdd.0 >= self.cap_vdd.0,
            "requested vdd {} below table cap {}",
            vdd.0,
            self.cap_vdd.0
        );
        let median = model.p_cell_median(vdd, self.freq, FailureKind::Combined);
        let cap_median = model.p_cell_median(self.cap_vdd, self.freq, FailureKind::Combined);
        let mut faults = LineFaults::with_lines(self.z.len());
        let mut mean_p_line = 0.0;
        let mut probs = Vec::with_capacity(self.groups.count());
        for (line, cands) in self.candidates.iter().enumerate() {
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
                for &(key, fault) in group {
                    if key < threshold {
                        faults.push(fault);
                    }
                }
            }
            mean_p_line += self.groups.line_mean(&probs);
            faults.end_line();
        }
        FaultMap {
            faults,
            p_cell_median: median,
            mean_p_line: mean_p_line / self.z.len().max(1) as f64,
            vdd,
            freq: self.freq,
            seed: self.seed,
        }
    }
}

/// The variation draw of a line whose hash base is `base`, shared by all
/// of its cells: the stuck-at model's `z_of` (see [`TableDraw`]).
pub(crate) fn line_z(_: LineId, base: u64) -> f64 {
    standard_normal(hash3_with_base(base, 0xF00D))
}

/// One die's lines drawn at a cap voltage, one line at a time: every cell
/// of a line is hashed once, and the cells faulty at the cap are kept as
/// its candidates. The one per-line draw behind every [`DieFaultTable`]
/// (and so every map a model draws) and a Vmin campaign's [`LineMasks`].
pub(crate) struct CandidateDraw<'a, Z> {
    model: &'a CellFailureModel,
    groups: &'a CellGroups,
    cap_median: f64,
    seed: u64,
    z_of: Z,
    per_cell: [u64; layout::CELLS_PER_LINE as usize],
}

impl<'a, Z: Fn(LineId, u64) -> f64> CandidateDraw<'a, Z> {
    /// A draw whose line `l` has variation draw `z_of(l, base)`, with
    /// `base = hash3_base(seed, l)`, and whose cells draw from `groups`.
    pub(crate) fn new(
        model: &'a CellFailureModel,
        groups: &'a CellGroups,
        cap_vdd: NormVdd,
        freq: FreqGhz,
        seed: u64,
        z_of: Z,
    ) -> Self {
        CandidateDraw {
            model,
            groups,
            cap_median: model.p_cell_median(cap_vdd, freq, FailureKind::Combined),
            seed,
            z_of,
            per_cell: [0; layout::CELLS_PER_LINE as usize],
        }
    }

    /// Replaces `out` with the candidates of `line`, `(h >> 11, fault)`
    /// for each cell faulty at the cap voltage, in cell order, and returns
    /// the line's variation draw.
    pub(crate) fn line(&mut self, line: LineId, out: &mut Vec<(u64, CellFault)>) -> f64 {
        let base = hash3_base(self.seed, line as u64);
        let z = (self.z_of)(line, base);
        let (model, groups, cap_median) = (self.model, self.groups, self.cap_median);
        let thresholds = groups.thresholds(&mut self.per_cell, |g, _| {
            unit_threshold(model.line_p(cap_median, groups.z(z, g)))
        });
        out.clear();
        for_each_failing_cell(base, 0..layout::CELLS_PER_LINE, 1, thresholds, |cell, h| {
            out.push((h >> 11, CellFault::drawn(cell, h)))
        });
        z
    }
}

/// A persistent model's die over a voltage grid, drawn one line at a
/// time: each line's candidates at the grid's lowest voltage (its cap)
/// with each cell's grid mask. It holds one line, never the die, and each
/// line equals what a [`DieFaultTable`] built at the cap derives at every
/// grid point.
pub(crate) struct LineMasks<'a, Z> {
    draw: CandidateDraw<'a, Z>,
    /// The median cell probability at each grid point.
    medians: Vec<f64>,
    /// The thresholds of one cell group at each grid point.
    thresholds: Vec<u64>,
    candidates: Vec<(u64, CellFault)>,
    masks: Vec<(CellFault, u64)>,
}

impl<'a, Z: Fn(LineId, u64) -> f64> LineMasks<'a, Z> {
    /// The grid masks of the die whose lines draw as
    /// [`CandidateDraw::new`] describes.
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
        let cap = NormVdd(grid.iter().fold(f64::INFINITY, |cap, vdd| cap.min(vdd.0)));
        LineMasks {
            draw: CandidateDraw::new(model, groups, cap, freq, seed, z_of),
            medians: grid
                .iter()
                .map(|&vdd| model.p_cell_median(vdd, freq, FailureKind::Combined))
                .collect(),
            thresholds: vec![0; grid.len()],
            candidates: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// The cells of `line` faulty at some grid point, in cell order, each
    /// with its grid mask. Bit `g` of a mask is set iff the cell's key
    /// falls below its group's threshold at `grid[g]`, the test
    /// [`DieFaultTable::fault_map_at`] applies, so the cell is in the
    /// model's map at `grid[g]`.
    ///
    /// # Panics
    ///
    /// Panics if the model's probability at some grid point exceeds the
    /// one at the cap, where the candidates were drawn.
    pub(crate) fn line(&mut self, line: LineId) -> &[(CellFault, u64)] {
        let z = self.draw.line(line, &mut self.candidates);
        let (model, groups, cap_median) = (self.draw.model, self.draw.groups, self.draw.cap_median);
        self.masks.clear();
        // `thresholds` holds those of `group`, whose cells end before `end`.
        let (mut group, mut end) = (0, 0);
        for &(key, fault) in &self.candidates {
            if fault.cell >= end {
                while groups.range(group).end <= fault.cell {
                    group += 1;
                }
                end = groups.range(group).end;
                let z = groups.z(z, group);
                let cap_threshold = unit_threshold(model.line_p(cap_median, z));
                for (threshold, &median) in self.thresholds.iter_mut().zip(&self.medians) {
                    *threshold = unit_threshold(model.line_p(median, z));
                    assert!(
                        *threshold <= cap_threshold,
                        "model not monotone against the grid's cap at line {line}"
                    );
                }
            }
            let mask = self
                .thresholds
                .iter()
                .enumerate()
                .fold(0u64, |mask, (g, &t)| mask | (u64::from(key < t) << g));
            if mask != 0 {
                self.masks.push((fault, mask));
            }
        }
        &self.masks
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
    fn die_table_derivation_matches_dense_reference() {
        let die = stuck_at()
            .die(128, NormVdd(0.55), FreqGhz::PEAK, 42)
            .unwrap();
        for v in [0.55, 0.575, 0.6, 0.625, 0.65, 0.7, 1.0] {
            let derived = die.map_at(NormVdd(v));
            let dense = FaultMap::dense_reference(128, &model(), NormVdd(v), FreqGhz::PEAK, 42);
            assert_maps_identical(&derived, &dense);
        }
    }

    #[test]
    fn die_table_replicate_matches_build_replicate() {
        let die_seed = crate::rng::derive_seed(42, "die", &[3]);
        let die = stuck_at()
            .die(64, NormVdd(0.575), FreqGhz::PEAK, die_seed)
            .unwrap();
        let derived = die.map_at(NormVdd(0.6));
        let direct = build_replicate(64, NormVdd(0.6), 42, 3);
        assert_maps_identical(&derived, &direct);
    }

    #[test]
    #[should_panic(expected = "below table cap")]
    fn die_table_rejects_voltage_below_cap() {
        let die = stuck_at().die(8, NormVdd(0.6), FreqGhz::PEAK, 1).unwrap();
        die.map_at(NormVdd(0.575));
    }

    #[test]
    fn die_table_applies_the_dense_comparison_at_the_threshold() {
        // No hashed key lands on a threshold by chance, so plant keys
        // just below, at and just above the threshold of 0.6 x VDD: only
        // the one the dense reference's `to_unit(h) < p` admits may stay.
        let (m, vdd, z) = (model(), NormVdd(0.6), 0.25);
        let p = m.line_p(
            m.p_cell_median(vdd, FreqGhz::PEAK, FailureKind::Combined),
            z,
        );
        let t = unit_threshold(p);
        let keys = [t - 1, t, t + 1];
        let table = DieFaultTable {
            candidates: vec![(0..3)
                .map(|cell| (keys[cell], CellFault::drawn(cell as u16, 0)))
                .collect()],
            z: vec![z],
            groups: CellGroups::Line,
            cap_vdd: NormVdd(0.55),
            freq: FreqGhz::PEAK,
            seed: 0,
        };
        let kept: Vec<u16> = table
            .fault_map_at(&m, vdd)
            .line(0)
            .iter()
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
