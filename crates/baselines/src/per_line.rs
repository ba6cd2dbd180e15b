//! The per-line ECC baselines the paper compares Killi against (§5).
//!
//! Each baseline keeps checkbits beside every line plus a line-disable
//! map. [`PerLineEcc`] implements all five registered ones; they differ
//! only in their [`Code`] and in how the disable map becomes known:
//!
//! | scheme | code | line health |
//! |---|---|---|
//! | `flair`, `secded` | SECDED | MBIST oracle: >= 2 faults disable a line |
//! | `dected` | DEC-TED | MBIST oracle: >= 3 faults disable a line |
//! | `ms-ecc` | OLSC(m, t) | MBIST oracle: > t faults in any block |
//! | `flair-online` | SECDED | FLAIR's rotating way-pair test |
//!
//! The oracle follows the paper's methodology (§5.1): "we assume a
//! pre-characterization phase (MBIST) where each line in the cache is
//! bitmapped and flagged either as enabled or disabled". Its disable map
//! is the scheme's registered [`LineRule`] applied to each line's injected
//! faults, which is exactly what MBIST would report, and the runtime
//! excludes the characterization cost, as in the paper.
//!
//! SECDED and DEC-TED checkbits live in the low-voltage array, so the fault
//! map corrupts them like the data. MS-ECC's OLSC checkbits are modelled as
//! protected storage: the paper credits MS-ECC with full-strength
//! correction, which slightly favours it (recorded in EXPERIMENTS.md).
//!
//! FLAIR's online mode (Qureshi & Chishti, DSN'13) is what the paper's
//! headline runs exclude (§5.3): MBIST tests one pair of ways at a time
//! while the untested ways run under dual modular redundancy, leaving 7/16
//! of a 16-way cache usable until every way pair has been characterized.

use std::sync::Arc;

use killi::ecc_cache::EccPayload;
use killi::registry::{CellSpan, LineRule};
use killi_ecc::bch::{dected, DectedDecode};
use killi_ecc::bits::Line512;
use killi_ecc::olsc::{OlscDecode, OlscLine};
use killi_ecc::secded::{secded, SecdedDecode};
use killi_fault::map::{FaultMap, LineId};
use killi_obs::{Counter, KilliEvent, MetricSet, Sink};
use killi_sim::cache::BitVec;
use killi_sim::protection::{FillOutcome, LineProtection, ReadOutcome, SetClasses};

/// Per-line SECDED keeps any single-fault line (data + checkbit cells) in
/// service; a second fault disables the line.
pub(crate) const SECDED_RULE: LineRule = LineRule::Total {
    span: CellSpan::DataSecded,
    max_faults: 1,
};

/// FLAIR's online test runs on way pairs, so it needs an even way count.
pub(crate) fn check_way_pairs(ways: usize) -> Result<(), String> {
    if ways.is_multiple_of(2) {
        Ok(())
    } else {
        Err("way pairs need an even way count".to_string())
    }
}

/// A per-line checkbit code.
#[derive(Debug, Clone)]
pub enum Code {
    /// SECDED(523, 512) in fault-corrupted low-voltage cells.
    Secded,
    /// DEC-TED BCH in fault-corrupted low-voltage cells.
    Dected,
    /// OLSC(m, t) in protected cells.
    Olsc(OlscLine),
}

impl Code {
    /// Cycles the check adds to every hit (OLSC's majority logic is
    /// single-cycle-class logic).
    fn check_latency(&self) -> u32 {
        match self {
            Code::Dected => 2,
            Code::Secded | Code::Olsc(_) => 1,
        }
    }

    /// Checks `stored` against its checkbits, correcting it in place when
    /// the code can.
    fn check(&self, stored: &mut Line512, payload: &EccPayload) -> ReadOutcome {
        let clean = |corrected| ReadOutcome::Clean {
            extra_cycles: 0,
            corrected,
        };
        let miss = ReadOutcome::ErrorMiss { extra_cycles: 0 };
        match (self, payload) {
            (Code::Secded, &EccPayload::Secded { code, .. }) => {
                match secded().decode(stored, code) {
                    SecdedDecode::Clean | SecdedDecode::CorrectedCheck => clean(false),
                    SecdedDecode::CorrectedData { bit } => {
                        stored.flip_bit(bit);
                        clean(true)
                    }
                    SecdedDecode::DetectedDouble | SecdedDecode::DetectedUncorrectable => miss,
                }
            }
            (Code::Dected, &EccPayload::Dected(code)) => match dected().decode(stored, code) {
                DectedDecode::Clean => clean(false),
                DectedDecode::Corrected { bits } => {
                    let mut any = false;
                    for bit in bits.into_iter().flatten() {
                        stored.flip_bit(bit);
                        any = true;
                    }
                    clean(any)
                }
                DectedDecode::Detected => miss,
            },
            (Code::Olsc(codec), EccPayload::Olsc(check)) => match codec.decode(stored, check) {
                OlscDecode::Clean => clean(false),
                OlscDecode::Corrected => clean(true),
                OlscDecode::Detected => miss,
            },
            _ => unreachable!("checkbits always come from the scheme's own code"),
        }
    }
}

/// When a [`PerLineEcc`]'s MBIST disable map becomes known.
#[derive(Debug)]
enum Health {
    /// Characterized before the run: the whole map applies from the start.
    Oracle,
    /// Learned online, one way pair at a time (FLAIR's training mode).
    PairTest(PairTest),
}

/// FLAIR's rotating way-pair test. Pairs are tested in way order, so the
/// ways below the pair under test are characterized and the ways above it
/// are not.
#[derive(Debug)]
struct PairTest {
    ways: usize,
    /// Fill and read-hit accesses spent testing one way pair.
    accesses_per_pair: u64,
    /// The way pair under test; `None` once every pair is characterized.
    pair: Option<usize>,
    accesses: u64,
}

impl PairTest {
    /// Advances the test clock by one access; finishing a pair's test
    /// reveals its lines' verdicts and moves on to the next pair.
    fn tick(&mut self) {
        let Some(pair) = self.pair else {
            return;
        };
        self.accesses += 1;
        if self.accesses.is_multiple_of(self.accesses_per_pair) {
            self.pair = Some(pair + 1).filter(|&next| next < self.ways / 2);
        }
    }

    /// The ways of every set whose MBIST verdict is known, as a bitmask:
    /// those below the pair under test, or all once every pair is tested.
    fn tested_ways(&self) -> u64 {
        low_ways(self.pair.map_or(self.ways, |pair| 2 * pair))
    }
}

/// Ways `0..n` of a set as a bitmask, `n <= 64`.
fn low_ways(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

/// Every even way of a set: the ways FLAIR keeps usable while their pair
/// runs DMR.
const EVEN_WAYS: u64 = 0x5555_5555_5555_5555;

/// A per-line ECC baseline: one [`Code`], one checkbit slot per line, and
/// a line-disable map from the MBIST oracle or FLAIR's online test.
pub struct PerLineEcc {
    name: &'static str,
    code: Code,
    /// Corrupts the SECDED and DEC-TED checkbits stored in low-voltage
    /// cells.
    map: Arc<FaultMap>,
    /// Stored checkbits of each valid line.
    checkbits: Vec<Option<EccPayload>>,
    /// MBIST verdict per line, one bit each: set when the rule does not
    /// admit the line's faults.
    disabled: BitVec,
    health: Health,
    corrections: u64,
    detections: u64,
    sink: Sink,
}

impl PerLineEcc {
    /// A baseline over `lines` lines whose MBIST oracle disables every
    /// line `rule` does not admit.
    pub fn with_oracle(
        name: &'static str,
        code: Code,
        rule: LineRule,
        map: Arc<FaultMap>,
        lines: usize,
    ) -> Result<Self, String> {
        if map.lines() < lines {
            return Err("fault map too small".to_string());
        }
        let mut disabled = BitVec::zeroed(lines);
        for line in 0..lines {
            if !rule.admits(map.line(line)) {
                disabled.set(line, true);
            }
        }
        Ok(PerLineEcc {
            name,
            code,
            map,
            checkbits: vec![None; lines],
            disabled,
            health: Health::Oracle,
            corrections: 0,
            detections: 0,
            sink: Sink::none(),
        })
    }

    /// FLAIR with its online training: per-line SECDED whose MBIST
    /// verdicts become known one way pair at a time, after
    /// `accesses_per_pair` fill and read-hit accesses per pair.
    pub fn flair_online(
        map: Arc<FaultMap>,
        lines: usize,
        ways: usize,
        accesses_per_pair: u64,
    ) -> Result<Self, String> {
        let mut scheme = Self::with_oracle("flair-online", Code::Secded, SECDED_RULE, map, lines)?;
        check_way_pairs(ways)?;
        scheme.health = Health::PairTest(PairTest {
            ways,
            accesses_per_pair: accesses_per_pair.max(1),
            pair: Some(0),
            accesses: 0,
        });
        Ok(scheme)
    }

    /// Advances FLAIR's test clock, if the scheme has one.
    fn tick(&mut self) {
        if let Health::PairTest(test) = &mut self.health {
            test.tick();
        }
    }

    /// Lines whose disabled verdict is known.
    fn disabled_lines(&self) -> u64 {
        let count = match &self.health {
            Health::Oracle => self.disabled.count_ones(),
            Health::PairTest(test) => {
                let (lines, tested) = (self.checkbits.len(), test.tested_ways());
                (0..lines)
                    .step_by(test.ways)
                    .map(|first| {
                        let set = self.disabled.range(first, test.ways.min(lines - first));
                        (set & tested).count_ones() as usize
                    })
                    .sum()
            }
        };
        count as u64
    }
}

impl LineProtection for PerLineEcc {
    fn name(&self) -> &str {
        self.name
    }

    fn reset(&mut self) {
        // MBIST verdicts describe the silicon and stay; FLAIR's online test
        // starts over, and the stored checkbits go.
        if let Health::PairTest(test) = &mut self.health {
            test.pair = Some(0);
            test.accesses = 0;
        }
        self.checkbits.fill(None);
    }

    fn victim_class(&self, line: LineId) -> Option<u8> {
        if let Health::PairTest(PairTest {
            ways,
            pair: Some(pair),
            ..
        }) = &self.health
        {
            let way = line % ways;
            if way / 2 == *pair {
                return None; // under MBIST test
            }
            if way / 2 > *pair {
                // Untested ways run DMR: odd ways mirror their even
                // partner, halving their capacity.
                return way.is_multiple_of(2).then_some(0);
            }
        }
        (!self.disabled.get(line)).then_some(0)
    }

    fn victim_classes(&self, first: LineId, ways: usize) -> SetClasses {
        // The set's MBIST verdicts as one word: every usable way is class
        // 0.
        let mut usable = !self.disabled.range(first, ways) & low_ways(ways);
        if let Health::PairTest(
            test @ PairTest {
                pair: Some(pair), ..
            },
        ) = &self.health
        {
            debug_assert!(ways == test.ways && first.is_multiple_of(ways));
            // The ways below the pair under test are characterized, and
            // the ways above it run DMR on their even ways.
            let untested = low_ways(ways) & !low_ways(2 * pair + 2);
            usable = usable & test.tested_ways() | untested & EVEN_WAYS;
        }
        SetClasses {
            by_class: [usable, 0, 0, 0],
        }
    }

    fn on_fill(&mut self, line: LineId, data: &Line512) -> FillOutcome {
        self.tick();
        self.checkbits[line] = Some(match &self.code {
            Code::Secded => EccPayload::Secded {
                code: self.map.corrupt_secded(line, secded().encode(data)),
                parity_hi: 0,
            },
            Code::Dected => {
                EccPayload::Dected(self.map.corrupt_dected(line, dected().encode(data)))
            }
            Code::Olsc(codec) => EccPayload::Olsc(codec.encode(data)),
        });
        // Every line has its own slot, so a fill never displaces another
        // line's checkbits.
        FillOutcome::default()
    }

    fn on_read_hit(&mut self, line: LineId, stored: &mut Line512) -> ReadOutcome {
        self.tick();
        let Some(payload) = self.checkbits[line] else {
            // Valid lines always carry checkbits; refetch conservatively.
            debug_assert!(false, "read hit without stored checkbits");
            return ReadOutcome::ErrorMiss { extra_cycles: 0 };
        };
        let outcome = self.code.check(stored, &payload);
        let (corrected, detected) = match outcome {
            ReadOutcome::Clean { corrected, .. } => (corrected, false),
            ReadOutcome::ErrorMiss { .. } => (false, true),
        };
        if corrected {
            self.corrections += 1;
        }
        if detected {
            self.detections += 1;
            self.checkbits[line] = None;
        }
        self.sink.emit(|| KilliEvent::SyndromeObservation {
            line: line as u32,
            corrected,
            detected,
        });
        outcome
    }

    fn on_evict(&mut self, line: LineId, _stored: &Line512) {
        self.checkbits[line] = None;
    }

    fn hit_latency_extra(&self) -> u32 {
        self.code.check_latency()
    }

    fn attach_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    fn metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.set(Counter::DisabledLines, self.disabled_lines());
        m.set(Counter::Corrections, self.corrections);
        m.set(Counter::Detections, self.detections);
        m
    }
}

impl std::fmt::Debug for PerLineEcc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PerLineEcc")
            .field("name", &self.name)
            .field("code", &self.code)
            .field("disabled", &self.disabled_lines())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DECTED_RULE;
    use killi_fault::map::{layout, CellFault};
    use killi_fault::rng::hash3;

    fn fault(cell: u16) -> CellFault {
        CellFault { cell, stuck: true }
    }

    fn map_with(faults: Vec<(usize, Vec<CellFault>)>, lines: usize) -> Arc<FaultMap> {
        let mut per_line = vec![Vec::new(); lines];
        for (line, fs) in faults {
            per_line[line] = fs;
        }
        Arc::new(FaultMap::from_faults(per_line))
    }

    fn flair(map: &Arc<FaultMap>) -> PerLineEcc {
        PerLineEcc::with_oracle("flair", Code::Secded, SECDED_RULE, Arc::clone(map), 16).unwrap()
    }

    fn dected(map: &Arc<FaultMap>) -> PerLineEcc {
        PerLineEcc::with_oracle("dected", Code::Dected, DECTED_RULE, Arc::clone(map), 16).unwrap()
    }

    fn ms_ecc(map: &Arc<FaultMap>) -> PerLineEcc {
        let rule = LineRule::PerBlock {
            block_cells: 64,
            max_faults: 2,
        };
        let code = Code::Olsc(OlscLine::new(8, 2));
        PerLineEcc::with_oracle("ms-ecc", code, rule, Arc::clone(map), 16).unwrap()
    }

    fn disabled(s: &PerLineEcc) -> u64 {
        s.metrics().get(Counter::DisabledLines)
    }

    /// Fills `line` with `data` and reads back what the array holds:
    /// `Some(corrected)` with the delivered data, or `None` on an error
    /// miss.
    fn fill_and_read(
        s: &mut PerLineEcc,
        map: &FaultMap,
        line: LineId,
        data: &Line512,
    ) -> (Option<bool>, Line512) {
        let fill = s.on_fill(line, data);
        assert!(fill.accepted && fill.invalidate.is_none());
        let mut arr = *data;
        map.corrupt_data(line, &mut arr);
        let outcome = match s.on_read_hit(line, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => Some(corrected),
            ReadOutcome::ErrorMiss { .. } => None,
        };
        (outcome, arr)
    }

    #[test]
    fn oracle_disables_by_threshold() {
        let map = map_with(
            vec![
                (0, vec![fault(1)]),
                (1, vec![fault(1), fault(2)]),
                (2, vec![fault(1), fault(2), fault(3)]),
            ],
            16,
        );
        let flair = flair(&map);
        assert_eq!(disabled(&flair), 2, "2 and 3 faults disabled");
        assert_eq!(flair.victim_class(0), Some(0));
        assert_eq!(flair.victim_class(1), None);

        let dected = dected(&map);
        assert_eq!(disabled(&dected), 1, "only >= 3 faults disabled");
        assert_eq!(dected.victim_class(1), Some(0));
        assert_eq!(dected.victim_class(2), None);
    }

    #[test]
    fn checkbit_cell_faults_count_toward_disable() {
        let map = map_with(vec![(0, vec![fault(layout::SECDED.start), fault(5)])], 16);
        assert_eq!(disabled(&flair(&map)), 1);
        // The same fault in a DEC-TED checkbit cell is not in SECDED's span.
        let map = map_with(vec![(0, vec![fault(layout::DECTED.start), fault(5)])], 16);
        assert_eq!(disabled(&flair(&map)), 0);
    }

    #[test]
    fn secded_corrects_single_fault_and_passes_clean_lines() {
        let map = map_with(vec![(0, vec![fault(10)])], 16);
        let mut s = flair(&map);
        let data = Line512::zero();
        let (outcome, arr) = fill_and_read(&mut s, &map, 0, &data);
        assert_eq!(outcome, Some(true));
        assert_eq!(arr, data);
        let (outcome, arr) = fill_and_read(&mut s, &map, 1, &data);
        assert_eq!(outcome, Some(false));
        assert_eq!(arr, data);
        assert_eq!(s.metrics().get(Counter::Corrections), 1);
        assert_eq!(s.hit_latency_extra(), 1);
    }

    #[test]
    fn dected_corrects_double_fault() {
        let map = map_with(vec![(0, vec![fault(10), fault(200)])], 16);
        let mut s = dected(&map);
        let data = Line512::zero();
        let (outcome, arr) = fill_and_read(&mut s, &map, 0, &data);
        assert_eq!(outcome, Some(true));
        assert_eq!(arr, data);
        assert_eq!(s.metrics().get(Counter::Corrections), 1);
        assert_eq!(s.hit_latency_extra(), 2);
    }

    #[test]
    fn soft_error_on_top_of_fault_detected_not_silent() {
        // FLAIR's known weakness (§2.3): SECDED alone on a line with one LV
        // fault plus one soft error can only *detect*.
        let map = map_with(vec![(0, vec![fault(10)])], 16);
        let mut s = flair(&map);
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        arr.flip_bit(300); // soft error
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::ErrorMiss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.metrics().get(Counter::Detections), 1);
    }

    #[test]
    fn corrupted_checkbit_cells_still_handled() {
        // A fault in a SECDED checkbit cell alone: correctable, data clean.
        let map = map_with(vec![(0, vec![fault(layout::SECDED.start + 2)])], 16);
        let mut s = flair(&map);
        let data = Line512::zero();
        let (outcome, arr) = fill_and_read(&mut s, &map, 0, &data);
        assert!(outcome.is_some());
        assert_eq!(arr, data);
    }

    #[test]
    fn reset_clears_checkbits_but_keeps_oracle_and_counts() {
        let map = map_with(
            vec![(0, vec![fault(10)]), (1, vec![fault(1), fault(2)])],
            16,
        );
        let mut s = flair(&map);
        let data = Line512::zero();
        fill_and_read(&mut s, &map, 0, &data);
        s.on_fill(2, &data);
        s.on_evict(2, &data);
        s.reset();
        assert_eq!(disabled(&s), 1, "oracle map survives reset");
        assert_eq!(s.metrics().get(Counter::Corrections), 1, "counts survive");
        assert_eq!(s.checkbits, vec![None; 16], "no checkbits survive");
    }

    #[test]
    fn metrics_count_disabled_lines_and_corrections() {
        let map = map_with(vec![(0, vec![fault(3), fault(40)])], 16);
        let mut s = flair(&map);
        assert_eq!(s.victim_class(0), None, "two-fault line disabled");
        let data = Line512::from_seed(7);
        let (outcome, _) = fill_and_read(&mut s, &map, 1, &data);
        assert_eq!(outcome, Some(false));
        s.on_evict(1, &data);
        let m = s.metrics();
        assert_eq!(m.get(Counter::DisabledLines), 1);
        assert_eq!(m.get(Counter::Corrections), 0);
        assert_eq!(m.get(Counter::Detections), 0);
    }

    #[test]
    fn undersized_map_is_an_error() {
        let map = map_with(vec![], 16);
        let err = PerLineEcc::with_oracle("flair", Code::Secded, SECDED_RULE, Arc::clone(&map), 64)
            .unwrap_err();
        assert_eq!(err, "fault map too small");
        let err = PerLineEcc::flair_online(map, 64, 16, 1).unwrap_err();
        assert_eq!(err, "fault map too small");
    }

    #[test]
    fn ms_ecc_corrects_many_spread_faults() {
        // 8 faults, one per 64-bit block: all correctable.
        let cells: Vec<CellFault> = (0..8).map(|b| fault(b * 64 + 3)).collect();
        let map = map_with(vec![(0, cells)], 16);
        let mut s = ms_ecc(&map);
        assert_eq!(disabled(&s), 0);
        let data = Line512::zero();
        let (outcome, arr) = fill_and_read(&mut s, &map, 0, &data);
        assert_eq!(outcome, Some(true));
        assert_eq!(arr, data);
        assert_eq!(s.hit_latency_extra(), 1);
    }

    #[test]
    fn ms_ecc_oracle_disables_overloaded_blocks_only() {
        // Three faults in one 64-bit block exceed t = 2; three spread
        // faults do not.
        let map = map_with(
            vec![
                (0, vec![fault(1), fault(9), fault(17)]),
                (1, vec![fault(1), fault(70), fault(140)]),
            ],
            16,
        );
        let s = ms_ecc(&map);
        assert_eq!(disabled(&s), 1);
        assert_eq!(s.victim_class(0), None);
        assert_eq!(s.victim_class(1), Some(0));
    }

    #[test]
    fn ms_ecc_keeps_an_eleven_fault_line_usable() {
        // The paper's "corrects up to 11 errors in a 64B line" scenario,
        // spread <= 2 per block.
        let cells: Vec<CellFault> = [3u16, 40, 70, 100, 140, 180, 210, 260, 330, 400, 480]
            .iter()
            .map(|&c| fault(c))
            .collect();
        let map = map_with(vec![(0, cells)], 16);
        let mut s = ms_ecc(&map);
        assert_eq!(disabled(&s), 0);
        let data = Line512::zero();
        let (outcome, arr) = fill_and_read(&mut s, &map, 0, &data);
        assert_eq!(outcome, Some(true));
        assert_eq!(arr, data);
    }

    #[test]
    fn ms_ecc_code_stores_256_checkbits() {
        // 256 checkbits per 512-bit line: the ~18x-SECDED area class.
        assert_eq!(OlscLine::new(8, 2).check_bits(), 256);
    }

    fn flair_online(map: &Arc<FaultMap>, accesses_per_pair: u64) -> PerLineEcc {
        PerLineEcc::flair_online(Arc::clone(map), 32, 16, accesses_per_pair).unwrap()
    }

    fn usable_ways_of_set0(s: &PerLineEcc) -> Vec<usize> {
        (0..16).filter(|&w| s.victim_class(w).is_some()).collect()
    }

    #[test]
    fn flair_training_reduces_capacity_to_7_of_16() {
        let s = flair_online(&map_with(vec![], 32), 1000);
        // Set 0: ways 0..16. Pair 0 (ways 0,1) under test; odd untested
        // ways mirror even ones.
        assert_eq!(usable_ways_of_set0(&s), vec![2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn flair_training_learns_the_oracle_map_after_all_pairs() {
        let map = map_with(vec![(0, vec![fault(1), fault(2)])], 32);
        let mut s = flair_online(&map, 2);
        let data = Line512::zero();
        // 8 pairs x 2 accesses each; one access short of the last pair.
        for i in 0..15 {
            s.on_fill(i % 8 + 2, &data);
        }
        assert_eq!(s.victim_class(14), None, "last pair still under test");
        assert_eq!(disabled(&s), 1, "pair 0 already characterized");
        s.on_fill(2, &data);
        // Steady state: every way of set 0 but the two-fault line.
        assert_eq!(usable_ways_of_set0(&s), (1..16).collect::<Vec<_>>());
        assert_eq!(disabled(&s), 1);
    }

    #[test]
    fn flair_clock_runs_on_fill_and_read_hit_but_not_eviction() {
        let map = map_with(vec![], 32);
        let mut s = flair_online(&map, 3);
        let data = Line512::zero();
        s.on_fill(2, &data);
        for _ in 0..4 {
            s.on_evict(2, &data);
        }
        assert_eq!(s.victim_class(0), None, "evictions do not advance the test");
        s.on_fill(2, &data);
        let mut arr = data;
        s.on_read_hit(2, &mut arr);
        assert_eq!(s.victim_class(0), Some(0), "pair 0 tested");
        assert_eq!(s.victim_class(2), None, "pair 1 under test");
    }

    #[test]
    fn flair_steady_state_corrects_single_faults() {
        let map = map_with(vec![(2, vec![fault(9)])], 32);
        let mut s = flair_online(&map, 1);
        let data = Line512::zero();
        for i in 0..16 {
            s.on_fill(4 + i % 4, &data);
        }
        assert_eq!(usable_ways_of_set0(&s), (0..16).collect::<Vec<_>>());
        let (outcome, arr) = fill_and_read(&mut s, &map, 2, &data);
        assert_eq!(outcome, Some(true));
        assert_eq!(arr, data);
    }

    #[test]
    fn flair_reset_restarts_training_but_keeps_counts() {
        let map = map_with(vec![(2, vec![fault(9)])], 32);
        let mut s = flair_online(&map, 1);
        let data = Line512::zero();
        for i in 0..8 {
            s.on_fill(2 + i % 4, &data);
        }
        fill_and_read(&mut s, &map, 2, &data);
        s.reset();
        assert_eq!(usable_ways_of_set0(&s), vec![2, 4, 6, 8, 10, 12, 14]);
        assert_eq!(s.metrics().get(Counter::Corrections), 1, "counts survive");
    }

    /// The classes of a set read way by way, as the default
    /// `victim_classes` does.
    fn per_way_classes(s: &PerLineEcc, first: LineId, ways: usize) -> SetClasses {
        let mut classes = SetClasses::default();
        for way in 0..ways {
            if let Some(class) = s.victim_class(first + way) {
                classes.by_class[usize::from(class)] |= 1 << way;
            }
        }
        classes
    }

    #[test]
    fn set_victim_classes_equal_the_per_way_classes() {
        for ways in 1..=64 {
            let lines = 3 * ways;
            // Random MBIST verdicts: each line holds 0 to 2 faults, and
            // two disable it.
            let faults = (0..lines)
                .map(|line| {
                    let h = hash3(7, ways as u64, line as u64);
                    (0..h % 3)
                        .map(|i| fault((h >> (8 + 9 * i)) as u16 % 512))
                        .collect()
                })
                .collect();
            let map = Arc::new(FaultMap::from_faults(faults));
            // The sets agree, and the disabled count is that of the lines
            // whose verdict is known: ways below `tested_pairs`' pairs.
            let assert_sets_agree = |s: &PerLineEcc, tested_pairs: usize| {
                for first in (0..lines).step_by(ways) {
                    assert_eq!(
                        s.victim_classes(first, ways),
                        per_way_classes(s, first, ways),
                        "{ways} ways, set at {first}, {tested_pairs} pairs tested"
                    );
                }
                let known_disabled = (0..lines)
                    .filter(|&l| (l % ways) / 2 < tested_pairs)
                    .filter(|&l| !SECDED_RULE.admits(map.line(l)))
                    .count();
                assert_eq!(disabled(s), known_disabled as u64, "{ways} ways");
            };
            let oracle = PerLineEcc::with_oracle(
                "flair",
                Code::Secded,
                SECDED_RULE,
                Arc::clone(&map),
                lines,
            )
            .unwrap();
            assert_sets_agree(&oracle, ways);
            if ways % 2 == 1 {
                continue;
            }
            // Every phase of the pair test: one access tests one pair.
            let mut online = PerLineEcc::flair_online(Arc::clone(&map), lines, ways, 1).unwrap();
            for pair in 0..ways / 2 {
                assert_sets_agree(&online, pair);
                online.tick();
            }
            assert_sets_agree(&online, ways);
        }
    }

    #[test]
    fn flair_online_rejects_an_odd_way_count() {
        let err = PerLineEcc::flair_online(map_with(vec![], 32), 32, 15, 1).unwrap_err();
        assert_eq!(err, "way pairs need an even way count");
    }
}
