//! The Killi protection scheme (§4 of the paper), implementing the
//! simulator's [`LineProtection`] interface.
//!
//! Per physical L2 line, Killi keeps two DFH bits (in the nominal-voltage
//! tag array) and 4 parity bits (in the low-voltage data array, so they can
//! themselves be faulty). Lines in the initial (`b'01`) or one-fault
//! (`b'10`) state additionally hold SECDED checkbits and 12 more parity
//! bits in the shared [`EccCache`]. Classification happens purely from
//! parity/ECC feedback on hits and evictions — no MBIST, no oracle access
//! to the fault map (the map is touched only to *corrupt* metadata stored
//! in low-voltage cells, which is physics, not knowledge).
//!
//! The scheme calls its layers directly: [`SegmentedParity`] detects,
//! the [`EccCache`] stores checkbits, [`DfhClassifier`] holds the DFH
//! state, and [`KilliScheme`]'s `victim_class` applies the §4.4 victim
//! priority and the §5.2 capacity veto. Every hook dispatches on the
//! line's DFH state: parity only for `b'00`, parity plus SECDED for
//! `b'01`, and whatever payload the entry holds for `b'10`.

use std::sync::Arc;

use killi_ecc::bch::dected;
use killi_ecc::bits::Line512;
use killi_ecc::olsc::{OlscCheck, OlscDecode, OlscLine};
use killi_ecc::parity::SegObservation;
use killi_ecc::secded::secded;
use killi_fault::map::{FaultMap, LineId};
use killi_obs::{Counter, MetricSet, Sink};
use killi_sim::protection::{FillOutcome, LineProtection, ReadOutcome};

use crate::classify::{classify_stable0, classify_stable1, classify_unknown, Verdict};
use crate::dfh::Dfh;
use crate::ecc_cache::{EccCache, EccCacheConfig, EccPayload};
use crate::pipeline::{DfhClassifier, SegmentedParity};

/// Killi configuration. Defaults reproduce the paper's design; the boolean
/// switches expose the §4.4 optimizations and the §5.2/§5.6.2 extensions
/// for ablation studies.
#[derive(Debug, Clone, Copy)]
pub struct KilliConfig {
    /// ECC-cache sizing (ratio of L2 lines per entry; Table 3 uses 4 ways).
    pub ecc_cache: EccCacheConfig,
    /// SECDED/parity check latency added to every hit (Table 3: 1 cycle).
    pub check_latency: u32,
    /// §4.4: prioritize victims `b'01 > b'00 > b'10` among invalid lines.
    pub victim_priority: bool,
    /// §4.4: classify `b'01` lines when their data is evicted.
    pub eviction_training: bool,
    /// §4.4: promote ECC-cache entries alongside their L2 lines.
    pub coordinated_promotion: bool,
    /// §5.2: after training, reuse the 12 freed parity bits to upgrade the
    /// ECC-cache payload from SECDED(11b) to DEC-TED(21b), enabling lines
    /// with two LV faults.
    pub dected_upgrade: bool,
    /// §5.6.2: verify both data polarities at install time to expose masked
    /// multi-bit faults immediately (costs extra write/read cycles).
    pub inverted_write_check: bool,
    /// Cycles charged to a fill performing the inverted-write check.
    pub inverted_check_penalty: u32,
    /// §5.6.1: escalate protection for dirty (write-back) data — SECDED
    /// for dirty `b'00` lines, DEC-TED for dirty `b'10` lines — so a
    /// low-voltage write-back cache matches the failure probability of a
    /// safe-voltage SECDED cache.
    pub write_back_protection: bool,
    /// §5.5: store OLSC(8, 2) in the ECC cache instead of SECDED, keeping
    /// lines with up to 2 faults per 64-bit block (≈ 11 per line) usable —
    /// the configuration that chases MS-ECC's Vmin at a fraction of its
    /// area.
    pub olsc_mode: bool,
}

impl KilliConfig {
    /// The paper's default configuration at a given ECC-cache ratio.
    pub fn with_ratio(ratio: usize) -> Self {
        KilliConfig {
            ecc_cache: EccCacheConfig::with_ratio(ratio),
            check_latency: 1,
            victim_priority: true,
            eviction_training: true,
            coordinated_promotion: true,
            dected_upgrade: false,
            inverted_write_check: false,
            inverted_check_penalty: 4,
            write_back_protection: false,
            olsc_mode: false,
        }
    }

    /// The §5.5 low-Vmin configuration: OLSC in the ECC cache at the given
    /// ratio (the paper sizes it 1:8 at 0.600 x VDD and 1:2 at 0.575).
    pub fn with_olsc(ratio: usize) -> Self {
        KilliConfig {
            olsc_mode: true,
            ..Self::with_ratio(ratio)
        }
    }
}

/// Cold per-line flags (the hot DFH bits live packed in the classifier).
#[derive(Debug, Clone, Copy, Default)]
struct LineFlags {
    /// §5.2: this `b'10` line's ECC-cache payload is a DEC-TED code.
    dected: bool,
    /// §5.6.1: the line holds dirty data under escalated protection.
    dirty_protected: bool,
}

/// The Killi protection scheme.
pub struct KilliScheme {
    config: KilliConfig,
    map: Arc<FaultMap>,
    /// The 2-bit DFH state machine plus transition statistics and the
    /// scheme-op clock.
    classifier: DfhClassifier,
    /// The 4/16-bit segmented-parity detection layer.
    parity: SegmentedParity,
    /// The decoupled correction store.
    ecc: EccCache,
    flags: Vec<LineFlags>,
    corrections: u64,
    detections: u64,
    /// Payload of the entry most recently displaced from the ECC cache;
    /// kept until the L2 invalidates that line so it can still be trained
    /// on its way out (the paper trains DFH bits on every eviction).
    pending_displaced: Option<(LineId, EccPayload)>,
    /// §5.5: the OLSC codec, present in `olsc_mode`.
    olsc: Option<OlscLine>,
}

impl KilliScheme {
    /// Builds the scheme for an L2 with `l2_lines` lines of `l2_ways`
    /// associativity over the given fault map.
    ///
    /// # Panics
    ///
    /// Panics if the fault map does not cover `l2_lines` or the ECC-cache
    /// geometry cannot be built; [`KilliScheme::try_new`] reports the same
    /// conditions as errors.
    pub fn new(config: KilliConfig, map: Arc<FaultMap>, l2_lines: usize, l2_ways: usize) -> Self {
        match Self::try_new(config, map, l2_lines, l2_ways) {
            Ok(scheme) => scheme,
            Err(message) => panic!("{message}"),
        }
    }

    /// Fallible construction: validates map coverage and ECC-cache
    /// geometry before allocating anything.
    pub fn try_new(
        config: KilliConfig,
        map: Arc<FaultMap>,
        l2_lines: usize,
        l2_ways: usize,
    ) -> Result<Self, String> {
        if map.lines() < l2_lines {
            return Err("fault map too small".to_string());
        }
        config.ecc_cache.validate(l2_lines)?;
        Ok(KilliScheme {
            config,
            classifier: DfhClassifier::new(l2_lines),
            parity: SegmentedParity::new(Arc::clone(&map), l2_lines),
            ecc: EccCache::new(config.ecc_cache, l2_lines, l2_ways),
            map,
            flags: vec![LineFlags::default(); l2_lines],
            corrections: 0,
            detections: 0,
            pending_displaced: None,
            olsc: config.olsc_mode.then(|| OlscLine::new(8, 2)),
        })
    }

    /// Current DFH state of a line (tests and reports).
    pub fn dfh(&self, line: LineId) -> Dfh {
        self.classifier.get(line)
    }

    /// Census of lines per DFH state, indexed by `Dfh::bits()`.
    pub fn dfh_census(&self) -> [usize; 4] {
        let c = self.classifier.census();
        [c[0] as usize, c[1] as usize, c[2] as usize, c[3] as usize]
    }

    /// DFH transition counts, `[from][to]` indexed by `Dfh::bits()`.
    pub fn transitions(&self) -> &[[u64; 4]; 4] {
        self.classifier.transitions()
    }

    /// The embedded ECC cache (occupancy introspection).
    pub fn ecc_cache(&self) -> &EccCache {
        &self.ecc
    }

    /// Scrubber pass (footnote 7): returns disabled lines to the initial
    /// state so ones disabled by *transient* upsets are reclaimed — lines
    /// with persistent faults simply re-classify to `b'11` on their next
    /// use. Returns the number of lines reclaimed.
    pub fn scrub_reclaim(&mut self) -> usize {
        let mut reclaimed = 0;
        for line in 0..self.flags.len() {
            if self.classifier.get(line) == Dfh::Disabled {
                self.classifier.transition(line, Dfh::Unknown);
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Observables of a `b'01` line: 16-bit segment parity (4 LV cells + 12
    /// nominal bits from the ECC cache) plus SECDED syndrome/parity.
    fn observe_unknown(
        &self,
        line: LineId,
        stored: &Line512,
        payload: EccPayload,
    ) -> (
        SegObservation,
        killi_ecc::secded::SecdedObservation,
        killi_ecc::secded::SecdedDecode,
    ) {
        let EccPayload::Secded { code, parity_hi } = payload else {
            unreachable!("b'01 lines always hold SECDED payloads");
        };
        self.parity.observe_training(line, stored, code, parity_hi)
    }

    /// Applies a verdict reached on the read/evict path of a `b'01` or
    /// `b'10` line: updates DFH, ECC-cache residency and stable parity.
    /// Returns the bit to correct, if any, and whether data survives.
    fn apply_verdict(&mut self, line: LineId, verdict: Verdict, stored: &Line512) -> Verdict {
        match verdict {
            Verdict::SendClean { next, correct_bit } => {
                match next {
                    Dfh::Stable0 => {
                        // Entry freed; generate the 4-bit stable parity from
                        // the array content (clean by the verdict).
                        self.ecc.invalidate(line);
                        self.parity.install4(line, stored);
                        self.flags[line].dected = false;
                    }
                    Dfh::Stable1 => {
                        // Keep the entry. Stable parity reflects the
                        // *corrected* data so the fault shows as a
                        // single-segment mismatch later.
                        let mut corrected = *stored;
                        if let Some(bit) = correct_bit {
                            corrected.flip_bit(bit);
                        }
                        self.parity.install4(line, &corrected);
                        if self.config.dected_upgrade && !self.flags[line].dected {
                            // §5.2: re-encode the corrected data as DEC-TED
                            // in the freed 23 payload bits.
                            let code = dected().encode(&corrected);
                            if self.ecc.update(line, EccPayload::Dected(code)) {
                                self.flags[line].dected = true;
                            }
                        }
                    }
                    Dfh::Unknown | Dfh::Disabled => {}
                }
                self.classifier.transition(line, next);
                verdict
            }
            Verdict::ErrorMiss { next } => {
                self.detections += 1;
                self.ecc.invalidate(line);
                self.flags[line].dected = false;
                self.classifier.transition(line, next);
                verdict
            }
        }
    }

    /// §5.5 classification: decode the line against its OLSC checkbits and
    /// move the DFH accordingly. Returns the verdict and the decoded line
    /// (`stored` with its errors corrected when the verdict is `Corrected`).
    fn classify_olsc(
        &mut self,
        line: LineId,
        stored: &Line512,
        check: &OlscCheck,
    ) -> (OlscDecode, Line512) {
        let codec = self.olsc.as_ref().expect("olsc payload without olsc mode");
        let mut work = *stored;
        let verdict = codec.decode(&mut work, check);
        match verdict {
            OlscDecode::Clean => {
                self.ecc.invalidate(line);
                self.parity.install4(line, stored);
                self.classifier.transition(line, Dfh::Stable0);
            }
            OlscDecode::Corrected => {
                self.parity.install4(line, &work);
                self.classifier.transition(line, Dfh::Stable1);
            }
            OlscDecode::Detected => {
                self.detections += 1;
                self.ecc.invalidate(line);
                self.classifier.transition(line, Dfh::Disabled);
            }
        }
        (verdict, work)
    }

    /// The read-hit path of a line whose ECC entry holds OLSC checkbits:
    /// classify, then deliver the corrected data or refetch.
    fn read_olsc(&mut self, line: LineId, stored: &mut Line512, check: &OlscCheck) -> ReadOutcome {
        match self.classify_olsc(line, stored, check) {
            (OlscDecode::Detected, _) => ReadOutcome::ErrorMiss { extra_cycles: 0 },
            (verdict, decoded) => {
                let corrected = verdict == OlscDecode::Corrected;
                if corrected {
                    *stored = decoded;
                    self.corrections += 1;
                }
                ReadOutcome::Clean {
                    extra_cycles: 0,
                    corrected,
                }
            }
        }
    }

    /// Install-time classification for the §5.6.2 inverted-write check.
    ///
    /// The flow writes the original data, reads it back and compares it
    /// against the (still-buffered) write data, then repeats with the
    /// inverted polarity. A stuck-at cell is masked in exactly one
    /// polarity, so the union of the two comparisons exposes *every*
    /// faulty data cell — exact classification at install time, at the
    /// cost of an extra write+read pair and one polarity bit.
    fn inverted_write_classify(&mut self, line: LineId, data: &Line512) -> Dfh {
        let mut readback = *data;
        self.map.corrupt_data(line, &mut readback);
        let inverted = data.inverted();
        let mut readback_inv = inverted;
        self.map.corrupt_data(line, &mut readback_inv);
        // Each fault shows in exactly one polarity, so the diffs are
        // disjoint and OR equals the full fault set.
        let fault_bits = (readback ^ *data) | (readback_inv ^ inverted);
        let next = match fault_bits.count_ones() {
            0 => Dfh::Stable0,
            1 => Dfh::Stable1,
            _ => Dfh::Disabled,
        };
        self.classifier.transition(line, next);
        next
    }
}

impl LineProtection for KilliScheme {
    fn name(&self) -> &str {
        "killi"
    }

    fn reset(&mut self) {
        // Voltage change / reboot: relearn everything (§2.4).
        self.classifier.reset();
        self.parity.reset();
        for f in &mut self.flags {
            *f = LineFlags::default();
        }
        self.ecc.clear();
    }

    fn victim_class(&self, line: LineId) -> Option<u8> {
        let dfh = self.classifier.get(line);
        // §5.2: a `b'10` line can only hold data while its ECC-cache set
        // has room for its checkbits. The probe runs only for those lines.
        if dfh == Dfh::Stable1 && !self.ecc.probe(line).protectable() {
            return None;
        }
        // §4.4 priority, or one class for every usable line (the ablation).
        let class = dfh.victim_class()?;
        Some(if self.config.victim_priority {
            class
        } else {
            0
        })
    }

    fn on_fill(&mut self, line: LineId, data: &Line512) -> FillOutcome {
        self.classifier.tick();
        let mut outcome = FillOutcome::default();
        self.flags[line].dirty_protected = false; // a fill installs clean data
        let mut dfh = self.classifier.get(line);
        // The L2 never picks a disabled victim (victim_class is None), but
        // direct callers may still probe: the Disabled arm below rejects
        // the fill gracefully rather than asserting.

        if dfh == Dfh::Unknown && self.config.inverted_write_check {
            outcome.extra_cycles += self.config.inverted_check_penalty;
            dfh = self.inverted_write_classify(line, data);
            if dfh == Dfh::Disabled {
                self.detections += 1;
                outcome.accepted = false;
                return outcome;
            }
        }

        match dfh {
            Dfh::Stable0 => {
                self.parity.install4(line, data);
            }
            Dfh::Unknown => {
                let p16 = self.parity.install16(line, data);
                let payload = if let Some(codec) = &self.olsc {
                    EccPayload::Olsc(codec.encode(data))
                } else {
                    EccPayload::Secded {
                        code: secded().encode(data),
                        parity_hi: p16 >> 4,
                    }
                };
                if let Some((displaced, old_payload)) = self.ecc.insert(line, payload) {
                    self.pending_displaced = Some((displaced, old_payload));
                    outcome.invalidate.push(displaced);
                }
            }
            Dfh::Stable1 => {
                self.parity.install4(line, data);
                let payload = if let Some(codec) = &self.olsc {
                    EccPayload::Olsc(codec.encode(data))
                } else if self.config.dected_upgrade {
                    self.flags[line].dected = true;
                    EccPayload::Dected(dected().encode(data))
                } else {
                    EccPayload::Secded {
                        code: secded().encode(data),
                        parity_hi: 0,
                    }
                };
                if let Some((displaced, old_payload)) = self.ecc.insert(line, payload) {
                    self.pending_displaced = Some((displaced, old_payload));
                    outcome.invalidate.push(displaced);
                }
            }
            Dfh::Disabled => {
                outcome.accepted = false;
            }
        }
        outcome
    }

    fn on_write(&mut self, line: LineId, data: &Line512) -> FillOutcome {
        if !self.config.write_back_protection {
            return self.on_fill(line, data);
        }
        // §5.6.1: dirty data must survive without a memory copy to refetch,
        // so every dirty line gets checkbits in the ECC cache — SECDED for
        // (otherwise parity-only) b'00 lines, DEC-TED for b'10 lines.
        let mut outcome = FillOutcome::default();
        match self.classifier.get(line) {
            Dfh::Unknown => {
                // Training protection (16-bit parity + SECDED) already
                // meets the SECDED-at-safe-voltage bar.
                outcome = self.on_fill(line, data);
                self.flags[line].dirty_protected = outcome.accepted;
            }
            Dfh::Stable0 => {
                self.parity.install4(line, data);
                let payload = EccPayload::Secded {
                    code: secded().encode(data),
                    parity_hi: 0,
                };
                if let Some((displaced, old_payload)) = self.ecc.insert(line, payload) {
                    self.pending_displaced = Some((displaced, old_payload));
                    outcome.invalidate.push(displaced);
                }
                self.flags[line].dirty_protected = true;
            }
            Dfh::Stable1 => {
                self.parity.install4(line, data);
                let payload = EccPayload::Dected(dected().encode(data));
                if let Some((displaced, old_payload)) = self.ecc.insert(line, payload) {
                    self.pending_displaced = Some((displaced, old_payload));
                    outcome.invalidate.push(displaced);
                }
                self.flags[line].dected = true;
                self.flags[line].dirty_protected = true;
            }
            Dfh::Disabled => {
                outcome.accepted = false;
            }
        }
        outcome
    }

    fn on_read_hit(&mut self, line: LineId, stored: &mut Line512) -> ReadOutcome {
        self.classifier.tick();
        if self.flags[line].dirty_protected && self.classifier.get(line) == Dfh::Stable0 {
            // §5.6.1 dirty b'00 line: SECDED checkbits back the parity.
            if let Some(EccPayload::Secded { code, .. }) = self.ecc.lookup(line) {
                return match secded().decode(stored, code) {
                    killi_ecc::secded::SecdedDecode::Clean
                    | killi_ecc::secded::SecdedDecode::CorrectedCheck => ReadOutcome::Clean {
                        extra_cycles: 0,
                        corrected: false,
                    },
                    killi_ecc::secded::SecdedDecode::CorrectedData { bit } => {
                        stored.flip_bit(bit);
                        self.corrections += 1;
                        ReadOutcome::Clean {
                            extra_cycles: 0,
                            corrected: true,
                        }
                    }
                    _ => {
                        // Uncorrectable on dirty data: the L2 records the
                        // loss; retrain this line from scratch.
                        self.detections += 1;
                        self.ecc.invalidate(line);
                        self.flags[line].dirty_protected = false;
                        self.classifier.transition(line, Dfh::Unknown);
                        ReadOutcome::ErrorMiss { extra_cycles: 0 }
                    }
                };
            }
            debug_assert!(false, "dirty-protected line without ECC entry");
        }
        match self.classifier.get(line) {
            Dfh::Stable0 => {
                let obs = self.parity.observe_stable(line, stored);
                match classify_stable0(obs) {
                    Verdict::SendClean { .. } => ReadOutcome::Clean {
                        extra_cycles: 0,
                        corrected: false,
                    },
                    Verdict::ErrorMiss { next } => {
                        self.detections += 1;
                        self.classifier.transition(line, next);
                        ReadOutcome::ErrorMiss { extra_cycles: 0 }
                    }
                }
            }
            Dfh::Unknown => {
                let Some(payload) = self.ecc.lookup(line) else {
                    // Invariant: valid b'01 lines always have an entry. If
                    // it is ever missing, refetch conservatively.
                    debug_assert!(false, "b'01 line without ECC entry");
                    return ReadOutcome::ErrorMiss { extra_cycles: 0 };
                };
                if let EccPayload::Olsc(check) = payload {
                    return self.read_olsc(line, stored, &check);
                }
                let (seg, ecc, dec) = self.observe_unknown(line, stored, payload);
                let mut verdict = classify_unknown(seg, ecc, dec);
                // §5.2: with the DEC-TED upgrade, a line whose training
                // evidence points at exactly two errors (even-count ECC
                // signature, at most two noisy segments) is re-enabled as
                // `b'10` and refilled under a 2-error-correcting code
                // instead of being disabled.
                if self.config.dected_upgrade
                    && verdict
                        == (Verdict::ErrorMiss {
                            next: Dfh::Disabled,
                        })
                    && !ecc.syndrome_zero()
                    && !ecc.parity_mismatch
                    && !matches!(seg, SegObservation::MultiSegment(n) if n > 2)
                {
                    verdict = Verdict::ErrorMiss { next: Dfh::Stable1 };
                }
                match self.apply_verdict(line, verdict, stored) {
                    Verdict::SendClean { correct_bit, .. } => {
                        let corrected = correct_bit.is_some();
                        if let Some(bit) = correct_bit {
                            stored.flip_bit(bit);
                            self.corrections += 1;
                        }
                        ReadOutcome::Clean {
                            extra_cycles: 0,
                            corrected,
                        }
                    }
                    Verdict::ErrorMiss { .. } => ReadOutcome::ErrorMiss { extra_cycles: 0 },
                }
            }
            Dfh::Stable1 => {
                let Some(payload) = self.ecc.lookup(line) else {
                    debug_assert!(false, "b'10 line without ECC entry");
                    return ReadOutcome::ErrorMiss { extra_cycles: 0 };
                };
                match payload {
                    EccPayload::Olsc(check) => self.read_olsc(line, stored, &check),
                    EccPayload::Dected(code) => {
                        // §5.2 upgraded line: DEC-TED handles up to two
                        // errors without parity help.
                        let d = dected().decode(stored, code);
                        match d {
                            killi_ecc::bch::DectedDecode::Clean => ReadOutcome::Clean {
                                extra_cycles: 0,
                                corrected: false,
                            },
                            killi_ecc::bch::DectedDecode::Corrected { bits } => {
                                let mut any = false;
                                for bit in bits.into_iter().flatten() {
                                    stored.flip_bit(bit);
                                    any = true;
                                }
                                if any {
                                    self.corrections += 1;
                                }
                                ReadOutcome::Clean {
                                    extra_cycles: 0,
                                    corrected: any,
                                }
                            }
                            killi_ecc::bch::DectedDecode::Detected => {
                                self.detections += 1;
                                self.ecc.invalidate(line);
                                self.flags[line].dected = false;
                                self.classifier.transition(line, Dfh::Disabled);
                                ReadOutcome::ErrorMiss { extra_cycles: 0 }
                            }
                        }
                    }
                    EccPayload::Secded { code, .. } => {
                        let seg = self.parity.observe_stable(line, stored);
                        let ecc = secded().observe(stored, code);
                        let dec = secded().interpret(ecc);
                        let verdict = classify_stable1(seg, ecc, dec);
                        match self.apply_verdict(line, verdict, stored) {
                            Verdict::SendClean { correct_bit, .. } => {
                                let corrected = correct_bit.is_some();
                                if let Some(bit) = correct_bit {
                                    stored.flip_bit(bit);
                                    self.corrections += 1;
                                }
                                ReadOutcome::Clean {
                                    extra_cycles: 0,
                                    corrected,
                                }
                            }
                            Verdict::ErrorMiss { .. } => ReadOutcome::ErrorMiss { extra_cycles: 0 },
                        }
                    }
                }
            }
            Dfh::Disabled => {
                debug_assert!(false, "read hit on a disabled line");
                ReadOutcome::ErrorMiss { extra_cycles: 0 }
            }
        }
    }

    fn on_displaced(&mut self, line: LineId, stored: &Line512) -> bool {
        // Whatever happens, the displaced line loses its escalated dirty
        // protection (the L2 writes dirty data back before dropping it).
        self.flags[line].dirty_protected = false;
        let Some((pending_line, payload)) = self.pending_displaced.take() else {
            return false;
        };
        if pending_line != line {
            self.pending_displaced = Some((pending_line, payload));
            return false;
        }
        match (self.classifier.get(line), payload) {
            (Dfh::Unknown, EccPayload::Olsc(check)) => {
                self.classify_olsc(line, stored, &check);
                self.classifier.get(line) == Dfh::Stable0
            }
            (Dfh::Unknown, payload) => {
                // Classify the line with the displaced metadata while it is
                // still on the wire. A verified fault-free line switches to
                // 4-bit parity and keeps its data; anything else loses it.
                let (seg, ecc, dec) = self.observe_unknown(line, stored, payload);
                let verdict = classify_unknown(seg, ecc, dec);
                self.apply_verdict(line, verdict, stored);
                self.classifier.get(line) == Dfh::Stable0
            }
            // A `b'10` line cannot survive without its checkbits.
            _ => false,
        }
    }

    fn on_evict(&mut self, line: LineId, stored: &Line512) {
        self.classifier.tick();
        match self.classifier.get(line) {
            Dfh::Unknown => {
                if self.config.eviction_training {
                    // The entry may just have been displaced from the ECC
                    // cache by the fill that is evicting this line; its
                    // payload is still on the wire and usable for training.
                    let payload =
                        self.ecc
                            .lookup(line)
                            .or_else(|| match self.pending_displaced.take() {
                                Some((l, p)) if l == line => Some(p),
                                other => {
                                    self.pending_displaced = other;
                                    None
                                }
                            });
                    match payload {
                        Some(EccPayload::Olsc(check)) => {
                            self.classify_olsc(line, stored, &check);
                        }
                        Some(payload) => {
                            // §4.4: read the evicted data, compare parity
                            // and checkbits, update the DFH bits.
                            let (seg, ecc, dec) = self.observe_unknown(line, stored, payload);
                            let verdict = classify_unknown(seg, ecc, dec);
                            self.apply_verdict(line, verdict, stored);
                        }
                        None => {}
                    }
                }
                // The data is gone; its protection entry goes too.
                self.ecc.invalidate(line);
            }
            Dfh::Stable1 => {
                self.ecc.invalidate(line);
            }
            Dfh::Stable0 => {
                if self.flags[line].dirty_protected {
                    self.ecc.invalidate(line);
                }
            }
            Dfh::Disabled => {}
        }
        self.flags[line].dirty_protected = false;
    }

    fn on_promote(&mut self, line: LineId) {
        if self.config.coordinated_promotion && self.classifier.get(line).needs_ecc_entry() {
            self.ecc.promote(line);
        }
    }

    fn hit_latency_extra(&self) -> u32 {
        self.config.check_latency
    }

    fn attach_sink(&mut self, sink: Sink) {
        self.ecc.attach_sink(sink.clone());
        self.parity.attach_sink(sink.clone());
        self.classifier.attach_sink(sink);
    }

    fn metrics(&self) -> MetricSet {
        let mut m = MetricSet::new();
        m.set(Counter::DisabledLines, self.classifier.disabled_lines());
        m.set(Counter::Corrections, self.corrections);
        m.set(Counter::Detections, self.detections);
        self.classifier.fill_metrics(&mut m);
        m.set(Counter::EccCacheAccesses, self.ecc.accesses());
        m.set(Counter::EccCacheDisplacements, self.ecc.evictions());
        m.ecc_occupancy = *self.ecc.occupancy_histogram();
        m
    }
}

impl std::fmt::Debug for KilliScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KilliScheme")
            .field("config", &self.config)
            .field("lines", &self.flags.len())
            .field("census", &self.dfh_census())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_fault::map::CellFault;
    use killi_sim::protection::ReadOutcome;

    const LINES: usize = 16;
    const WAYS: usize = 4;

    fn fault(cell: u16, stuck: bool) -> CellFault {
        CellFault { cell, stuck }
    }

    /// A 16-line scheme with an explicit fault population and a 4-entry
    /// (single-set) ECC cache.
    fn scheme(faults: Vec<(usize, Vec<CellFault>)>, config: KilliConfig) -> KilliScheme {
        let mut per_line = vec![Vec::new(); LINES];
        for (line, fs) in faults {
            per_line[line] = fs;
        }
        let map = Arc::new(FaultMap::from_faults(per_line));
        KilliScheme::new(config, map, LINES, WAYS)
    }

    fn config() -> KilliConfig {
        KilliConfig {
            ecc_cache: EccCacheConfig { ratio: 4, ways: 4 }, // 4 entries, 1 set
            ..KilliConfig::with_ratio(4)
        }
    }

    /// Array content after writing `data` into `line`.
    fn stored(s: &KilliScheme, line: LineId, data: &Line512) -> Line512 {
        let mut v = *data;
        s.map.corrupt_data(line, &mut v);
        v
    }

    #[test]
    fn clean_line_classifies_stable0_and_frees_entry() {
        let mut s = scheme(vec![], config());
        let data = Line512::from_seed(1);
        assert_eq!(s.dfh(0), Dfh::Unknown);
        let fill = s.on_fill(0, &data);
        assert!(fill.accepted && fill.invalidate.is_empty());
        assert_eq!(s.ecc_cache().occupancy(), 1);
        let mut arr = stored(&s, 0, &data);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(!corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.dfh(0), Dfh::Stable0);
        assert_eq!(s.ecc_cache().occupancy(), 0, "entry freed on b'00");
        assert_eq!(arr, data);
    }

    #[test]
    fn single_fault_line_corrected_and_stable1() {
        let mut s = scheme(vec![(0, vec![fault(10, true)])], config());
        let data = Line512::zero(); // bit 10 will be stuck high: unmasked
        s.on_fill(0, &data);
        let mut arr = stored(&s, 0, &data);
        assert!(arr.bit(10), "fault must corrupt the array");
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr, data, "delivered data corrected");
        assert_eq!(s.dfh(0), Dfh::Stable1);
        assert_eq!(s.ecc_cache().occupancy(), 1, "b'10 keeps its entry");
        assert_eq!(s.protection_stats().corrections, 1);

        // Subsequent reads keep correcting and stay in b'10.
        let mut arr2 = stored(&s, 0, &data);
        match s.on_read_hit(0, &mut arr2) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr2, data);
        assert_eq!(s.dfh(0), Dfh::Stable1);
    }

    #[test]
    fn double_fault_line_disabled() {
        // Faults in different segments (3 % 16 != 40 % 16).
        let mut s = scheme(vec![(0, vec![fault(3, true), fault(40, true)])], config());
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = stored(&s, 0, &data);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::ErrorMiss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.dfh(0), Dfh::Disabled);
        assert_eq!(s.victim_class(0), None, "disabled lines never allocated");
        assert_eq!(s.protection_stats().disabled_lines, 1);
        assert_eq!(s.ecc_cache().occupancy(), 0);
    }

    #[test]
    fn masked_fault_oscillates_and_recovers() {
        // Stuck-at-1 at bit 10; the first write has bit 10 = 1 => masked.
        let mut s = scheme(vec![(0, vec![fault(10, true)])], config());
        let mut masked = Line512::zero();
        masked.set_bit(10, true);
        s.on_fill(0, &masked);
        let mut arr = stored(&s, 0, &masked);
        assert!(matches!(
            s.on_read_hit(0, &mut arr),
            ReadOutcome::Clean { .. }
        ));
        assert_eq!(
            s.dfh(0),
            Dfh::Stable0,
            "masked fault misclassified (by design)"
        );

        // The line is rewritten with data that unmasks the fault.
        s.on_evict(0, &arr);
        let unmasking = Line512::zero();
        s.on_fill(0, &unmasking);
        let mut arr2 = stored(&s, 0, &unmasking);
        match s.on_read_hit(0, &mut arr2) {
            ReadOutcome::ErrorMiss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(
            s.dfh(0),
            Dfh::Unknown,
            "b'00 -> b'01 on 1-bit error (Table 2 row 2)"
        );

        // Refetch: the line retrains to b'10 and corrects from then on.
        s.on_fill(0, &unmasking);
        let mut arr3 = stored(&s, 0, &unmasking);
        match s.on_read_hit(0, &mut arr3) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.dfh(0), Dfh::Stable1);
        assert_eq!(arr3, unmasking);
    }

    #[test]
    fn eviction_training_classifies_without_reads() {
        let mut s = scheme(vec![(2, vec![fault(7, false)])], config());
        let data = Line512::from_seed(3); // pseudo-random: bit 7 likely varies
                                          // Line 0: clean; line 2: one fault.
        s.on_fill(0, &data);
        s.on_evict(0, &stored(&s, 0, &data));
        assert_eq!(s.dfh(0), Dfh::Stable0, "trained on eviction");

        let mut unmasking = Line512::zero();
        unmasking.set_bit(7, true); // stuck-at-0 cell written with 1
        s.on_fill(2, &unmasking);
        s.on_evict(2, &stored(&s, 2, &unmasking));
        assert_eq!(s.dfh(2), Dfh::Stable1, "fault learned on eviction");
        assert_eq!(s.ecc_cache().occupancy(), 0, "entries freed with the data");
    }

    #[test]
    fn eviction_training_can_be_disabled() {
        let mut s = scheme(
            vec![],
            KilliConfig {
                eviction_training: false,
                ..config()
            },
        );
        let data = Line512::from_seed(4);
        s.on_fill(0, &data);
        s.on_evict(0, &stored(&s, 0, &data));
        assert_eq!(s.dfh(0), Dfh::Unknown, "no training on eviction");
    }

    #[test]
    fn ecc_contention_invalidates_displaced_lines() {
        // 4-entry, single-set ECC cache: the 5th b'01 fill displaces the
        // least-recently-used entry, whose L2 line must be invalidated.
        let mut s = scheme(vec![], config());
        let data = Line512::from_seed(5);
        for line in 0..4 {
            assert!(s.on_fill(line, &data).invalidate.is_empty());
        }
        let fill = s.on_fill(4, &data);
        assert_eq!(fill.invalidate, vec![0], "LRU-protected line displaced");
        assert_eq!(s.protection_stats().ecc_cache_evictions, 1);
    }

    #[test]
    fn promotion_shields_entries_from_displacement() {
        let mut s = scheme(vec![], config());
        let data = Line512::from_seed(6);
        for line in 0..4 {
            s.on_fill(line, &data);
        }
        s.on_promote(0); // coordinated promotion makes line 0 MRU
        let fill = s.on_fill(4, &data);
        assert_eq!(fill.invalidate, vec![1], "line 0 protected by promotion");
    }

    #[test]
    fn victim_priority_ordering_and_ablation() {
        let mut s = scheme(vec![(1, vec![fault(9, true)])], config());
        let data = Line512::zero();
        // Classify line 0 -> b'00 and line 1 -> b'10; line 2 stays b'01.
        s.on_fill(0, &data);
        let mut a = stored(&s, 0, &data);
        s.on_read_hit(0, &mut a);
        s.on_fill(1, &data);
        let mut b = stored(&s, 1, &data);
        s.on_read_hit(1, &mut b);
        assert_eq!(s.dfh(0), Dfh::Stable0);
        assert_eq!(s.dfh(1), Dfh::Stable1);
        assert!(s.victim_class(2) < s.victim_class(0));
        assert!(s.victim_class(0) < s.victim_class(1));

        let s2 = scheme(
            vec![],
            KilliConfig {
                victim_priority: false,
                ..config()
            },
        );
        assert_eq!(s2.victim_class(0), Some(0));
        assert_eq!(s2.victim_class(1), Some(0));
    }

    #[test]
    fn unprotectable_stable1_line_is_vetoed_with_or_without_priority() {
        for victim_priority in [true, false] {
            let faults = vec![
                (5, vec![fault(9, true)]),
                (6, vec![fault(3, true), fault(40, true)]),
            ];
            let mut s = scheme(
                faults,
                KilliConfig {
                    victim_priority,
                    ..config()
                },
            );
            let data = Line512::zero();
            // Line 5 learns b'10 and gives its entry back on eviction;
            // line 6 is disabled.
            for line in [5, 6] {
                s.on_fill(line, &data);
                let mut arr = stored(&s, line, &data);
                s.on_read_hit(line, &mut arr);
            }
            s.on_evict(5, &stored(&s, 5, &data));
            assert_eq!(s.dfh(5), Dfh::Stable1);
            assert_eq!(s.victim_class(6), None, "disabled lines never allocated");
            let usable = if victim_priority { Some(2) } else { Some(0) };
            assert_eq!(s.victim_class(5), usable, "the set has room");
            // Four training lines fill the single ECC-cache set.
            for line in 0..4 {
                s.on_fill(line, &Line512::from_seed(line as u64));
            }
            assert_eq!(s.victim_class(5), None, "no room for its checkbits");
            s.on_evict(0, &Line512::from_seed(0));
            assert_eq!(s.victim_class(5), usable, "room again");
        }
    }

    #[test]
    fn reset_relearns_everything() {
        let mut s = scheme(vec![(0, vec![fault(3, true), fault(40, true)])], config());
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = stored(&s, 0, &data);
        s.on_read_hit(0, &mut arr);
        assert_eq!(s.dfh(0), Dfh::Disabled);
        s.reset();
        assert_eq!(s.dfh(0), Dfh::Unknown, "voltage change clears DFH");
        assert_eq!(s.ecc_cache().occupancy(), 0);
    }

    #[test]
    fn try_new_reports_geometry_errors_instead_of_panicking() {
        let map = Arc::new(FaultMap::fault_free(LINES));
        // Fault map smaller than the L2.
        let err = KilliScheme::try_new(config(), Arc::clone(&map), LINES * 2, WAYS).unwrap_err();
        assert_eq!(err, "fault map too small");
        // ECC cache smaller than one set: 16 lines / ratio 16 = 1 entry.
        let bad = KilliConfig {
            ecc_cache: EccCacheConfig { ratio: 16, ways: 4 },
            ..KilliConfig::with_ratio(16)
        };
        let err = KilliScheme::try_new(bad, map, LINES, WAYS).unwrap_err();
        assert_eq!(err, "ECC cache smaller than one set");
    }

    #[test]
    fn inverted_write_check_rejects_masked_multibit_fault() {
        // Two stuck-at-0 faults in the same 16-bit-interleaved segment
        // (cells 5 and 21): an all-zero write masks both, and a later
        // unmasking write would corrupt data undetectably under 4-bit
        // parity. The §5.6.2 check must catch this at install time.
        let faults = vec![(0, vec![fault(5, false), fault(21, false)])];
        let mut plain = scheme(faults.clone(), config());
        let zero = Line512::zero();
        plain.on_fill(0, &zero);
        let mut arr = stored(&plain, 0, &zero);
        plain.on_read_hit(0, &mut arr);
        assert_eq!(plain.dfh(0), Dfh::Stable0, "plain Killi is fooled");

        let mut checked = scheme(
            faults,
            KilliConfig {
                inverted_write_check: true,
                ..config()
            },
        );
        let fill = checked.on_fill(0, &zero);
        assert!(!fill.accepted, "inverted check rejects the fill");
        assert_eq!(checked.dfh(0), Dfh::Disabled);
    }

    #[test]
    fn inverted_write_check_classifies_single_fault_at_fill() {
        let mut s = scheme(
            vec![(0, vec![fault(10, true)])],
            KilliConfig {
                inverted_write_check: true,
                ..config()
            },
        );
        let mut masked = Line512::zero();
        masked.set_bit(10, true); // masked in the written polarity
        let fill = s.on_fill(0, &masked);
        assert!(fill.accepted);
        assert_eq!(
            s.dfh(0),
            Dfh::Stable1,
            "inverted polarity exposed the fault"
        );
    }

    #[test]
    fn dected_upgrade_enables_two_fault_lines() {
        let mut s = scheme(
            vec![(0, vec![fault(3, true), fault(40, true)])],
            KilliConfig {
                dected_upgrade: true,
                ..config()
            },
        );
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = stored(&s, 0, &data);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::ErrorMiss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.dfh(0), Dfh::Stable1, "two-fault line re-enabled (§5.2)");

        // Refill: the line now carries a DEC-TED payload and corrects both.
        s.on_fill(0, &data);
        let mut arr2 = stored(&s, 0, &data);
        match s.on_read_hit(0, &mut arr2) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr2, data, "both faults corrected by DEC-TED");
        assert_eq!(s.dfh(0), Dfh::Stable1);
    }

    #[test]
    fn dected_upgrade_still_disables_three_fault_lines() {
        let mut s = scheme(
            vec![(0, vec![fault(3, true), fault(40, true), fault(77, true)])],
            KilliConfig {
                dected_upgrade: true,
                ..config()
            },
        );
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = stored(&s, 0, &data);
        assert!(matches!(
            s.on_read_hit(0, &mut arr),
            ReadOutcome::ErrorMiss { .. }
        ));
        assert_eq!(s.dfh(0), Dfh::Disabled);
    }

    #[test]
    fn stable1_line_with_extra_error_disables() {
        let mut s = scheme(vec![(0, vec![fault(10, true)])], config());
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = stored(&s, 0, &data);
        s.on_read_hit(0, &mut arr); // -> b'10
        assert_eq!(s.dfh(0), Dfh::Stable1);

        // A soft error strikes a second bit in the array.
        let mut arr2 = stored(&s, 0, &data);
        arr2.flip_bit(200);
        match s.on_read_hit(0, &mut arr2) {
            ReadOutcome::ErrorMiss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.dfh(0), Dfh::Disabled);
    }

    #[test]
    fn stable1_recovers_to_stable0_when_fault_vanishes() {
        // Table 2 row 9: a transient that was classified as an LV fault
        // disappears after the data is overwritten.
        let mut s = scheme(vec![(0, vec![fault(10, true)])], config());
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = stored(&s, 0, &data);
        s.on_read_hit(0, &mut arr);
        assert_eq!(s.dfh(0), Dfh::Stable1);

        // New data masks the stuck-at cell: no observable fault remains.
        s.on_evict(0, &arr);
        let mut masking = Line512::zero();
        masking.set_bit(10, true);
        s.on_fill(0, &masking);
        let mut arr2 = stored(&s, 0, &masking);
        match s.on_read_hit(0, &mut arr2) {
            ReadOutcome::Clean { corrected, .. } => assert!(!corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(s.dfh(0), Dfh::Stable0, "b'10 -> b'00 (Table 2 row 9)");
        assert_eq!(s.ecc_cache().occupancy(), 0);
    }

    #[test]
    fn transition_counters_track_training() {
        let mut s = scheme(vec![(1, vec![fault(9, true)])], config());
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut a = stored(&s, 0, &data);
        s.on_read_hit(0, &mut a);
        s.on_fill(1, &data);
        let mut b = stored(&s, 1, &data);
        s.on_read_hit(1, &mut b);
        let t = s.transitions();
        assert_eq!(
            t[Dfh::Unknown.bits() as usize][Dfh::Stable0.bits() as usize],
            1
        );
        assert_eq!(
            t[Dfh::Unknown.bits() as usize][Dfh::Stable1.bits() as usize],
            1
        );
        let census = s.dfh_census();
        assert_eq!(census[Dfh::Stable0.bits() as usize], 1);
        assert_eq!(census[Dfh::Stable1.bits() as usize], 1);
        assert_eq!(census[Dfh::Unknown.bits() as usize], LINES - 2);
    }
}

#[cfg(test)]
mod olsc_tests {
    use super::*;
    use killi_fault::map::CellFault;
    use killi_sim::protection::ReadOutcome;

    fn fault(cell: u16) -> CellFault {
        CellFault { cell, stuck: true }
    }

    fn olsc_scheme(faults: Vec<CellFault>) -> KilliScheme {
        let mut per_line = vec![Vec::new(); 16];
        per_line[0] = faults;
        let map = Arc::new(FaultMap::from_faults(per_line));
        KilliScheme::new(
            KilliConfig {
                ecc_cache: EccCacheConfig { ratio: 4, ways: 4 },
                ..KilliConfig::with_olsc(4)
            },
            map,
            16,
            4,
        )
    }

    #[test]
    fn multi_fault_line_stays_usable_under_olsc() {
        // Five spread faults (<= 2 per 64-bit block): plain Killi would
        // disable this line; §5.5 OLSC keeps it correcting.
        let mut s = olsc_scheme(vec![
            fault(3),
            fault(70),
            fault(140),
            fault(260),
            fault(400),
        ]);
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        s.map.corrupt_data(0, &mut arr);
        assert_eq!(arr.count_ones(), 5);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr, data, "all five faults corrected");
        assert_eq!(s.dfh(0), Dfh::Stable1);

        // And again on the next access.
        let mut arr2 = data;
        s.map.corrupt_data(0, &mut arr2);
        assert!(matches!(
            s.on_read_hit(0, &mut arr2),
            ReadOutcome::Clean { .. }
        ));
        assert_eq!(arr2, data);
    }

    #[test]
    fn overloaded_block_still_disabled_under_olsc() {
        // Three faults inside one 64-bit block exceed OLSC(8, 2).
        let mut s = olsc_scheme(vec![fault(1), fault(9), fault(17)]);
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        s.map.corrupt_data(0, &mut arr);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::ErrorMiss { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(s.dfh(0), Dfh::Disabled);
    }

    #[test]
    fn clean_line_frees_entry_under_olsc() {
        let mut s = olsc_scheme(vec![]);
        let data = Line512::from_seed(5);
        s.on_fill(0, &data);
        assert_eq!(s.ecc_cache().occupancy(), 1);
        let mut arr = data;
        s.on_read_hit(0, &mut arr);
        assert_eq!(s.dfh(0), Dfh::Stable0);
        assert_eq!(s.ecc_cache().occupancy(), 0);
    }

    #[test]
    fn olsc_payload_is_the_packed_codec_output() {
        let mut s = olsc_scheme(vec![]);
        let data = Line512::from_seed(9);
        s.on_fill(0, &data);
        assert_eq!(
            s.ecc.lookup(0),
            Some(EccPayload::Olsc(OlscLine::new(8, 2).encode(&data)))
        );
    }
}
