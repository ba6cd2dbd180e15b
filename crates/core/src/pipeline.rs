//! Killi's detection and classification layers, which
//! [`crate::KilliScheme`] calls directly.
//!
//! The paper splits low-voltage protection into four concerns. In Killi
//! each is one concrete part:
//!
//! 1. detection — [`SegmentedParity`]: 4 low-voltage segment-parity cells
//!    per line, plus the 12 nominal parity bits and SECDED code a training
//!    (`b'01`) line keeps in the ECC cache;
//! 2. correction storage — the decoupled [`crate::ecc_cache::EccCache`];
//! 3. classification — [`DfhClassifier`]: the 2-bit DFH state machine
//!    with its transition statistics;
//! 4. victim selection — `KilliScheme::victim_class`: the §4.4
//!    `b'01 > b'00 > b'10` priority and the §5.2 capacity veto.
//!
//! The per-line ECC baselines have the same four concerns in one concrete
//! type of their own, `killi_baselines::PerLineEcc`.

use std::sync::Arc;

use killi_ecc::bits::Line512;
use killi_ecc::parity::{seg16, seg4, SegObservation};
use killi_ecc::secded::{secded, SecdedCode, SecdedDecode, SecdedObservation};
use killi_fault::map::{FaultMap, LineId};
use killi_obs::{Counter, Histogram, KilliEvent, MetricSet, Sink};

use crate::dfh::{Dfh, DfhArray};

/// Killi's runtime classifier: the packed 2-bit DFH array plus its
/// transition statistics and the scheme-op clock used to measure how long
/// lines spend in training.
#[derive(Debug)]
pub struct DfhClassifier {
    dfh: DfhArray,
    /// DFH transitions observed, `transitions[from][to]` by `Dfh::bits()`.
    transitions: [[u64; 4]; 4],
    /// Scheme-op index at which each line last entered `b'01`.
    training_since: Vec<u64>,
    /// Ops spent in `b'01` before classification (log2 buckets).
    training_hist: Histogram,
    /// Scheme-op clock: one tick per fill/read-hit/evict hook.
    ops: u64,
    sink: Sink,
}

impl DfhClassifier {
    /// All lines start in the initial `b'01` state at op 0.
    pub fn new(lines: usize) -> Self {
        DfhClassifier {
            dfh: DfhArray::new(lines),
            transitions: [[0; 4]; 4],
            training_since: vec![0; lines],
            training_hist: Histogram::new(),
            ops: 0,
            sink: Sink::none(),
        }
    }

    /// Advances the scheme-op clock by one.
    pub fn tick(&mut self) {
        self.ops += 1;
    }

    /// Current DFH state of `line`.
    pub fn get(&self, line: LineId) -> Dfh {
        self.dfh.get(line)
    }

    /// Census of lines per DFH state, indexed by `Dfh::bits()`.
    pub fn census(&self) -> [u64; 4] {
        self.dfh.census()
    }

    /// DFH transition counts, `[from][to]` indexed by `Dfh::bits()`.
    pub fn transitions(&self) -> &[[u64; 4]; 4] {
        &self.transitions
    }

    /// Moves `line` to `next`, bumping the transition matrix, closing the
    /// training-latency measurement when leaving `b'01` (and opening one
    /// when entering it), and emitting a [`KilliEvent::DfhTransition`].
    pub fn transition(&mut self, line: LineId, next: Dfh) {
        let cur = self.dfh.get(line);
        if cur != next {
            self.transitions[cur.bits() as usize][next.bits() as usize] += 1;
            self.dfh.set(line, next);
            if cur == Dfh::Unknown {
                let since = self.training_since[line];
                self.training_hist.observe_log2(self.ops - since);
            }
            if next == Dfh::Unknown {
                self.training_since[line] = self.ops;
            }
            self.sink.emit(|| KilliEvent::DfhTransition {
                line: line as u32,
                from: cur.bits(),
                to: next.bits(),
            });
        }
    }

    /// Number of lines in the disabled (`b'11`) state.
    pub fn disabled_lines(&self) -> u64 {
        self.dfh.census()[Dfh::Disabled.bits() as usize]
    }

    /// Returns every line to `b'01`.
    pub fn reset(&mut self) {
        // Voltage change / reboot: relearn everything (§2.4). Transition
        // statistics and the op clock survive — they describe the run, not
        // the learned state.
        let now = self.ops;
        self.dfh.reset();
        self.training_since.fill(now);
    }

    /// Connects the classifier to an event sink.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// Contributes the transition matrix, census and training latency to
    /// a [`MetricSet`].
    pub fn fill_metrics(&self, m: &mut MetricSet) {
        m.dfh_transitions = self.transitions;
        m.set(Counter::DfhTransitions, m.total_transitions());
        m.dfh_census = Some(self.dfh.census());
        m.training_latency_ops = self.training_hist;
    }
}

/// Killi's detection layer: 4 low-voltage segment-parity cells per line
/// (stuck-at corrupted by the fault map) plus, during training, 12 more
/// parity bits and a SECDED code held in the ECC cache.
#[derive(Debug)]
pub struct SegmentedParity {
    map: Arc<FaultMap>,
    /// Content of the 4 low-voltage parity cells per line (already
    /// stuck-at corrupted). For `b'01` lines these are bits 0..4 of the
    /// 16-bit training parity; for stable lines the 4 quarter parities.
    parity4: Vec<u8>,
    sink: Sink,
}

impl SegmentedParity {
    /// Parity storage for `lines` L2 lines corrupted by `map`.
    pub fn new(map: Arc<FaultMap>, lines: usize) -> Self {
        SegmentedParity {
            map,
            parity4: vec![0; lines],
            sink: Sink::none(),
        }
    }

    /// Installs the 4-bit stable parity of `data` (corrupted in storage).
    pub fn install4(&mut self, line: LineId, data: &Line512) {
        self.parity4[line] = self.map.corrupt_parity4(line, seg4(data));
    }

    /// Installs the low nibble of the 16-bit training parity of `data` and
    /// returns the full 16 bits (the high 12 go to the ECC cache).
    pub fn install16(&mut self, line: LineId, data: &Line512) -> u16 {
        let p16 = seg16(data);
        self.parity4[line] = self.map.corrupt_parity4(line, (p16 & 0xF) as u8);
        p16
    }

    /// Checks a stable (`b'00`/`b'10`) line's 4 quarter parities against
    /// `stored`, emitting the [`KilliEvent::ParityObservation`].
    pub fn observe_stable(&self, line: LineId, stored: &Line512) -> SegObservation {
        let obs = SegObservation::observe4(self.parity4[line], seg4(stored));
        self.sink.emit(|| KilliEvent::ParityObservation {
            line: line as u32,
            mismatch: !matches!(obs, SegObservation::Match),
        });
        obs
    }

    /// Observables of a training (`b'01`) line: 16-bit segment parity
    /// (4 LV cells + 12 nominal bits from the ECC-cache payload) plus the
    /// SECDED syndrome/parity, with both observation events emitted.
    pub fn observe_training(
        &self,
        line: LineId,
        stored: &Line512,
        code: SecdedCode,
        parity_hi: u16,
    ) -> (SegObservation, SecdedObservation, SecdedDecode) {
        let stored_p16 = (parity_hi << 4) | u16::from(self.parity4[line] & 0xF);
        let seg = SegObservation::observe16(stored_p16, seg16(stored));
        let ecc = secded().observe(stored, code);
        let dec = secded().interpret(ecc);
        self.sink.emit(|| KilliEvent::ParityObservation {
            line: line as u32,
            mismatch: !matches!(seg, SegObservation::Match),
        });
        self.sink.emit(|| KilliEvent::SyndromeObservation {
            line: line as u32,
            corrected: matches!(
                dec,
                SecdedDecode::CorrectedData { .. } | SecdedDecode::CorrectedCheck
            ),
            detected: matches!(
                dec,
                SecdedDecode::DetectedDouble | SecdedDecode::DetectedUncorrectable
            ),
        });
        (seg, ecc, dec)
    }

    /// Forgets all stored parity (voltage change / reboot).
    pub fn reset(&mut self) {
        self.parity4.fill(0);
    }

    /// Connects the parity layer to an event sink.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }
}
