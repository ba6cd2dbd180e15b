//! MS-ECC baseline: Orthogonal-Latin-Square-coded lines (Chishti et al.,
//! MICRO'09, as configured in the Killi paper's §5).
//!
//! MS-ECC protects every line with OLSC strong enough to correct ~11 faults
//! per 64B line, offering the highest usable capacity of all baselines at a
//! ~18x SECDED area cost (Table 5). We realize it with OLSC(m = 8, t = 2):
//! 2 corrections per 64-bit block, 256 checkbits per line. The MBIST oracle
//! disables the (vanishingly rare) lines exceeding per-block capability.
//! Checkbits are modelled as protected storage (not stuck-at corrupted) —
//! the paper likewise credits MS-ECC with full-strength correction; this
//! slightly favours MS-ECC and is recorded in EXPERIMENTS.md.
//!
//! The scheme is the pipeline composition [`OlscBlockCodec`] +
//! [`LineStore`] + [`OracleClassifier`] + [`PassthroughPolicy`].

use std::sync::Arc;

use killi::pipeline::{
    LineStore, OlscBlockCodec, OracleClassifier, PassthroughPolicy, ProtectionPipeline,
};
use killi_ecc::bits::Line512;
use killi_ecc::olsc::OlscLine;
use killi_fault::map::{FaultMap, LineId};
use killi_obs::{MetricSet, Sink};
use killi_sim::protection::{FillOutcome, LineProtection, ReadOutcome};

/// The MS-ECC protection scheme.
pub struct MsEcc {
    pipe: ProtectionPipeline<OlscBlockCodec, LineStore, OracleClassifier, PassthroughPolicy>,
}

impl MsEcc {
    /// Builds MS-ECC over `l2_lines` lines with the paper's configuration.
    ///
    /// # Panics
    ///
    /// Panics if the fault map does not cover `l2_lines`.
    pub fn new(map: Arc<FaultMap>, l2_lines: usize) -> Self {
        Self::with_code(map, l2_lines, 8, 2)
    }

    /// Builds MS-ECC with a custom OLSC geometry (block width `m`,
    /// per-block correction `t`).
    ///
    /// # Panics
    ///
    /// Panics on unsupported OLSC parameters or an undersized fault map.
    pub fn with_code(map: Arc<FaultMap>, l2_lines: usize, m: usize, t: usize) -> Self {
        match Self::try_with_code(map, l2_lines, m, t) {
            Ok(scheme) => scheme,
            Err(message) => panic!("{message}"),
        }
    }

    /// Fallible construction (the registry path): validates the OLSC
    /// geometry (including that a line's checkbits fit the 256-bit
    /// payload) and map coverage instead of panicking.
    pub fn try_with_code(
        map: Arc<FaultMap>,
        l2_lines: usize,
        m: usize,
        t: usize,
    ) -> Result<Self, String> {
        if map.lines() < l2_lines {
            return Err("fault map too small".to_string());
        }
        let codec = OlscLine::try_new(m, t)?;
        // Oracle: disable lines with more than `t` data faults in any block.
        let oracle = OracleClassifier::from_block_budget(&map, l2_lines, m * m, t);
        Ok(MsEcc {
            pipe: ProtectionPipeline::new(
                "ms-ecc",
                OlscBlockCodec::new(codec),
                LineStore::new(l2_lines),
                oracle,
                PassthroughPolicy,
            ),
        })
    }

    /// Number of lines the oracle disabled.
    pub fn disabled_count(&self) -> usize {
        self.pipe.classifier().disabled_count()
    }

    /// Checkbits per line of the configured code.
    pub fn check_bits_per_line(&self) -> usize {
        self.pipe.codec().check_bits()
    }
}

impl LineProtection for MsEcc {
    fn name(&self) -> &str {
        self.pipe.name()
    }

    fn reset(&mut self) {
        self.pipe.reset();
    }

    fn victim_class(&self, line: LineId) -> Option<u8> {
        self.pipe.victim_class(line)
    }

    fn on_fill(&mut self, line: LineId, data: &Line512) -> FillOutcome {
        self.pipe.on_fill(line, data)
    }

    fn on_read_hit(&mut self, line: LineId, stored: &mut Line512) -> ReadOutcome {
        self.pipe.on_read_hit(line, stored)
    }

    fn on_evict(&mut self, line: LineId, stored: &Line512) {
        self.pipe.on_evict(line, stored);
    }

    fn hit_latency_extra(&self) -> u32 {
        self.pipe.hit_latency_extra() // majority-logic decoding is single-cycle-class logic
    }

    fn attach_sink(&mut self, sink: Sink) {
        self.pipe.attach_sink(sink);
    }

    fn metrics(&self) -> MetricSet {
        self.pipe.metrics()
    }
}

impl std::fmt::Debug for MsEcc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MsEcc")
            .field("disabled", &self.disabled_count())
            .field("check_bits", &self.check_bits_per_line())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_fault::map::CellFault;

    fn fault(cell: u16) -> CellFault {
        CellFault { cell, stuck: true }
    }

    fn map_with(faults: Vec<(usize, Vec<CellFault>)>) -> Arc<FaultMap> {
        let mut per_line = vec![Vec::new(); 16];
        for (line, fs) in faults {
            per_line[line] = fs;
        }
        Arc::new(FaultMap::from_faults(per_line))
    }

    #[test]
    fn corrects_many_spread_faults() {
        // 8 faults, one per 64-bit block: all correctable.
        let cells: Vec<CellFault> = (0..8).map(|b| fault(b * 64 + 3)).collect();
        let map = map_with(vec![(0, cells)]);
        let mut s = MsEcc::new(Arc::clone(&map), 16);
        assert_eq!(s.disabled_count(), 0);
        let data = Line512::zero();
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        assert_eq!(arr.count_ones(), 8);
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(arr, data);
    }

    #[test]
    fn oracle_disables_overloaded_blocks() {
        // 3 faults in one 64-bit block exceed t = 2.
        let map = map_with(vec![(0, vec![fault(1), fault(9), fault(17)])]);
        let s = MsEcc::new(map, 16);
        assert_eq!(s.disabled_count(), 1);
        assert_eq!(s.victim_class(0), None);
    }

    #[test]
    fn eleven_fault_line_usable() {
        // The paper's "corrects up to 11 errors in a 64B line" scenario,
        // spread <= 2 per block.
        let cells: Vec<CellFault> = [3u16, 40, 70, 100, 140, 180, 210, 260, 330, 400, 480]
            .iter()
            .map(|&c| fault(c))
            .collect();
        let map = map_with(vec![(0, cells)]);
        let mut s = MsEcc::new(Arc::clone(&map), 16);
        assert_eq!(s.disabled_count(), 0);
        let data = Line512::from_seed(9);
        s.on_fill(0, &data);
        let mut arr = data;
        map.corrupt_data(0, &mut arr);
        if arr != data {
            match s.on_read_hit(0, &mut arr) {
                ReadOutcome::Clean { .. } => {}
                other => panic!("{other:?}"),
            }
            assert_eq!(arr, data);
        }
    }

    #[test]
    fn clean_lines_pass_through() {
        let map = map_with(vec![]);
        let mut s = MsEcc::new(map, 16);
        let data = Line512::from_seed(5);
        s.on_fill(0, &data);
        let mut arr = data;
        match s.on_read_hit(0, &mut arr) {
            ReadOutcome::Clean { corrected, .. } => assert!(!corrected),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn check_bit_budget_matches_paper_scale() {
        let map = map_with(vec![]);
        let s = MsEcc::new(map, 16);
        // 256 checkbits per 512-bit line: the ~18x-SECDED area class.
        assert_eq!(s.check_bits_per_line(), 256);
    }

    #[test]
    fn try_with_code_reports_bad_geometry() {
        let map = map_with(vec![]);
        let err = MsEcc::try_with_code(Arc::clone(&map), 16, 5, 2).unwrap_err();
        assert!(err.contains("block width"), "{err}");
        let err = MsEcc::try_with_code(Arc::clone(&map), 16, 8, 5).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let err = MsEcc::try_with_code(map, 64, 8, 2).unwrap_err();
        assert_eq!(err, "fault map too small");
    }

    #[test]
    fn line_checkbits_beyond_the_payload_are_an_error_not_a_panic() {
        // Each block's 2tm checkbits fit, but the line's do not: 8 x 48,
        // 32 x 16 and 2 x 160 bits against the 256-bit payload.
        let map = map_with(vec![]);
        for (m, t) in [(8, 3), (4, 2), (16, 5)] {
            let err = MsEcc::try_with_code(Arc::clone(&map), 16, m, t).unwrap_err();
            assert!(err.contains("256-bit payload"), "OLSC({m}, {t}): {err}");
        }
    }
}
