//! Simulation statistics: the raw counters behind Figures 4 and 5 and
//! Table 6.

/// Counters collected by one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total simulated cycles (kernel execution time; Figure 4 metric).
    pub cycles: u64,
    /// Instructions executed (memory ops + compute ops).
    pub instructions: u64,
    /// Load operations issued.
    pub loads: u64,
    /// Store operations issued.
    pub stores: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses (forwarded to the L2).
    pub l1_misses: u64,
    /// L2 demand hits.
    pub l2_hits: u64,
    /// L2 demand misses (includes error-induced and bypassed accesses).
    pub l2_misses: u64,
    /// L2 misses caused by a detected error on a hit (Table 2's
    /// "error-induced cache miss").
    pub l2_error_misses: u64,
    /// L2 line invalidations forced by ECC-cache evictions.
    pub ecc_induced_invalidations: u64,
    /// Accesses bypassing the L2 because no usable way existed in the set.
    pub l2_bypasses: u64,
    /// Lines delivered to the compute units whose payload differed from the
    /// architecturally-correct value (silent data corruptions).
    pub sdc_events: u64,
    /// Corrections performed by the protection scheme on delivered data.
    pub corrections: u64,
    /// Reads serviced by main memory.
    pub mem_reads: u64,
    /// Writes sent to main memory (write-through traffic).
    pub mem_writes: u64,
    /// L2 tag lookups (for the energy model).
    pub l2_tag_accesses: u64,
    /// L2 data-array accesses (for the energy model).
    pub l2_data_accesses: u64,
    /// ECC-cache accesses performed by the scheme (for the energy model).
    pub ecc_cache_accesses: u64,
    /// Dirty lines written back to memory (write-back mode only).
    pub writebacks: u64,
    /// Detected-uncorrectable errors on *dirty* lines: in write-back mode
    /// the memory copy is stale, so these are real data-loss events.
    pub dirty_data_loss: u64,
}

impl SimStats {
    /// L2 misses per kilo-instruction (Figure 5 metric).
    ///
    /// Returns 0 when no instruction was executed.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// L2 hit rate over demand accesses.
    pub fn l2_hit_rate(&self) -> f64 {
        let total = self.l2_hits + self.l2_misses;
        if total == 0 {
            0.0
        } else {
            self.l2_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_definition() {
        let s = SimStats {
            instructions: 10_000,
            l2_misses: 150,
            ..SimStats::default()
        };
        assert!((s.mpki() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn mpki_zero_instructions() {
        assert_eq!(SimStats::default().mpki(), 0.0);
    }

    #[test]
    fn hit_rate() {
        let s = SimStats {
            l2_hits: 75,
            l2_misses: 25,
            ..SimStats::default()
        };
        assert!((s.l2_hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(SimStats::default().l2_hit_rate(), 0.0);
    }
}
