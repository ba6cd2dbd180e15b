//! The interface between the L2 cache model and a protection scheme.
//!
//! Killi and every baseline implement [`LineProtection`]; the L2 model calls
//! the hooks at fill, hit, promotion and eviction time, so all schemes run
//! on the identical timing and fault substrate and differ only in their
//! protection behaviour.

use killi_ecc::bits::Line512;
use killi_fault::map::LineId;
use killi_obs::{MetricSet, Sink};

/// Result of a fill-time hook.
#[derive(Debug, Clone)]
pub struct FillOutcome {
    /// False when the scheme refuses the fill (e.g. an inverted-write check
    /// discovered a multi-bit fault at install time); the L2 serves the
    /// request uncached.
    pub accepted: bool,
    /// A physical line the L2 must invalidate as collateral (e.g. a
    /// Killi ECC-cache eviction displaces the protection of another L2
    /// line). A fill displaces at most one.
    pub invalidate: Option<LineId>,
    /// Extra cycles charged to the fill (usually 0: encode latency is
    /// hidden under the memory access).
    pub extra_cycles: u32,
}

impl Default for FillOutcome {
    fn default() -> Self {
        FillOutcome {
            accepted: true,
            invalidate: None,
            extra_cycles: 0,
        }
    }
}

/// Result of a read-hit check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Data is delivered (after in-place correction, if any).
    Clean {
        /// Extra cycles beyond the base hit latency (e.g. correction).
        extra_cycles: u32,
        /// True when the scheme corrected the delivered data.
        corrected: bool,
    },
    /// A detected, uncorrectable error: the L2 must invalidate the line and
    /// refetch from memory (the paper's "error-induced cache miss").
    ErrorMiss {
        /// Extra cycles charged before the refetch starts.
        extra_cycles: u32,
    },
}

/// Protection-scheme hooks invoked by the L2 cache model.
///
/// `LineId` identifies a *physical* line (`set * ways + way`); per-line
/// scheme state (like Killi's DFH bits) persists across data evictions, as
/// in the paper.
pub trait LineProtection {
    /// Scheme name for reports.
    fn name(&self) -> &str;

    /// Resets learned state (voltage change / reboot — the paper's "DFH
    /// reset").
    fn reset(&mut self);

    /// Victim preference for allocating into `line`: lower class = preferred
    /// (Killi orders `b'01 > b'00 > b'10`), `None` = unusable (disabled).
    fn victim_class(&self, line: LineId) -> Option<u8>;

    /// Called when `data` (the architecturally-correct value) is installed
    /// into `line`. The scheme generates and stores its metadata here.
    fn on_fill(&mut self, line: LineId, data: &Line512) -> FillOutcome;

    /// Called on a read hit with the (possibly corrupted) array content.
    /// The scheme checks, may correct `stored` in place, and reports the
    /// outcome.
    fn on_read_hit(&mut self, line: LineId, stored: &mut Line512) -> ReadOutcome;

    /// Called when `line` is evicted or invalidated while holding data.
    /// Killi trains DFH bits here for lines still in the initial state.
    fn on_evict(&mut self, line: LineId, stored: &Line512);

    /// Called when `line` is promoted to MRU (Killi promotes the associated
    /// ECC-cache entry in tandem, §4.4).
    fn on_promote(&mut self, line: LineId) {
        let _ = line;
    }

    /// Called when a store updates `line` in place (write-back or
    /// write-through-update). Defaults to the fill hook; schemes that
    /// escalate protection for dirty data (Killi §5.6.1) override it.
    fn on_write(&mut self, line: LineId, data: &Line512) -> FillOutcome {
        self.on_fill(line, data)
    }

    /// Called when the scheme named `line` as a fill's `invalidate` line
    /// (its protection metadata was displaced). `stored` is the line's
    /// current array content; the scheme may reclassify the line into a
    /// self-sufficient state and return `true` to keep it valid (Killi
    /// salvages lines it can verify fault-free with parity alone).
    fn on_displaced(&mut self, line: LineId, stored: &Line512) -> bool {
        let _ = (line, stored);
        false
    }

    /// Additional cycles on every L2 hit (e.g. 1 cycle of SECDED/parity
    /// checking per Table 3).
    fn hit_latency_extra(&self) -> u32 {
        0
    }

    /// Hands the scheme an observability [`Sink`] to emit events
    /// through. Default: ignore it, so stateless schemes like
    /// [`Unprotected`] opt out without boilerplate.
    fn attach_sink(&mut self, sink: Sink) {
        let _ = sink;
    }

    /// Snapshot of the scheme's metric registry, the one reporting path:
    /// schemes fill in the counters they own (disabled lines,
    /// corrections, DFH census and transition matrix, …). Default: empty.
    fn metrics(&self) -> MetricSet {
        MetricSet::new()
    }
}

/// The trivial scheme of the fault-free nominal-voltage baseline: no
/// metadata, no checks, every line usable.
#[derive(Debug, Default)]
pub struct Unprotected {
    _private: (),
}

impl Unprotected {
    /// Creates the no-op scheme.
    pub fn new() -> Self {
        Self::default()
    }
}

impl LineProtection for Unprotected {
    fn name(&self) -> &str {
        "fault-free"
    }

    fn reset(&mut self) {}

    fn victim_class(&self, _line: LineId) -> Option<u8> {
        Some(0)
    }

    fn on_fill(&mut self, _line: LineId, _data: &Line512) -> FillOutcome {
        FillOutcome::default()
    }

    fn on_read_hit(&mut self, _line: LineId, _stored: &mut Line512) -> ReadOutcome {
        ReadOutcome::Clean {
            extra_cycles: 0,
            corrected: false,
        }
    }

    fn on_evict(&mut self, _line: LineId, _stored: &Line512) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unprotected_is_transparent() {
        let mut u = Unprotected::new();
        assert_eq!(u.name(), "fault-free");
        assert_eq!(u.victim_class(3), Some(0));
        let mut d = Line512::from_seed(4);
        let before = d;
        match u.on_read_hit(0, &mut d) {
            ReadOutcome::Clean { corrected, .. } => assert!(!corrected),
            other => panic!("{other:?}"),
        }
        assert_eq!(d, before);
        assert_eq!(u.on_fill(0, &d).invalidate, None);
        assert_eq!(u.metrics(), MetricSet::new());
        assert_eq!(u.hit_latency_extra(), 0);
    }
}
