//! Nesting-aware Vmin grid search.
//!
//! The voltage grid is sorted ascending and a die either *passes* a grid
//! point (enough admissible lines for the capacity target) or fails it.
//! For fault models with the voltage-nesting property — every fault at a
//! higher voltage is also present at any lower voltage, declared via
//! `FaultModel::voltage_nested` and property-tested in `killi-fault` —
//! the pass predicate is monotone non-decreasing along the grid, so the
//! first passing point can be bisected in `O(log G)` probes. Models that
//! break nesting (the `transient` overlay redraws per operating point)
//! get a deterministic linear fallback that scans from the top of the
//! grid down and reports the start of the longest passing suffix: the
//! only sound notion of "minimum safe voltage" when the safe region is
//! merely upward-closed rather than an interval boundary.
//!
//! When the predicate *is* monotone the two searches agree exactly —
//! that equivalence is the subsystem's core property test.

/// Probe accounting for one or more searches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Grid-point pass/fail evaluations.
    pub probes: u64,
    /// Searches answered by bisection.
    pub binary_searches: u64,
    /// Searches answered by the exhaustive top-down fallback.
    pub linear_scans: u64,
}

impl SearchStats {
    /// Element-wise accumulation.
    pub fn merge(&mut self, other: &SearchStats) {
        self.probes += other.probes;
        self.binary_searches += other.binary_searches;
        self.linear_scans += other.linear_scans;
    }
}

/// How [`grid_vmin`] chooses its algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SearchMode {
    /// Bisect when the model is voltage-nested, linear fallback
    /// otherwise (the production mode).
    #[default]
    Auto,
    /// Always scan linearly — the oracle the property tests compare
    /// against.
    Exhaustive,
}

/// The minimum passing grid index of one (die, scheme) pair, or `None`
/// when the die fails even the highest grid voltage.
///
/// `pass(g)` must be a pure function of `g` for the duration of the
/// call. With `nested` (and [`SearchMode::Auto`]) it must additionally
/// be monotone non-decreasing in `g`; the bisection silently assumes it,
/// which is why non-nested models are routed to the linear fallback.
pub fn grid_vmin(
    grid_len: usize,
    nested: bool,
    mode: SearchMode,
    mut pass: impl FnMut(usize) -> bool,
    stats: &mut SearchStats,
) -> Option<usize> {
    assert!(grid_len >= 2, "a Vmin search needs at least 2 grid points");
    let bisect = nested && mode == SearchMode::Auto;
    if bisect {
        stats.binary_searches += 1;
        stats.probes += 1;
        if !pass(grid_len - 1) {
            return None;
        }
        // Invariant: pass(hi) is true, every index below lo fails.
        let (mut lo, mut hi) = (0, grid_len - 1);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            stats.probes += 1;
            if pass(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(hi)
    } else {
        stats.linear_scans += 1;
        let mut vmin = None;
        for g in (0..grid_len).rev() {
            stats.probes += 1;
            if pass(g) {
                vmin = Some(g);
            } else {
                break;
            }
        }
        vmin
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A monotone predicate passing at indices `>= first_pass`.
    fn step(first_pass: usize) -> impl Fn(usize) -> bool {
        move |g| g >= first_pass
    }

    #[test]
    fn binary_and_linear_agree_on_every_monotone_predicate() {
        for grid_len in 2..10 {
            for first_pass in 0..=grid_len {
                // first_pass == grid_len means the die always fails.
                let mut s1 = SearchStats::default();
                let mut s2 = SearchStats::default();
                let b = grid_vmin(grid_len, true, SearchMode::Auto, step(first_pass), &mut s1);
                let l = grid_vmin(
                    grid_len,
                    true,
                    SearchMode::Exhaustive,
                    step(first_pass),
                    &mut s2,
                );
                assert_eq!(b, l, "grid_len={grid_len} first_pass={first_pass}");
                let expected = (first_pass < grid_len).then_some(first_pass);
                assert_eq!(b, expected);
                assert_eq!(s1.binary_searches, 1);
                assert_eq!(s1.linear_scans, 0);
                assert_eq!(s2.linear_scans, 1);
            }
        }
    }

    #[test]
    fn bisection_probe_count_is_logarithmic() {
        let mut stats = SearchStats::default();
        let grid_len = 64;
        grid_vmin(grid_len, true, SearchMode::Auto, step(17), &mut stats);
        // 1 top probe + ceil(log2(64)) bisection probes.
        assert!(stats.probes <= 1 + 6, "{} probes", stats.probes);
    }

    #[test]
    fn non_nested_models_take_the_linear_fallback() {
        let mut stats = SearchStats::default();
        let got = grid_vmin(4, false, SearchMode::Auto, step(1), &mut stats);
        assert_eq!(got, Some(1));
        assert_eq!(stats.binary_searches, 0);
        assert_eq!(stats.linear_scans, 1);
    }

    #[test]
    fn linear_scan_reports_the_longest_passing_suffix() {
        // Non-monotone pass pattern: F T F T. The safe (suffix) region
        // is {3}; index 1 passes but 2 fails above it, so 1 is not safe.
        let pattern = [false, true, false, true];
        let mut stats = SearchStats::default();
        let got = grid_vmin(4, false, SearchMode::Auto, |g| pattern[g], &mut stats);
        assert_eq!(got, Some(3));
        // All-fail at the top: no Vmin.
        let mut stats = SearchStats::default();
        assert_eq!(
            grid_vmin(4, false, SearchMode::Auto, |_| false, &mut stats),
            None
        );
        assert_eq!(stats.probes, 1, "scan stops at the first failure");
    }
}
