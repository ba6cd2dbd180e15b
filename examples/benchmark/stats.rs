//! Order statistics, the tail-percentile rule and the report digest.

/// Median of a sample (mean of the middle two for even lengths); NaN
/// for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Smallest value of a sample; NaN for an empty sample.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// First quartile, median and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match the ones a reader computes by hand.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    match s.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (s[0], s[0], s[0]),
        len => {
            let m = len + 1;
            let cut = |i: usize| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// Nearest-rank percentile `p` (in percent, to 0.1) of a sample; NaN
/// when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let s = sorted(xs);
    let rank = rank_of((p * 10.0).round() as usize, s.len()).clamp(1, s.len());
    s[rank - 1]
}

/// Nearest rank of the `permille`-th per-mille of `n` samples, in exact
/// integer arithmetic (`99.9 / 100.0 * n` is not exact in floating point).
fn rank_of(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000)
}

/// Tail percentiles a latency may be reported at, in per-mille, highest
/// first.
const TAIL_CANDIDATES: [usize; 5] = [999, 990, 950, 900, 500];

/// The highest percentile in [`TAIL_CANDIDATES`] that still has at
/// least ten of `n` samples beyond it, or `None` when not even the
/// median does. A tail reported from fewer samples than that is noise.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&pm| n >= rank_of(pm, n) + 10)
        .map(|pm| pm as f64 / 10.0)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a-64 digest, folded over every report a run checks, so two runs
/// (or two commits) can be compared for identical simulated output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest as a fixed-width hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(min(&[4.0, 1.0, 3.0]), 1.0);
        assert!(min(&[]).is_nan() && median(&[]).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 240 samples: p95 leaves 12 beyond, p99 only 2.
        assert_eq!(tail_percentile(240), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 0..2000 {
            if let Some(p) = tail_percentile(n) {
                let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
                let beyond = xs.iter().filter(|&&x| x > percentile(&xs, p)).count();
                assert!(beyond >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Published FNV-1a-64 test vectors.
        let mut d = Digest::default();
        assert_eq!(d.hex(), "cbf29ce484222325");
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
        let mut foobar = Digest::default();
        foobar.update(b"foobar");
        assert_eq!(foobar.hex(), "85944171f73967e8");
        // Chunking does not matter; order does.
        let mut split = Digest::default();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split.hex(), foobar.hex());
        let mut swapped = Digest::default();
        swapped.update(b"barfoo");
        assert_ne!(swapped.hex(), foobar.hex());
    }
}
