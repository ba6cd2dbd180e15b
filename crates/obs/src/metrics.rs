//! Mergeable counter/histogram registry.
//!
//! A [`MetricSet`] is plain data: a fixed array of monotonic counters,
//! the 4×4 DFH transition matrix, an optional DFH census gauge, and two
//! fixed-width histograms (ECC-cache set occupancy, DFH training
//! latency in ops). [`MetricSet::merge`] is element-wise addition, so
//! folding per-replicate sets into a per-cell aggregate is associative
//! and commutative — the property the sweep engine's determinism
//! contract leans on, and that the unit tests here pin down.
//!
//! Each counter has one writer, at the place the work happens: a
//! scheme adds to its own counters and snapshots them through
//! `LineProtection::metrics()`, and the sweep runner sets the L2's miss
//! split. No counter is derived from the event stream, so a set is
//! complete whether or not a trace is attached.

use crate::counters::counter_registry;

/// Number of histogram buckets (fixed so merge is element-wise).
pub const HISTOGRAM_BUCKETS: usize = 16;

counter_registry! {
    /// Every monotonic counter a simulation keeps.
    ///
    /// The discriminant doubles as the index into [`Counters`], and
    /// [`Counter::NAMES`] carries the stable JSON names in the same order.
    pub enum Counter;
    /// One value per [`Counter`]: the counter block of a [`MetricSet`].
    pub struct Counters;
    DfhTransitions => "dfh_transitions",
    Corrections => "corrections",
    Detections => "detections",
    EccCacheAccesses => "ecc_cache_accesses",
    EccCacheDisplacements => "ecc_cache_displacements",
    ErrorInducedMisses => "error_induced_misses",
    EccInducedMisses => "ecc_induced_misses",
    DisabledLines => "disabled_lines",
}

/// A fixed-width histogram: bucket counts plus running count/sum of the
/// observed values (so means survive aggregation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: u64,
}

impl Histogram {
    /// An empty histogram (the merge identity).
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records `value` with linear bucketing: bucket `i` holds value
    /// `i`, the last bucket is a catch-all for `value >= BUCKETS - 1`.
    pub fn observe_linear(&mut self, value: u64) {
        let idx = (value as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Records `value` with power-of-two bucketing: bucket 0 holds 0,
    /// bucket `i` holds values in `[2^(i-1), 2^i)`, last bucket is a
    /// catch-all.
    pub fn observe_log2(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Element-wise addition of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of the observed values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

/// The aggregate metric state for one simulation (or one sweep cell).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricSet {
    counters: Counters,
    /// `dfh_transitions[from][to]` transition counts (2-bit encoding).
    pub dfh_transitions: [[u64; 4]; 4],
    /// End-of-run DFH population `[Stable0, Unknown, Stable1, Disabled]`
    /// — a gauge; `None` for schemes without DFH state. Merging sums
    /// censuses so per-cell aggregates stay meaningful as totals.
    pub dfh_census: Option<[u64; 4]>,
    /// ECC-cache set occupancy sampled at each insert (linear buckets).
    pub ecc_occupancy: Histogram,
    /// Ops spent in the Unknown (training) state before classification
    /// (power-of-two buckets).
    pub training_latency_ops: Histogram,
}

impl MetricSet {
    /// An all-zero set (the merge identity).
    pub fn new() -> Self {
        MetricSet::default()
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, counter: Counter, n: u64) {
        self.counters.add(counter, n);
    }

    /// Overwrites a counter (for gauges snapshotted at end of run).
    pub fn set(&mut self, counter: Counter, value: u64) {
        self.counters.set(counter, value);
    }

    /// Current value of a counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.counters.get(counter)
    }

    /// Total DFH transitions recorded in the matrix.
    pub fn total_transitions(&self) -> u64 {
        self.dfh_transitions.iter().flatten().sum()
    }

    /// Element-wise addition of `other` into `self`. Associative and
    /// commutative; `MetricSet::new()` is the identity.
    pub fn merge(&mut self, other: &MetricSet) {
        self.counters.merge(&other.counters);
        for (row, orow) in self
            .dfh_transitions
            .iter_mut()
            .zip(other.dfh_transitions.iter())
        {
            for (cell, ocell) in row.iter_mut().zip(orow.iter()) {
                *cell += ocell;
            }
        }
        self.dfh_census = match (self.dfh_census, other.dfh_census) {
            (None, c) | (c, None) => c,
            (Some(a), Some(b)) => Some([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]]),
        };
        self.ecc_occupancy.merge(&other.ecc_occupancy);
        self.training_latency_ops.merge(&other.training_latency_ops);
    }

    /// Serialises the set as a compact JSON object. Field order is
    /// fixed, so equal sets produce identical bytes.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("{\"counters\":");
        self.counters.write_json(&mut out);
        out.push_str(",\"dfh_transitions\":[");
        for (i, row) in self.dfh_transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{},{},{}]", row[0], row[1], row[2], row[3]);
        }
        out.push_str("],\"dfh_census\":");
        match self.dfh_census {
            Some(c) => {
                let _ = write!(out, "[{},{},{},{}]", c[0], c[1], c[2], c[3]);
            }
            None => out.push_str("null"),
        }
        write_histogram(&mut out, ",\"ecc_occupancy\":", &self.ecc_occupancy);
        write_histogram(
            &mut out,
            ",\"training_latency_ops\":",
            &self.training_latency_ops,
        );
        out.push('}');
        out
    }
}

fn write_histogram(out: &mut String, key: &str, h: &Histogram) {
    use std::fmt::Write;
    out.push_str(key);
    out.push_str("{\"buckets\":[");
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{b}");
    }
    let _ = write!(out, "],\"count\":{},\"sum\":{}}}", h.count, h.sum);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> MetricSet {
        let mut m = MetricSet::new();
        for (i, c) in Counter::ALL.iter().enumerate() {
            m.add(*c, seed.wrapping_mul(i as u64 + 1) % 97);
        }
        m.dfh_transitions[(seed % 4) as usize][((seed + 1) % 4) as usize] += 1;
        if seed.is_multiple_of(2) {
            m.dfh_census = Some([seed, seed + 1, seed + 2, seed + 3]);
        }
        m.ecc_occupancy.observe_linear(seed % 20);
        m.training_latency_ops.observe_log2(seed * 13 % 5000);
        m
    }

    fn merged(parts: &[&MetricSet]) -> MetricSet {
        let mut acc = MetricSet::new();
        for p in parts {
            acc.merge(p);
        }
        acc
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (sample(3), sample(11), sample(40));
        let left = {
            let mut ab = a;
            ab.merge(&b);
            ab.merge(&c);
            ab
        };
        let right = {
            let mut bc = b;
            bc.merge(&c);
            let mut a2 = a;
            a2.merge(&bc);
            a2
        };
        assert_eq!(left, right);
    }

    #[test]
    fn merge_is_commutative_with_identity() {
        let (a, b) = (sample(7), sample(19));
        assert_eq!(merged(&[&a, &b]), merged(&[&b, &a]));
        assert_eq!(merged(&[&a, &MetricSet::new()]), a);
    }

    #[test]
    fn census_merge_treats_none_as_identity() {
        let mut a = MetricSet::new();
        let mut b = MetricSet::new();
        b.dfh_census = Some([1, 2, 3, 4]);
        a.merge(&b);
        assert_eq!(a.dfh_census, Some([1, 2, 3, 4]));
        let mut c = MetricSet::new();
        c.dfh_census = Some([10, 0, 0, 0]);
        a.merge(&c);
        assert_eq!(a.dfh_census, Some([11, 2, 3, 4]));
    }

    #[test]
    fn histogram_bucketing_and_mean() {
        let mut h = Histogram::new();
        h.observe_linear(0);
        h.observe_linear(3);
        h.observe_linear(100); // catch-all
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[HISTOGRAM_BUCKETS - 1], 1);
        assert_eq!(h.count, 3);
        assert!((h.mean() - (103.0 / 3.0)).abs() < 1e-12);

        let mut l = Histogram::new();
        l.observe_log2(0);
        l.observe_log2(1);
        l.observe_log2(2);
        l.observe_log2(3);
        l.observe_log2(1 << 40); // catch-all
        assert_eq!(l.buckets[0], 1);
        assert_eq!(l.buckets[1], 1);
        assert_eq!(l.buckets[2], 2);
        assert_eq!(l.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn json_shape_is_stable_and_parses() {
        let m = sample(5);
        let text = m.to_json();
        let v = crate::json::parse(&text).expect("metric JSON parses");
        let counters = v.get("counters").expect("counters object");
        for name in Counter::NAMES {
            assert!(counters.get(name).is_some(), "missing counter {name}");
        }
        assert!(v.get("dfh_transitions").is_some());
        assert!(v.get("ecc_occupancy").is_some());
    }
}
