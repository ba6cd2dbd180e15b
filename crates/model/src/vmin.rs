//! Vmin and yield analysis: which supply voltage can each *die* actually
//! reach?
//!
//! The paper's §2.1 notes that circuit-level LV techniques need post-silicon
//! per-die tuning because failure rates vary die to die — precisely the
//! knowledge problem Killi's runtime classification dissolves (no tuning,
//! no MBIST: every die self-discovers its population at whatever voltage it
//! is given). This module quantifies that: given a die-to-die spread of the
//! failure curves, it computes the minimum reliable voltage per die for a
//! given scheme strength and the resulting fleet-wide yield at each voltage.

use killi_fault::cell_model::{CellFailureModel, FreqGhz, NormVdd};
use killi_fault::line_stats::LineFaultDistribution;
use killi_fault::rng::{hash3, standard_normal};

/// A die's failure curves: the base model with a per-die rate multiplier
/// (lognormal across the population, like the per-line spread but frozen
/// per chip).
#[derive(Debug, Clone)]
pub struct Die {
    model: CellFailureModel,
    /// The die's rate multiplier (1.0 = typical).
    pub multiplier: f64,
}

impl Die {
    /// Samples die `index` from a population with lognormal rate spread
    /// `die_sigma`.
    pub fn sample(base: &CellFailureModel, die_sigma: f64, seed: u64, index: u64) -> Self {
        let z = standard_normal(hash3(seed, index, 0xD1E));
        let multiplier = (die_sigma * z).exp();
        // Shift every anchor by log10(multiplier): a uniform rate scale.
        let shift = multiplier.log10();
        let anchors = base_anchors(base)
            .iter()
            .map(|&(v, l)| (v, l + shift))
            .collect();
        Die {
            model: CellFailureModel::from_anchors(anchors, base.sigma()),
            multiplier,
        }
    }

    /// The die's failure model.
    pub fn model(&self) -> &CellFailureModel {
        &self.model
    }

    /// Usable-line fraction for a scheme correcting `correctable` faults
    /// per 523-cell line at voltage `vdd`.
    pub fn capacity(&self, vdd: NormVdd, correctable: u64) -> f64 {
        LineFaultDistribution::enabled_fraction_at(
            &self.model,
            vdd,
            FreqGhz::PEAK,
            523,
            correctable,
        )
    }

    /// Minimum voltage (to 1 mV of normalized VDD) at which the die keeps
    /// at least `target` of its lines usable under a `correctable`-strong
    /// scheme. Returns `None` when even nominal voltage fails (never, in
    /// practice).
    pub fn vmin(&self, target: f64, correctable: u64) -> Option<NormVdd> {
        let mut lo = 0.40f64;
        let mut hi = 1.0f64;
        if self.capacity(NormVdd(hi), correctable) < target {
            return None;
        }
        if self.capacity(NormVdd(lo), correctable) >= target {
            return Some(NormVdd(lo));
        }
        while hi - lo > 0.001 {
            let mid = 0.5 * (lo + hi);
            if self.capacity(NormVdd(mid), correctable) >= target {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(NormVdd(hi))
    }
}

/// Fleet yield: the fraction of `dies` sampled dies whose Vmin (for the
/// given capacity target and scheme strength) is at or below `vdd`.
pub fn yield_at(
    base: &CellFailureModel,
    die_sigma: f64,
    seed: u64,
    dies: u64,
    vdd: NormVdd,
    target: f64,
    correctable: u64,
) -> f64 {
    let ok = (0..dies)
        .filter(|&i| Die::sample(base, die_sigma, seed, i).capacity(vdd, correctable) >= target)
        .count();
    ok as f64 / dies as f64
}

/// Monte-Carlo replicated fleet yield: one independently-seeded die
/// population per replicate (seeds derived from `root_seed` with the
/// sweep engine's hierarchical scheme), so callers can put a confidence
/// interval on the yield estimate instead of quoting a single draw.
#[allow(clippy::too_many_arguments)]
pub fn yield_samples(
    base: &CellFailureModel,
    die_sigma: f64,
    root_seed: u64,
    replications: u64,
    dies: u64,
    vdd: NormVdd,
    target: f64,
    correctable: u64,
) -> Vec<f64> {
    (0..replications)
        .map(|rep| {
            let seed = killi_fault::rng::derive_seed(root_seed, "yield", &[rep]);
            yield_at(base, die_sigma, seed, dies, vdd, target, correctable)
        })
        .collect()
}

/// Extracts the model's anchors (re-deriving them from the public query
/// interface keeps `CellFailureModel` encapsulated).
fn base_anchors(model: &CellFailureModel) -> Vec<(f64, f64)> {
    use killi_fault::cell_model::FailureKind;
    [0.500, 0.525, 0.550, 0.575, 0.600, 0.625, 0.650, 0.674]
        .iter()
        .map(|&v| {
            let p = model.p_cell_median(NormVdd(v), FreqGhz::PEAK, FailureKind::Combined);
            (v, p.log10())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> CellFailureModel {
        CellFailureModel::finfet14()
    }

    #[test]
    fn typical_die_reaches_the_paper_operating_point() {
        // A 1.0x die under Killi (1 correctable fault, 99 % capacity
        // target) must reach 0.625 x VDD.
        let die = Die {
            model: base(),
            multiplier: 1.0,
        };
        let vmin = die.vmin(0.99, 1).expect("reachable");
        assert!(vmin.0 <= 0.63, "vmin = {}", vmin.0);
        assert!(vmin.0 >= 0.55, "vmin = {}", vmin.0);
    }

    #[test]
    fn stronger_correction_lowers_vmin() {
        let die = Die {
            model: base(),
            multiplier: 1.0,
        };
        let v1 = die.vmin(0.99, 1).unwrap();
        let v11 = die.vmin(0.99, 11).unwrap();
        assert!(v11.0 < v1.0, "{} vs {}", v11.0, v1.0);
    }

    #[test]
    fn worse_dies_have_higher_vmin() {
        let base = base();
        let good = Die::sample(&base, 0.0, 1, 0); // sigma 0: typical
        let bad = Die {
            model: CellFailureModel::from_anchors(
                base_anchors(&base)
                    .iter()
                    .map(|&(v, l)| (v, l + 1.0))
                    .collect(),
                base.sigma(),
            ),
            multiplier: 10.0,
        };
        let vg = good.vmin(0.99, 1).unwrap();
        let vb = bad.vmin(0.99, 1).unwrap();
        assert!(vb.0 > vg.0, "{} vs {}", vb.0, vg.0);
    }

    #[test]
    fn yield_is_monotone_in_voltage() {
        let base = base();
        let y_lo = yield_at(&base, 0.5, 7, 200, NormVdd(0.59), 0.99, 1);
        let y_hi = yield_at(&base, 0.5, 7, 200, NormVdd(0.64), 0.99, 1);
        assert!(y_hi >= y_lo);
        assert!(y_hi > 0.8, "most dies fine at 0.64: {y_hi}");
    }

    #[test]
    fn die_sampling_is_deterministic() {
        let base = base();
        let a = Die::sample(&base, 0.5, 3, 17);
        let b = Die::sample(&base, 0.5, 3, 17);
        assert_eq!(a.multiplier, b.multiplier);
    }

    #[test]
    fn yield_replicates_are_deterministic_and_independent() {
        let base = base();
        let a = yield_samples(&base, 0.5, 42, 4, 50, NormVdd(0.625), 0.98, 1);
        let b = yield_samples(&base, 0.5, 42, 4, 50, NormVdd(0.625), 0.98, 1);
        assert_eq!(a, b, "pure function of the root seed");
        assert_eq!(a.len(), 4);
        // Different replicates draw different die populations; with 50
        // dies at least one pair of estimates should differ.
        assert!(
            a.windows(2).any(|w| w[0] != w[1]),
            "replicates look identical: {a:?}"
        );
        for y in a {
            assert!((0.0..=1.0).contains(&y));
        }
    }
}
