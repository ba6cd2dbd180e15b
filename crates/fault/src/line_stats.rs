//! Per-line fault-count statistics (the basis of Figure 2).
//!
//! The paper groups 64-byte lines by their number of LV failures: zero
//! (parity-only protection suffices), one (SECDED via the ECC cache), two or
//! more (disabled). Both an analytic binomial model and empirical
//! measurement of a sampled [`FaultMap`] are provided;
//! the two agree, which is itself covered by tests.

use crate::cell_model::{CellFailureModel, FreqGhz, NormVdd};
use crate::map::FaultMap;

use crate::prob::{binom_pmf, binom_sf};

/// Fractions of lines with 0, 1 and >= 2 failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFaultDistribution {
    /// Fraction of lines with no faulty cell.
    pub zero: f64,
    /// Fraction of lines with exactly one faulty cell.
    pub one: f64,
    /// Fraction of lines with two or more faulty cells.
    pub two_plus: f64,
}

impl LineFaultDistribution {
    /// Analytic distribution for `cells`-bit lines at per-cell failure
    /// probability `p`.
    pub fn analytic(cells: u64, p: f64) -> Self {
        LineFaultDistribution {
            zero: binom_pmf(cells, 0, p),
            one: binom_pmf(cells, 1, p),
            two_plus: binom_sf(cells, 2, p),
        }
    }

    /// Analytic distribution at an operating point, using the paper's
    /// 523-cell protected line and integrating over the per-line
    /// variation mixture.
    pub fn at(model: &CellFailureModel, vdd: NormVdd, freq: FreqGhz) -> Self {
        Self::at_cells(model, vdd, freq, 523)
    }

    /// Mixture-averaged distribution for `cells`-bit lines.
    pub fn at_cells(model: &CellFailureModel, vdd: NormVdd, freq: FreqGhz, cells: u64) -> Self {
        LineFaultDistribution {
            zero: model.mix(vdd, freq, |p| binom_pmf(cells, 0, p)),
            one: model.mix(vdd, freq, |p| binom_pmf(cells, 1, p)),
            two_plus: model.mix(vdd, freq, |p| binom_sf(cells, 2, p)),
        }
    }

    /// Empirical distribution measured over the *data* cells of a fault map.
    pub fn measured(map: &FaultMap) -> Self {
        let hist = map.data_fault_histogram(3);
        let n = map.lines() as f64;
        LineFaultDistribution {
            zero: hist[0] as f64 / n,
            one: hist[1] as f64 / n,
            two_plus: hist[2] as f64 / n,
        }
    }

    /// Fraction of lines usable by a scheme that corrects up to
    /// `correctable` faults per line, at a fixed per-cell probability.
    pub fn enabled_fraction(cells: u64, p: f64, correctable: u64) -> f64 {
        1.0 - binom_sf(cells, correctable + 1, p)
    }

    /// Mixture-averaged usable fraction at an operating point (the Table 7
    /// capacity targets).
    pub fn enabled_fraction_at(
        model: &CellFailureModel,
        vdd: NormVdd,
        freq: FreqGhz,
        cells: u64,
        correctable: u64,
    ) -> f64 {
        model.mix(vdd, freq, |p| 1.0 - binom_sf(cells, correctable + 1, p))
    }

    /// Mixture-averaged fraction of lines with at least one fault (the
    /// population Killi's ECC cache must cover).
    pub fn faulty_fraction_at(
        model: &CellFailureModel,
        vdd: NormVdd,
        freq: FreqGhz,
        cells: u64,
    ) -> f64 {
        model.mix(vdd, freq, |p| binom_sf(cells, 1, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distribution_sums_to_one() {
        let d = LineFaultDistribution::analytic(523, 0.001);
        assert!((d.zero + d.one + d.two_plus - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paper_aggregate_at_0_625() {
        // > 95 % of lines have fewer than two failures at 0.625 VDD / 1 GHz,
        // and the overwhelming majority are fault-free.
        let d = LineFaultDistribution::at(
            &CellFailureModel::finfet14(),
            NormVdd::LV_0_625,
            FreqGhz::PEAK,
        );
        assert!(d.zero + d.one > 0.95, "{d:?}");
        assert!(d.zero > 0.9, "most lines are fault-free: {d:?}");
    }

    #[test]
    fn two_plus_grows_as_voltage_drops() {
        let m = CellFailureModel::finfet14();
        let mut prev = -1.0;
        for v in [0.65, 0.625, 0.6, 0.575, 0.55] {
            let d = LineFaultDistribution::at(&m, NormVdd(v), FreqGhz::PEAK);
            assert!(d.two_plus >= prev, "v = {v}");
            prev = d.two_plus;
        }
    }

    #[test]
    fn measured_matches_analytic_mixture() {
        let model = CellFailureModel::finfet14();
        let vdd = NormVdd(0.585);
        let stuck_at = crate::model::default_registry()
            .build(&Default::default(), &())
            .unwrap();
        let map = stuck_at.map(20_000, vdd, FreqGhz::PEAK, 17);
        let meas = LineFaultDistribution::measured(&map);
        // The map's data region has 512 cells (vs 523 analytic), so compare
        // against the 512-cell mixture curve.
        let ana = LineFaultDistribution::at_cells(&model, vdd, FreqGhz::PEAK, 512);
        assert!((meas.zero - ana.zero).abs() < 0.02, "{meas:?} vs {ana:?}");
        assert!((meas.one - ana.one).abs() < 0.02);
        assert!((meas.two_plus - ana.two_plus).abs() < 0.02);
    }

    #[test]
    fn enabled_fraction_monotone_in_strength() {
        let p = 0.01;
        let mut prev = 0.0;
        for c in 0..12 {
            let e = LineFaultDistribution::enabled_fraction(523, p, c);
            assert!(e >= prev);
            prev = e;
        }
        assert!(prev <= 1.0);
    }

    #[test]
    fn table7_capacity_targets() {
        // MS-ECC corrects 11 faults; Table 7 reports the resulting capacity.
        let m = CellFailureModel::finfet14();
        let cap06 =
            LineFaultDistribution::enabled_fraction_at(&m, NormVdd(0.6), FreqGhz::PEAK, 523, 11);
        let cap0575 =
            LineFaultDistribution::enabled_fraction_at(&m, NormVdd(0.575), FreqGhz::PEAK, 523, 11);
        assert!((cap06 - 0.998).abs() < 0.004, "cap(0.600) = {cap06}");
        assert!((cap0575 - 0.696).abs() < 0.05, "cap(0.575) = {cap0575}");
    }

    #[test]
    fn table7_ecc_cache_sizing_targets() {
        // Killi's OLSC ECC cache is sized 1-of-8 at 0.600 and 1-of-2 at
        // 0.575: the faulty-line population must fit those ratios.
        let m = CellFailureModel::finfet14();
        let f06 = LineFaultDistribution::faulty_fraction_at(&m, NormVdd(0.6), FreqGhz::PEAK, 523);
        assert!(f06 < 0.17, "faulty(0.600) = {f06}");
        let f0575 =
            LineFaultDistribution::faulty_fraction_at(&m, NormVdd(0.575), FreqGhz::PEAK, 523);
        assert!(f0575 < 0.9 && f0575 > 0.4, "faulty(0.575) = {f0575}");
    }
}
