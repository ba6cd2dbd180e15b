//! The paper's quantitative claims, encoded as integration tests against
//! the analytic models (the simulation-based claims live in
//! `scheme_equivalence.rs` and the experiment binaries).

use killi_repro::fault::cell_model::{CellFailureModel, FreqGhz, NormVdd};
use killi_repro::fault::line_stats::LineFaultDistribution;
use killi_repro::fault::model::{default_registry, FaultModelConfig};
use killi_repro::model::area::{checkbits, AreaModel};
use killi_repro::model::coverage::coverage_at;

/// The paper's cell-failure curve, reached the way everything else
/// reaches it now: through the registry's `stuck-at` model.
fn paper_cell_model() -> CellFailureModel {
    default_registry()
        .build(&FaultModelConfig::default(), &())
        .expect("stuck-at always builds")
        .cell_model()
        .expect("stuck-at exposes its analytic curve")
        .clone()
}

#[test]
fn abstract_area_claim_50_percent_reduction_vs_secded() {
    // "Killi reduces the error protection area overhead by 50% compared to
    // SECDED ECC."
    let m = AreaModel::paper();
    let killi = m.killi_bits(256, checkbits::SECDED);
    let secded = m.per_line_bits(checkbits::SECDED);
    let ratio = killi as f64 / secded as f64;
    assert!((0.49..0.53).contains(&ratio), "ratio = {ratio}");
}

#[test]
fn table3_ecc_cache_line_is_41_bits() {
    assert_eq!(AreaModel::paper().ecc_entry_bits(checkbits::SECDED), 41);
}

#[test]
fn section_1_claim_most_lines_have_fewer_than_two_failures() {
    // "the majority (>95%) of the cache lines have zero or one LV failure"
    let d = LineFaultDistribution::at(&paper_cell_model(), NormVdd::LV_0_625, FreqGhz::PEAK);
    assert!(d.zero + d.one > 0.95, "{d:?}");
}

#[test]
fn figure6_claim_full_coverage_to_0_6_vdd() {
    let model = paper_cell_model();
    for v in [0.675, 0.65] {
        let c = coverage_at(&model, NormVdd(v));
        assert!(c.killi > 0.9999, "v={v}: {}", c.killi);
        assert!(c.flair > 0.9999, "v={v}: {}", c.flair);
    }
    // At the operating point itself the tail of heavy-fault lines costs a
    // sliver of coverage (Figure 6 plots this as "100%" at its scale).
    let c = coverage_at(&model, NormVdd(0.625));
    assert!(c.killi > 0.999, "{}", c.killi);
    assert!(c.flair > 0.999, "{}", c.flair);
}

#[test]
fn figure6_claim_only_killi_and_flair_survive_below_0_6() {
    let model = paper_cell_model();
    let c = coverage_at(&model, NormVdd(0.55));
    assert!(c.killi > c.secded);
    assert!(c.killi > c.dected);
    assert!(c.flair > c.secded);
    // The weaker plain codes visibly lose coverage down here.
    assert!(c.secded < 0.999, "secded = {}", c.secded);
}

#[test]
fn figure6_claim_killi_coverage_independent_of_ecc_cache_size() {
    // "the fault coverage is independent of the size of the ECC cache":
    // the coverage model takes no ECC-cache parameter at all — the
    // detection capability lives entirely in the per-line parity + SECDED.
    // (A type-level fact; this test documents it.)
    let model = paper_cell_model();
    let c = coverage_at(&model, NormVdd(0.575));
    assert!(c.killi > 0.99);
}

#[test]
fn table5_claims() {
    let m = AreaModel::paper();
    // SECDED: 2.3% over L2.
    let secded = m.per_line_bits(checkbits::SECDED);
    assert!((m.fraction_of_l2(secded) - 0.023).abs() < 0.002);
    // DECTED: ~1.9x SECDED, 4.3% over L2.
    let dected = m.per_line_bits(checkbits::DECTED);
    assert!((m.ratio_to_secded(dected) - 1.9).abs() < 0.1);
    assert!((m.fraction_of_l2(dected) - 0.043).abs() < 0.002);
    // Killi sweep: 0.51x .. 0.71x; 1.2% .. 1.67% over L2.
    let lo = m.killi_bits(256, checkbits::SECDED);
    let hi = m.killi_bits(16, checkbits::SECDED);
    assert!((m.ratio_to_secded(lo) - 0.51).abs() < 0.02);
    assert!((m.ratio_to_secded(hi) - 0.71).abs() < 0.02);
    assert!((m.fraction_of_l2(lo) - 0.012).abs() < 0.001);
    assert!((m.fraction_of_l2(hi) - 0.0167).abs() < 0.001);
}

#[test]
fn table4_claim_killi_with_6ec7ed_still_cheaper_than_secded_per_line() {
    // §5.4: "when Killi is coupled with an ECC cache storing 6EC7ED ECC
    // for one out of 16 L2 cache lines, Killi has lower area overhead than
    // using SECDED ECC protection per L2 cache line".
    let m = AreaModel::paper();
    assert!(m.killi_bits(16, checkbits::SIX_EC) < m.per_line_bits(checkbits::SECDED));
}

#[test]
fn table7_claims() {
    let model = paper_cell_model();
    let m = AreaModel::paper();
    // Capacity targets met by an 11-correcting code.
    let cap06 =
        LineFaultDistribution::enabled_fraction_at(&model, NormVdd(0.6), FreqGhz::PEAK, 523, 11);
    assert!((cap06 - 0.998).abs() < 0.004, "{cap06}");
    let cap0575 =
        LineFaultDistribution::enabled_fraction_at(&model, NormVdd(0.575), FreqGhz::PEAK, 523, 11);
    assert!((cap0575 - 0.696).abs() < 0.05, "{cap0575}");
    // Killi-with-OLSC area vs MS-ECC: 17% at 1:8, ~65% at 1:2.
    assert!((m.killi_olsc_vs_msecc(8) - 0.17).abs() < 0.02);
    assert!((m.killi_olsc_vs_msecc(2) - 0.65).abs() < 0.05);
}

#[test]
fn fault_monotonicity_enables_voltage_reclaim() {
    // "lines disabled at a particular LV may be reclaimed at higher
    // voltages": every fault present at the higher voltage is present at
    // the lower one, never vice versa.
    let model = default_registry()
        .build(&FaultModelConfig::default(), &())
        .expect("stuck-at always builds");
    let hi = model.map(1024, NormVdd(0.625), FreqGhz::PEAK, 4);
    let lo = model.map(1024, NormVdd(0.575), FreqGhz::PEAK, 4);
    for l in 0..1024 {
        for f in hi.line(l) {
            assert!(lo.line(l).contains(f));
        }
        assert!(lo.line(l).len() >= hi.line(l).len());
    }
}
