//! Property-based tests for the fault model (killi-check harness).

use killi_check::check;
use killi_fault::cell_model::{CellFailureModel, FailureKind, FreqGhz, NormVdd};
use killi_fault::map::{DieFaultTable, FaultMap, MapOptions};
use killi_fault::prob::{binom_cdf, binom_pmf, binom_sf};
use killi_fault::rng::{hash3, to_unit};

/// Bit-level equality of two fault maps: every line's fault list and the
/// cached statistics (compared as bits, not approximately).
fn assert_maps_identical(a: &FaultMap, b: &FaultMap) {
    assert_eq!(a.lines(), b.lines());
    for l in 0..a.lines() {
        assert_eq!(a.line(l), b.line(l), "line {l}");
    }
    assert_eq!(a.p_cell_median().to_bits(), b.p_cell_median().to_bits());
    assert_eq!(a.mean_p_line().to_bits(), b.mean_p_line().to_bits());
}

#[test]
fn voltage_monotonicity_holds_for_any_pair() {
    check("voltage_monotonicity_holds_for_any_pair", |g| {
        let seed = g.u64();
        let v_lo = g.f64_in(0.50, 0.64);
        let v_hi = (v_lo + g.f64_in(0.005, 0.1)).min(0.7);
        let model = CellFailureModel::finfet14();
        let hi = FaultMap::generate(
            64,
            &model,
            MapOptions::new(NormVdd(v_hi), FreqGhz::PEAK, seed),
        );
        let lo = FaultMap::generate(
            64,
            &model,
            MapOptions::new(NormVdd(v_lo), FreqGhz::PEAK, seed),
        );
        for l in 0..64 {
            for f in hi.line(l) {
                assert!(lo.line(l).contains(f));
            }
        }
    });
}

#[test]
fn sparse_build_matches_dense_for_any_operating_point() {
    check("sparse_build_matches_dense_for_any_operating_point", |g| {
        let seed = g.u64();
        let vdd = NormVdd(g.f64_in(0.45, 1.0));
        let freq = FreqGhz(g.f64_in(0.3, 1.0));
        let lines = g.usize_in(1, 96);
        let model = CellFailureModel::finfet14();
        let fast = FaultMap::generate(lines, &model, MapOptions::new(vdd, freq, seed));
        let dense = FaultMap::generate(lines, &model, MapOptions::new(vdd, freq, seed).dense());
        assert_maps_identical(&fast, &dense);
    });
}

#[test]
fn die_table_derives_dense_maps_at_any_grid_point() {
    check("die_table_derives_dense_maps_at_any_grid_point", |g| {
        let seed = g.u64();
        let cap = g.f64_in(0.5, 0.64);
        let vdd = NormVdd((cap + g.f64_in(0.0, 0.3)).min(1.0));
        let lines = g.usize_in(1, 96);
        let model = CellFailureModel::finfet14();
        let table = DieFaultTable::build(lines, &model, NormVdd(cap), FreqGhz::PEAK, seed);
        let derived = table.fault_map_at(&model, vdd);
        let dense = FaultMap::generate(
            lines,
            &model,
            MapOptions::new(vdd, FreqGhz::PEAK, seed).dense(),
        );
        assert_maps_identical(&derived, &dense);
    });
}

#[test]
fn die_table_preserves_voltage_nesting() {
    check("die_table_preserves_voltage_nesting", |g| {
        let seed = g.u64();
        let cap = g.f64_in(0.5, 0.6);
        let v_lo = cap + g.f64_in(0.0, 0.05);
        let v_hi = (v_lo + g.f64_in(0.0, 0.1)).min(1.0);
        let model = CellFailureModel::finfet14();
        let table = DieFaultTable::build(64, &model, NormVdd(cap), FreqGhz::PEAK, seed);
        let lo = table.fault_map_at(&model, NormVdd(v_lo));
        let hi = table.fault_map_at(&model, NormVdd(v_hi));
        for l in 0..64 {
            for f in hi.line(l) {
                assert!(lo.line(l).contains(f), "line {l}: {f:?} not nested");
            }
        }
    });
}

#[test]
fn p_cell_monotone_in_voltage() {
    check("p_cell_monotone_in_voltage", |g| {
        let v = g.f64_in(0.45, 0.95);
        let dv = g.f64_in(0.001, 0.2);
        let m = CellFailureModel::finfet14();
        let p_lo = m.p_cell_median(NormVdd(v), FreqGhz::PEAK, FailureKind::Combined);
        let p_hi = m.p_cell_median(NormVdd(v + dv), FreqGhz::PEAK, FailureKind::Combined);
        assert!(p_hi <= p_lo);
    });
}

#[test]
fn binom_identities() {
    check("binom_identities", |g| {
        let n = 1 + g.u64_below(599);
        let k = g.u64_below(n + 1);
        let p = g.unit();
        let pmf = binom_pmf(n, k, p);
        assert!((0.0..=1.0 + 1e-9).contains(&pmf));
        if k > 0 {
            let total = binom_cdf(n, k - 1, p) + binom_sf(n, k, p);
            assert!((total - 1.0).abs() < 1e-6, "total = {total}");
        }
    });
}

#[test]
fn counter_rng_uniform_bits() {
    check("counter_rng_uniform_bits", |g| {
        let u = to_unit(hash3(g.u64(), g.u64(), g.u64()));
        assert!((0.0..1.0).contains(&u));
    });
}

#[test]
fn corruption_is_idempotent() {
    check("corruption_is_idempotent", |g| {
        let seed = g.u64();
        let data_seed = g.u64();
        let model = CellFailureModel::finfet14();
        let map = FaultMap::generate(
            32,
            &model,
            MapOptions::new(NormVdd(0.55), FreqGhz::PEAK, seed),
        );
        for l in 0..32 {
            let mut once = killi_ecc::bits::Line512::from_seed(data_seed);
            map.corrupt_data(l, &mut once);
            let mut twice = once;
            map.corrupt_data(l, &mut twice);
            assert_eq!(once, twice);
        }
    });
}

#[test]
fn mix_is_a_probability_average() {
    check("mix_is_a_probability_average", |g| {
        let v = g.f64_in(0.5, 0.7);
        let m = CellFailureModel::finfet14();
        let avg = m.mix(NormVdd(v), FreqGhz::PEAK, |p| p);
        assert!((0.0..=0.5).contains(&avg));
        // Averaging a constant returns (nearly) the constant.
        let c = m.mix(NormVdd(v), FreqGhz::PEAK, |_| 0.25);
        assert!((c - 0.25).abs() < 1e-6);
    });
}

#[test]
fn grid_masks_equal_the_fold_of_per_grid_maps() {
    use std::collections::BTreeMap;

    use killi_fault::map::CellFault;
    use killi_fault::model::{default_registry, FaultModelConfig};

    let registry = default_registry();
    check("grid_masks_equal_the_fold_of_per_grid_maps", |g| {
        let name = *g.pick(&["stuck-at", "table"]);
        let model = registry.build(&FaultModelConfig::new(name), &()).unwrap();
        let seed = g.u64();
        let lines = g.usize_in(1, 200);
        // 2 to 64 strictly ascending points, 2.5 mV apart at the least.
        let points = g.usize_in(2, 65);
        let grid: Vec<NormVdd> = g
            .distinct(160, points, points)
            .into_iter()
            .map(|i| NormVdd(0.5 + 0.0025 * i as f64))
            .collect();
        let die = model
            .die(lines, grid[0], FreqGhz::PEAK, seed)
            .expect("stuck-at and table factorize across voltage");

        let mut emitted: Vec<(usize, CellFault, u64)> = Vec::new();
        die.grid_masks(&grid, &mut |line, fault, mask| {
            emitted.push((line, fault, mask));
        });

        // The oracle: one map per grid point, folded cell by cell.
        let mut folded: BTreeMap<(usize, u16), (CellFault, u64)> = BTreeMap::new();
        for (i, &vdd) in grid.iter().enumerate() {
            let map = die.map_at(vdd);
            for line in 0..lines {
                for &fault in map.line(line) {
                    folded.entry((line, fault.cell)).or_insert((fault, 0)).1 |= 1 << i;
                }
            }
        }
        let expected: Vec<(usize, CellFault, u64)> = folded
            .into_iter()
            .map(|((line, _), (fault, mask))| (line, fault, mask))
            .collect();
        assert_eq!(emitted, expected, "{name}, {lines} lines, {points} points");
    });
}
