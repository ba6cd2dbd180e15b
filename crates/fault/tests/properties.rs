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

/// A registered model with random parameters: `clustered` anywhere in
/// its variance budget, `transient` in every mode at rates up to 0.05 (0.5
/// per line for bursts), so flips land on base faults and masks stop
/// being prefixes, and `table` over random non-increasing anchors.
fn random_model_config(g: &mut killi_check::Gen) -> killi_fault::model::FaultModelConfig {
    use killi_fault::model::FaultModelConfig;
    use killi_obs::params::ParamValue::{Str, F64, U64};

    match *g.pick(&["stuck-at", "clustered", "transient", "table"]) {
        "clustered" => {
            let corr = g.f64_in(0.0, 1.0);
            let col_corr = g.f64_in(0.0, 0.999 * (1.0 - corr * corr).sqrt());
            FaultModelConfig::new("clustered")
                .with("rows", U64(g.usize_in(1, 17) as u64))
                .with("corr", F64(corr))
                .with("col_cells", U64(*g.pick(&[1, 7, 64, 100, 559, 560])))
                .with("col_corr", F64(col_corr))
        }
        "transient" => {
            // Only burst flips draw their polarity apart from their
            // threshold test, so only they can disagree with the base
            // fault they land on: give them a higher rate.
            let mode = *g.pick(&["random", "burst", "msb"]);
            let rate = g.f64_in(0.0, if mode == "burst" { 0.5 } else { 0.05 });
            FaultModelConfig::new("transient")
                .with("mode", Str(mode.to_string()))
                .with("rate", F64(rate))
                .with("burst_len", U64(g.usize_in(1, 17) as u64))
        }
        "table" => {
            let points = g.usize_in(2, 6);
            let mut log10_p = g.f64_in(-1.0, -0.2);
            let anchors: Vec<String> = g
                .distinct(40, points, points)
                .into_iter()
                .map(|i| {
                    log10_p -= g.f64_in(0.0, 3.0);
                    format!("{}@{log10_p}", 0.45 + 0.01 * i as f64)
                })
                .collect();
            FaultModelConfig::new("table")
                .with("anchors", Str(anchors.join(";")))
                .with("sigma", F64(g.f64_in(0.0, 3.0)))
        }
        name => FaultModelConfig::new(name),
    }
}

#[test]
fn grid_masks_equal_the_fold_of_per_grid_maps() {
    use std::collections::BTreeMap;

    use killi_fault::map::CellFault;
    use killi_fault::model::{default_registry, fold_grid_maps};

    let registry = default_registry();
    check("grid_masks_equal_the_fold_of_per_grid_maps", |g| {
        let config = random_model_config(g);
        let model = registry
            .build(&config, &())
            .unwrap_or_else(|e| panic!("{config}: {e}"));
        let seed = g.u64();
        // A transient die's lowest point is at most 0.55 V, where base
        // faults are dense and flips land on them; its overlay hashes
        // every cell of every line at each point, so it draws fewer lines.
        let transient = config.name == "transient";
        let lines = g.usize_in(1, if transient { 100 } else { 200 });
        // 2 to 64 strictly ascending points, 2.5 mV apart at the least.
        let points = g.usize_in(2, 65);
        let steps: Vec<usize> = if transient {
            std::iter::once(g.usize_in(0, 21))
                .chain(
                    g.distinct(140, points - 1, points - 1)
                        .into_iter()
                        .map(|i| i + 21),
                )
                .collect()
        } else {
            g.distinct(160, points, points).into_iter().collect()
        };
        let mut grid: Vec<NormVdd> = steps
            .into_iter()
            .map(|i| NormVdd(0.5 + 0.0025 * i as f64))
            .collect();
        // The stream draws at the grid's lowest point wherever it is.
        if g.usize_in(0, 4) == 0 {
            grid.reverse();
        }

        let mut emitted: Vec<(usize, CellFault, u64)> = Vec::new();
        model.grid_masks(
            lines,
            &grid,
            FreqGhz::PEAK,
            seed,
            &mut |line, fault, mask| {
                emitted.push((line, fault, mask));
            },
        );

        // The oracle: the model's own map at each grid point, folded cell
        // by cell; a cell keeps its polarity at its lowest faulty index.
        let mut folded: BTreeMap<(usize, u16), (CellFault, u64)> = BTreeMap::new();
        for (i, &vdd) in grid.iter().enumerate() {
            let map = model.map(lines, vdd, FreqGhz::PEAK, seed);
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
        assert_eq!(
            emitted, expected,
            "{config}, {lines} lines, {points} points"
        );
        // The trait's default, which folds the same maps, agrees.
        let mut by_default = Vec::new();
        fold_grid_maps(
            lines,
            &grid,
            |vdd| model.map(lines, vdd, FreqGhz::PEAK, seed),
            &mut |line, fault, mask| by_default.push((line, fault, mask)),
        );
        assert_eq!(by_default, expected, "{config}: fold_grid_maps");
    });
}
