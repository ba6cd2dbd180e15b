//! Property-based tests for the fault model (killi-check harness).

use std::sync::Arc;

use killi_check::check;
use killi_fault::cell_model::{CellFailureModel, FailureKind, FreqGhz, NormVdd};
use killi_fault::map::FaultMap;
use killi_fault::model::{default_registry, FaultModel, FaultModelConfig};
use killi_fault::prob::{binom_cdf, binom_pmf, binom_sf};
use killi_fault::rng::{hash3, to_unit};

/// The registered `stuck-at` model (the FinFET-14 curve).
fn stuck_at() -> Arc<dyn FaultModel> {
    default_registry()
        .build(&FaultModelConfig::default(), &())
        .unwrap()
}

/// Equality of two fault maps: every line's fault list.
fn assert_maps_identical(a: &FaultMap, b: &FaultMap) {
    assert_eq!(a.lines(), b.lines());
    for l in 0..a.lines() {
        assert_eq!(a.line(l), b.line(l), "line {l}");
    }
}

#[test]
fn voltage_monotonicity_holds_for_any_pair() {
    check("voltage_monotonicity_holds_for_any_pair", |g| {
        let seed = g.u64();
        let v_lo = g.f64_in(0.50, 0.64);
        let v_hi = (v_lo + g.f64_in(0.005, 0.1)).min(0.7);
        let model = stuck_at();
        let hi = model.map(64, NormVdd(v_hi), FreqGhz::PEAK, seed);
        let lo = model.map(64, NormVdd(v_lo), FreqGhz::PEAK, seed);
        for l in 0..64 {
            for f in hi.line(l) {
                assert!(lo.line(l).contains(f));
            }
        }
    });
}

#[test]
fn sparse_build_matches_dense_for_any_operating_point() {
    let registry = default_registry();
    check("sparse_build_matches_dense_for_any_operating_point", |g| {
        let config = random_model_config(g);
        let model = registry
            .build(&config, &())
            .unwrap_or_else(|e| panic!("{config}: {e}"));
        let seed = g.u64();
        let vdd = NormVdd(g.f64_in(0.45, 1.0));
        let freq = FreqGhz(g.f64_in(0.3, 1.0));
        let lines = g.usize_in(1, 96);
        let map = model.map(lines, vdd, freq, seed);
        let reference = model.map_reference(lines, vdd, freq, seed);
        assert_maps_identical(&map, &reference);
    });
}

/// The maps of a die of `lines` lines at every point of `grid`, each
/// drawn in up to four random contiguous line ranges and joined, as a
/// sweep draws them.
fn joined_maps(
    g: &mut killi_check::Gen,
    model: &dyn FaultModel,
    lines: usize,
    grid: &[NormVdd],
    seed: u64,
) -> Vec<FaultMap> {
    let mut cuts: Vec<usize> = (0..g.usize_in(0, 4))
        .map(|_| g.usize_in(0, lines + 1))
        .collect();
    cuts.extend([0, lines]);
    cuts.sort_unstable();
    let mut parts: Vec<_> = cuts
        .windows(2)
        .map(|w| {
            model
                .grid_maps(w[0]..w[1], grid, FreqGhz::PEAK, seed)
                .into_iter()
        })
        .collect();
    grid.iter()
        .map(|_| FaultMap::join(parts.iter_mut().map(|p| p.next().unwrap()).collect()))
        .collect()
}

#[test]
fn grid_maps_derive_dense_maps_at_any_grid_point() {
    let registry = default_registry();
    check("grid_maps_derive_dense_maps_at_any_grid_point", |g| {
        let seed = g.u64();
        let cap = g.f64_in(0.5, 0.64);
        let grid = [NormVdd((cap + g.f64_in(0.0, 0.3)).min(1.0)), NormVdd(cap)];
        let lines = g.usize_in(1, 96);
        for name in registry.names() {
            let model = registry.build(&FaultModelConfig::new(name), &()).unwrap();
            let maps = joined_maps(g, &*model, lines, &grid, seed);
            for (map, &vdd) in maps.iter().zip(&grid) {
                assert_maps_identical(map, &model.map(lines, vdd, FreqGhz::PEAK, seed));
                assert_maps_identical(map, &model.map_reference(lines, vdd, FreqGhz::PEAK, seed));
            }
        }
        let maps = joined_maps(g, &*stuck_at(), lines, &grid, seed);
        let model = CellFailureModel::finfet14();
        for (map, &vdd) in maps.iter().zip(&grid) {
            let dense = FaultMap::dense_reference(lines, &model, vdd, FreqGhz::PEAK, seed);
            assert_maps_identical(map, &dense);
        }
    });
}

#[test]
fn grid_maps_preserve_voltage_nesting() {
    check("grid_maps_preserve_voltage_nesting", |g| {
        let seed = g.u64();
        let cap = g.f64_in(0.5, 0.6);
        let v_lo = cap + g.f64_in(0.0, 0.05);
        let v_hi = (v_lo + g.f64_in(0.0, 0.1)).min(1.0);
        let grid = [NormVdd(cap), NormVdd(v_lo), NormVdd(v_hi)];
        let maps = joined_maps(g, &*stuck_at(), 64, &grid, seed);
        let (lo, hi) = (&maps[1], &maps[2]);
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
        let map = stuck_at().map(32, NormVdd(0.55), FreqGhz::PEAK, seed);
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

/// The `transient` overlay alone, at nominal voltage where the stuck-at
/// base is empty. `random` flips each of the 560 cells and `msb` each of
/// cells 7, 15, ..., 559 with probability `p` (`min(8 * rate, 1)` for
/// `msb`), independently, so a line's flip count is Binomial(n, p), its
/// flips spread evenly over the eligible cells, and each is stuck at 1
/// with probability ½. Every bound is 5 standard deviations, or a
/// chi-square tail of 5e-7.
#[test]
fn transient_overlay_flips_each_eligible_cell_independently() {
    const LINES: usize = 1024;
    // The chi-square quantile of 7 degrees of freedom with tail 5.2e-7.
    const CHI2_7: f64 = 42.0;
    let registry = default_registry();
    killi_check::check_cases("transient_overlay_flips_each_eligible_cell", 4, |g| {
        let seed = g.u64();
        let base = stuck_at().map(LINES, NormVdd::NOMINAL, FreqGhz::PEAK, seed);
        assert!((0..LINES).all(|line| base.line(line).is_empty()));
        for (mode, eligible) in [("random", 0..560), ("msb", 7..560)] {
            let step = if mode == "msb" { 8 } else { 1 };
            let eligible: Vec<u16> = eligible.step_by(step).collect();
            let n = eligible.len() as f64;
            for rate in [0.0f64, 0.001, 0.05, 0.5, 1.0] {
                let spelling = format!("transient:mode={mode},rate={rate}");
                let config = FaultModelConfig::parse(&spelling).unwrap();
                let map = registry.build(&config, &()).unwrap().map(
                    LINES,
                    NormVdd::NOMINAL,
                    FreqGhz::PEAK,
                    seed,
                );
                let p = if mode == "msb" {
                    (8.0 * rate).min(1.0)
                } else {
                    rate
                };
                // Flips per line, per eighth of the eligible cells, and
                // stuck at 1.
                let (mut counts, mut buckets, mut ones) = (Vec::new(), [0.0; 8], 0.0);
                for line in 0..LINES {
                    let flips = map.line(line);
                    assert!(
                        flips.windows(2).all(|w| w[0].cell < w[1].cell),
                        "{spelling}: line {line} is not strictly ascending"
                    );
                    for flip in flips {
                        let Ok(i) = eligible.binary_search(&flip.cell) else {
                            panic!("{spelling}: cell {} is not eligible", flip.cell);
                        };
                        buckets[i * 8 / eligible.len()] += 1.0;
                        ones += f64::from(u8::from(flip.stuck));
                    }
                    if p == 1.0 {
                        let cells: Vec<u16> = flips.iter().map(|f| f.cell).collect();
                        assert_eq!(cells, eligible, "{spelling}: line {line}");
                    }
                    counts.push(flips.len() as f64);
                }
                let total: f64 = counts.iter().sum();
                if p == 0.0 {
                    assert_eq!(total, 0.0, "{spelling} flipped a cell");
                    continue;
                }
                let lines = LINES as f64;
                let (mean, var) = (n * p, n * p * (1.0 - p));
                let sample_mean = total / lines;
                let sample_var = counts
                    .iter()
                    .map(|c| (c - sample_mean) * (c - sample_mean))
                    .sum::<f64>()
                    / (lines - 1.0);
                // Binomial central fourth moment, for the sample variance.
                let fourth = var * (1.0 + 3.0 * (n - 2.0) * p * (1.0 - p));
                assert!(
                    (sample_mean - mean).abs() <= 5.0 * (var / lines).sqrt(),
                    "{spelling}: {sample_mean} flips per line, expected {mean}"
                );
                assert!(
                    (sample_var - var).abs() <= 5.0 * ((fourth - var * var) / lines).sqrt(),
                    "{spelling}: variance {sample_var} per line, expected {var}"
                );
                // Given the total, each flip lands in an eighth in
                // proportion to the eighth's eligible cells.
                let chi2: f64 = buckets
                    .iter()
                    .enumerate()
                    .map(|(b, &observed)| {
                        let size = (0..eligible.len())
                            .filter(|i| i * 8 / eligible.len() == b)
                            .count();
                        let expected = total * size as f64 / n;
                        (observed - expected) * (observed - expected) / expected
                    })
                    .sum();
                assert!(
                    chi2 <= CHI2_7,
                    "{spelling}: chi-square {chi2} over {buckets:?}"
                );
                assert!(
                    (ones / total - 0.5).abs() <= 5.0 * (0.25 / total).sqrt(),
                    "{spelling}: {ones} of {total} flips stuck at 1"
                );
            }
        }
    });
}

/// A registered model with random parameters: `clustered` anywhere in
/// its variance budget, `transient` in every mode at rates up to 0.05 (0.5
/// per line for bursts), so flips land on base faults and masks stop
/// being prefixes, and `table` over random non-increasing anchors.
fn random_model_config(g: &mut killi_check::Gen) -> FaultModelConfig {
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
            // A burst's rate is per line, not per cell: give it a higher
            // one, so bursts land on base faults too.
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

    use killi_fault::map::GridFault;
    use killi_fault::model::fold_grid_maps;

    let registry = default_registry();
    check("grid_masks_equal_the_fold_of_per_grid_maps", |g| {
        let config = random_model_config(g);
        let model = registry
            .build(&config, &())
            .unwrap_or_else(|e| panic!("{config}: {e}"));
        let seed = g.u64();
        // A transient die's lowest point is at most 0.55 V, where base
        // faults are dense and flips land on them.
        let transient = config.name == "transient";
        let lines = g.usize_in(1, 200);
        // The stream draws any range of the die's lines.
        let start = g.usize_in(0, lines);
        let range = start..g.usize_in(start, lines + 1);
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
        let ascending: Vec<NormVdd> = steps
            .into_iter()
            .map(|i| NormVdd(0.5 + 0.0025 * i as f64))
            .collect();
        // The stream draws at the grid's lowest point wherever it is, and a
        // reversed grid reverses every mask: its thresholds rise with the
        // grid index.
        let descending: Vec<NormVdd> = ascending.iter().rev().copied().collect();
        for grid in [ascending, descending] {
            // Every `emit` call, as it came.
            let mut calls: Vec<(usize, Vec<GridFault>)> = Vec::new();
            model.grid_masks(
                range.clone(),
                &grid,
                FreqGhz::PEAK,
                seed,
                &mut |line, faults| calls.push((line, faults.to_vec())),
            );
            let called: Vec<usize> = calls.iter().map(|&(line, _)| line).collect();
            assert_eq!(
                called,
                range.clone().collect::<Vec<_>>(),
                "{config}: one call per line of {range:?}, in line order"
            );
            for (line, faults) in &calls {
                assert!(
                    faults.windows(2).all(|w| w[0].cell < w[1].cell),
                    "{config}: line {line} is not in strictly ascending cell order"
                );
            }

            // The oracle: the model's reference map at each grid point,
            // folded cell by cell, with the cell's polarity at each of its
            // points; a line faulty at no point is an empty slice.
            let mut expected: Vec<(usize, BTreeMap<u16, GridFault>)> =
                range.clone().map(|line| (line, BTreeMap::new())).collect();
            for (i, &vdd) in grid.iter().enumerate() {
                let map = model.map_reference(lines, vdd, FreqGhz::PEAK, seed);
                for (line, cells) in &mut expected {
                    for &fault in map.line(*line) {
                        let cell = cells.entry(fault.cell).or_insert(GridFault {
                            cell: fault.cell,
                            mask: 0,
                            stuck: 0,
                        });
                        cell.mask |= 1 << i;
                        cell.stuck |= u64::from(fault.stuck) << i;
                    }
                }
            }
            let expected: Vec<(usize, Vec<GridFault>)> = expected
                .into_iter()
                .map(|(line, cells)| (line, cells.into_values().collect()))
                .collect();
            assert_eq!(
                calls, expected,
                "{config}, lines {range:?} of {lines}, grid {grid:?}"
            );
            // The public fold of the same maps emits the same lines, and
            // the stream's slices joined equal its slices joined.
            let mut by_fold = Vec::new();
            fold_grid_maps(
                lines,
                &grid,
                |vdd| model.map_reference(lines, vdd, FreqGhz::PEAK, seed),
                &mut |line, faults| {
                    if range.contains(&line) {
                        by_fold.push((line, faults.to_vec()));
                    }
                },
            );
            assert_eq!(by_fold, calls, "{config}: fold_grid_maps");
        }
    });
}
