//! `benchmark compare <setA/> <setB/>`: applies the bounds in
//! `BENCHMARK.json` to two directories of saved untraced `run` outputs
//! (A is the parent, B the change) and prints, for every end-to-end
//! metric and workload, each side's median and quartiles and a verdict.
//!
//! Runs pair up by seed: the k-th A run of a seed with the k-th B run of
//! that seed, in file-name order. When the pairs ran next to each other
//! in time, their ratios cancel the host's drift, so the verdict rests on
//! the ratios whenever there are pairs.

use std::collections::BTreeMap;
use std::path::Path;

use killi_repro::obs::{parse_json, JsonValue};

use crate::stats::quartiles;
use crate::WORKLOADS;

/// How B compares with A on one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and not a resolved gain.
    Same,
    /// B is worse than A by more than the bound.
    Worse,
    /// A resolved gain: B wins at least nine of ten pairs and is better
    /// by more than the noise (or, when the noise exceeds the bound,
    /// every B run beats every A run).
    Better,
    /// The noise exceeds the bound, so no claim either way.
    Unresolved,
}

/// One end-to-end metric's regression rule.
pub struct Bound {
    /// Largest tolerated worsening, as a share of A's median.
    pub bound: f64,
    /// Whether smaller values are better.
    pub lower_is_better: bool,
}

/// Relative interquartile range of a sample.
fn spread(xs: &[f64]) -> f64 {
    let (q1, m, q3) = quartiles(xs);
    (q3 - q1) / m.abs()
}

/// B's value over A's, and the noise it is judged against. `pairs` are
/// the seed-matched `(a, b)` values. With pairs, the ratio is the median
/// of the pair ratios `b / a` and the noise their relative interquartile
/// range; without, the ratio is that of the medians and the noise the
/// wider side's spread.
fn ratio_and_noise(a: &[f64], b: &[f64], pairs: &[(f64, f64)]) -> (f64, f64) {
    if pairs.is_empty() {
        (quartiles(b).1 / quartiles(a).1, spread(a).max(spread(b)))
    } else {
        let ratios: Vec<f64> = pairs.iter().map(|&(x, y)| y / x).collect();
        (quartiles(&ratios).1, spread(&ratios))
    }
}

/// Judges B against A (see [`ratio_and_noise`]). A gain is only claimed
/// from pairs.
pub fn verdict(a: &[f64], b: &[f64], pairs: &[(f64, f64)], rule: &Bound) -> Verdict {
    let better = |x: f64, y: f64| if rule.lower_is_better { x < y } else { x > y };
    let (ratio, noise) = ratio_and_noise(a, b, pairs);
    if noise > rule.bound {
        let separated = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        return if separated && !pairs.is_empty() {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    // Positive when B is worse, as a share of A.
    let worse_by = if rule.lower_is_better {
        ratio - 1.0
    } else {
        1.0 - ratio
    };
    if worse_by > rule.bound {
        return Verdict::Worse;
    }
    let wins = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
    if !pairs.is_empty() && 10 * wins >= 9 * pairs.len() && -worse_by > noise {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`, in file order.
fn read_bounds(path: &Path) -> Result<Vec<(String, Bound)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = v
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(JsonValue::as_str);
            let bound = m.get("bound").and_then(JsonValue::as_f64);
            let better = m.get("better").and_then(JsonValue::as_str);
            match (name, bound, better) {
                (Some(name), Some(bound), Some(better @ ("lower" | "higher"))) => Ok((
                    name.to_string(),
                    Bound {
                        bound,
                        lower_is_better: better == "lower",
                    },
                )),
                _ => Err("an end_to_end entry lacks name, bound or better".to_string()),
            }
        })
        .collect()
}

/// `(workload, metric) -> [(seed, value)]`: every untraced run saved in a
/// directory, in file-name order.
type RunSet = BTreeMap<(String, String), Vec<(u64, f64)>>;

/// Adds one saved `run` output to `set`; outputs of traced runs and
/// files that are not `run` outputs are skipped.
fn add_run(set: &mut RunSet, text: &str) {
    let lines: Vec<JsonValue> = text.lines().filter_map(|l| parse_json(l).ok()).collect();
    let context = lines.iter().find(|v| v.get("workload").is_some());
    let result = lines.iter().rev().find(|v| v.get("metrics").is_some());
    let (Some(context), Some(result)) = (context, result) else {
        return;
    };
    let workload = context.get("workload").and_then(JsonValue::as_str);
    let seed = context.get("seed").and_then(JsonValue::as_u64);
    let traced = context.get("trace").and_then(JsonValue::as_u64) == Some(1);
    let (Some(workload), Some(seed), false) = (workload, seed, traced) else {
        return;
    };
    if let Some(JsonValue::Object(metrics)) = result.get("metrics") {
        for (name, m) in metrics {
            if let Some(value) = m.get("value").and_then(JsonValue::as_f64) {
                set.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push((seed, value));
            }
        }
    }
}

fn read_set(dir: &Path) -> Result<RunSet, String> {
    let mut paths = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        paths.push(entry.map_err(|e| e.to_string())?.path());
    }
    paths.sort();
    let mut set = RunSet::new();
    for path in paths {
        if let Ok(text) = std::fs::read_to_string(&path) {
            add_run(&mut set, &text);
        }
    }
    Ok(set)
}

/// Pairs the k-th run of each seed in `a` with the k-th run of that seed
/// in `b`; runs without a partner stay unpaired.
fn pair_runs(a: &[(u64, f64)], b: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for &(seed, y) in b {
        by_seed.entry(seed).or_default().push(y);
    }
    let mut taken: BTreeMap<u64, usize> = BTreeMap::new();
    a.iter()
        .filter_map(|&(seed, x)| {
            let k = taken.entry(seed).or_default();
            let y = by_seed.get(&seed)?.get(*k)?;
            *k += 1;
            Some((x, *y))
        })
        .collect()
}

/// Entry point of `benchmark compare`; exits 1 when any pair is worse.
pub fn main(args: &[String]) -> Result<i32, String> {
    let mut dirs = Vec::new();
    let mut bench_json = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bench-json" {
            bench_json = it.next().ok_or("--bench-json needs a path")?.clone();
        } else {
            dirs.push(arg.clone());
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        return Err("compare needs exactly two result directories".to_string());
    };
    let bounds = read_bounds(Path::new(&bench_json))?;
    let (a, b) = (read_set(Path::new(a_dir))?, read_set(Path::new(b_dir))?);

    println!(
        "{:<15} {:<12} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "pairs"
    );
    let mut any_worse = false;
    for workload in WORKLOADS {
        for (metric, rule) in &bounds {
            let key = (workload.to_string(), metric.clone());
            let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let xs: Vec<f64> = av.iter().map(|&(_, x)| x).collect();
            let ys: Vec<f64> = bv.iter().map(|&(_, y)| y).collect();
            let pairs = pair_runs(av, bv);
            let v = verdict(&xs, &ys, &pairs, rule);
            any_worse |= v == Verdict::Worse;
            let show = |s: &[f64]| {
                let (q1, m, q3) = quartiles(s);
                format!("{} [{}, {}] n={}", sig4(m), sig4(q1), sig4(q3), s.len())
            };
            let (ratio, _) = ratio_and_noise(&xs, &ys, &pairs);
            println!(
                "{workload:<15} {metric:<12} {:>38} {:>38} {:>+7.2}% {:>6}  {}",
                show(&xs),
                show(&ys),
                100.0 * (ratio - 1.0),
                pairs.len(),
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(i32::from(any_worse))
}

/// `x` with four significant digits.
fn sig4(x: f64) -> String {
    let decimals = if x == 0.0 || !x.is_finite() {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).clamp(0, 12) as usize
    };
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        bound: 0.10,
        lower_is_better: true,
    };
    const HIGHER: Bound = Bound {
        bound: 0.10,
        lower_is_better: false,
    };

    fn around(center: f64, jitter: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + jitter * (i as f64 - 4.5) / 4.5))
            .collect()
    }

    fn paired(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_noise() {
        let a = around(100.0, 0.01);
        // Identical sets and a shift inside the bound are the same.
        assert_eq!(verdict(&a, &a, &paired(&a, &a), &LOWER), Verdict::Same);
        let b = around(105.0, 0.01);
        assert_eq!(verdict(&a, &b, &paired(&a, &b), &LOWER), Verdict::Same);
        // Beyond the bound in the bad direction is worse...
        let b = around(115.0, 0.01);
        assert_eq!(verdict(&a, &b, &paired(&a, &b), &LOWER), Verdict::Worse);
        // ...and the same shift is a gain when higher is better.
        assert_eq!(verdict(&a, &b, &paired(&a, &b), &HIGHER), Verdict::Better);
        // A gain beyond the noise that wins the pairs is better.
        let b = around(95.0, 0.01);
        assert_eq!(verdict(&a, &b, &paired(&a, &b), &LOWER), Verdict::Better);
        // A gain that loses two of ten pairs is not claimed.
        let mut b = b;
        b[0] = a[0] * 1.01;
        b[1] = a[1] * 1.01;
        assert_eq!(verdict(&a, &b, &paired(&a, &b), &LOWER), Verdict::Same);
    }

    #[test]
    fn a_gain_needs_pairs() {
        let a = around(100.0, 0.01);
        let b = around(95.0, 0.01);
        assert_eq!(verdict(&a, &b, &[], &LOWER), Verdict::Same);
        let far = around(20.0, 0.5);
        assert_eq!(verdict(&a, &far, &[], &LOWER), Verdict::Unresolved);
        // A regression is still found without pairs.
        let b = around(115.0, 0.01);
        assert_eq!(verdict(&a, &b, &[], &LOWER), Verdict::Worse);
    }

    #[test]
    fn pair_ratios_cancel_drift() {
        // The host drifts by 40% across each set, but every pair runs
        // at the same speed: unresolved unpaired, same paired.
        let a = around(100.0, 0.4);
        let b: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        assert_eq!(verdict(&a, &b, &[], &LOWER), Verdict::Unresolved);
        assert_eq!(verdict(&a, &b, &paired(&a, &b), &LOWER), Verdict::Same);
        // A 5% gain in every pair is resolved through the drift.
        let b: Vec<f64> = a.iter().map(|x| x * 0.95).collect();
        assert_eq!(verdict(&a, &b, &paired(&a, &b), &LOWER), Verdict::Better);
    }

    #[test]
    fn wide_noise_is_unresolved_unless_fully_separated() {
        let a = around(100.0, 0.01);
        let wide = around(100.0, 0.5);
        assert_eq!(
            verdict(&a, &wide, &paired(&a, &wide), &LOWER),
            Verdict::Unresolved
        );
        let wide_but_faster = around(20.0, 0.5);
        assert_eq!(
            verdict(&a, &wide_but_faster, &paired(&a, &wide_but_faster), &LOWER),
            Verdict::Better
        );
    }

    fn run_output(seed: u64, best_op_ms: f64) -> String {
        format!(
            "{{\"workload\": \"vmin-fleet\", \"seed\": {seed}, \"trace\": 0}}\n\
             {{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {{\"best_op_ms\": {{\"value\": {best_op_ms}, \"unit\": \"ms\"}}}}}}"
        )
    }

    #[test]
    fn repeated_seeds_are_kept_and_paired_in_order() {
        let mut a = RunSet::new();
        for (seed, ms) in [(42, 10.0), (42, 11.0), (7, 12.0)] {
            add_run(&mut a, &run_output(seed, ms));
        }
        // A traced run and a stray file are skipped.
        add_run(
            &mut a,
            &run_output(42, 99.0).replace("\"trace\": 0", "\"trace\": 1"),
        );
        add_run(&mut a, "not a run");
        let key = ("vmin-fleet".to_string(), "best_op_ms".to_string());
        assert_eq!(a[&key], vec![(42, 10.0), (42, 11.0), (7, 12.0)]);

        let b = vec![(7, 22.0), (42, 20.0), (42, 21.0), (42, 23.0), (5, 1.0)];
        assert_eq!(
            pair_runs(&a[&key], &b),
            vec![(10.0, 20.0), (11.0, 21.0), (12.0, 22.0)]
        );
        assert!(pair_runs(&a[&key], &[(5, 1.0)]).is_empty());
    }

    #[test]
    fn values_print_with_four_significant_digits() {
        assert_eq!(sig4(797.9339), "797.9");
        assert_eq!(sig4(0.000200291), "0.0002003");
        assert_eq!(sig4(12345.6), "12346");
        assert_eq!(sig4(0.0), "0");
    }
}
