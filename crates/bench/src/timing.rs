//! Self-contained micro-benchmark harness for the `benches/` targets
//! (`codecs` and `cache`). End-to-end timings of sweeps, campaigns and
//! the service come from the repository benchmark, `examples/benchmark`.
//!
//! The workspace builds offline, so the benches cannot use an external
//! harness crate; this module provides the small core they need: warmup,
//! an adaptive iteration count, and a median-of-samples report.
//!
//! Knobs: `KILLI_BENCH_MS` — target measurement time per benchmark in
//! milliseconds (default 200; warmup is a quarter of it).

use std::time::{Duration, Instant};

/// Target measurement window per benchmark.
fn target_window() -> Duration {
    let ms = std::env::var("KILLI_BENCH_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200u64);
    Duration::from_millis(ms.max(1))
}

/// Times `f` and prints `name: <t>/iter (<n> iters, median of 5 samples)`.
///
/// The return value of `f` is passed through `std::hint::black_box`, so
/// benchmark bodies can simply return the value they want kept alive.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    let window = target_window();
    // Warmup + calibration: run until a quarter-window has elapsed.
    let warmup_end = Instant::now() + window / 4;
    let mut calibration_iters: u64 = 0;
    let warmup_start = Instant::now();
    while Instant::now() < warmup_end {
        std::hint::black_box(f());
        calibration_iters += 1;
    }
    let per_iter = warmup_start.elapsed().as_nanos().max(1) / u128::from(calibration_iters.max(1));
    // Five samples that together fill the measurement window.
    let sample_iters = (window.as_nanos() / 5 / per_iter.max(1)).clamp(1, 1 << 24) as u64;
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..sample_iters {
            std::hint::black_box(f());
        }
        samples.push(start.elapsed().as_nanos() / u128::from(sample_iters));
    }
    samples.sort_unstable();
    let median = samples[2];
    println!(
        "{name}: {} /iter ({sample_iters} iters/sample, median of 5)",
        human_ns(median)
    );
}

/// Formats nanoseconds with an adaptive unit.
fn human_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_and_reports() {
        std::env::set_var("KILLI_BENCH_MS", "2");
        bench("timing/self_test", || 1 + 1);
        std::env::remove_var("KILLI_BENCH_MS");
    }

    #[test]
    fn human_ns_units() {
        assert_eq!(human_ns(5), "5 ns");
        assert_eq!(human_ns(5_000), "5.000 us");
        assert_eq!(human_ns(5_000_000), "5.000 ms");
        assert_eq!(human_ns(5_000_000_000), "5.000 s");
    }
}
