//! Golden-bytes regression test for the protection-pipeline refactor:
//! the PR-3 reference sweep, run through the registry-built pipeline,
//! must emit the exact pre-refactor report and `killi-obs/v1` event
//! trace at every thread count.
//!
//! The golden files under `tests/golden/` were recorded from the
//! monolithic scheme implementations immediately before the refactor.
//! The reports were re-blessed once since, as `killi-sweep/v3`: the same
//! bytes without the eight v2 counters that nothing incremented.
//! `baselines_report.json` pins the codec baselines (OLSC, DEC-TED,
//! SECDED on their error paths) and was recorded from the scalar OLSC,
//! bit-serial DEC-TED encoder and Chien search before the word-level
//! kernels replaced them. `schemes_report.json` and `schemes_trace.jsonl`
//! pin every registered scheme except the fault-free baseline, with a
//! short trace per job whose header still counts all of the job's events.
//! To re-bless after an *intentional* output change, run:
//!
//! ```sh
//! KILLI_BLESS=1 cargo test --test golden_sweep
//! ```

use killi_repro::bench::schemes::{default_registry, SchemeConfig};
use killi_repro::bench::sweep::{run_sweep, SweepConfig};
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::GpuConfig;
use killi_repro::workloads::Workload;

mod common;
use common::check_or_bless;

/// The PR-3 reference configuration (shared with `perf_equivalence.rs`).
fn reference_sweep(threads: usize) -> SweepConfig {
    SweepConfig {
        root_seed: 2024,
        replications: 2,
        vdds: vec![0.65, 0.6],
        schemes: vec![SchemeConfig::parse("killi:ratio=16").unwrap()],
        // The registry-built stuck-at model must reproduce the pre-registry
        // fault maps bit for bit — the golden bytes pin that.
        fault_model: killi_repro::bench::fault_models::stuck_at(),
        workloads: vec![Workload::Fft, Workload::Hacc],
        ops_per_cu: 1200,
        gpu: GpuConfig {
            cus: 2,
            l2: CacheGeometry {
                size_bytes: 64 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            l2_banks: 4,
            mem_latency: 100,
            ..GpuConfig::default()
        },
        threads,
        progress_every: 0,
        trace_capacity: Some(256),
    }
}

/// The codec schemes below Killi's range: OLSC (`ms-ecc`, `killi-olsc`),
/// DEC-TED (`dected`, `killi-dected`) and SECDED (`flair-online`).
const CODEC_SCHEMES: [&str; 5] = [
    "ms-ecc",
    "dected",
    "flair-online",
    "killi-olsc",
    "killi-dected",
];

fn baselines_sweep(threads: usize) -> SweepConfig {
    SweepConfig {
        vdds: vec![0.6, 0.575],
        schemes: CODEC_SCHEMES
            .iter()
            .map(|&s| SchemeConfig::new(s))
            .collect(),
        ops_per_cu: 4000,
        trace_capacity: None,
        ..reference_sweep(threads)
    }
}

/// One replicate of every registered scheme except the fault-free
/// baseline, at the codec sweep's operating points, with a 16-event trace
/// kept per job.
fn schemes_sweep(threads: usize) -> SweepConfig {
    SweepConfig {
        replications: 1,
        schemes: default_registry()
            .names()
            .into_iter()
            .filter(|&name| name != "baseline")
            .map(SchemeConfig::new)
            .collect(),
        trace_capacity: Some(16),
        ..baselines_sweep(threads)
    }
}

/// Asserts that every protected cell corrected at least once, so the
/// golden bytes pin the decoders' error paths and not only clean decodes.
fn assert_every_cell_corrected(report: &killi_repro::bench::sweep::SweepReport) {
    for cell in report.cells.iter().filter(|c| c.scheme != "baseline") {
        assert!(
            cell.metric("corrections").mean() > 0.0,
            "{} at {} on {} never corrected",
            cell.scheme,
            cell.vdd,
            cell.workload
        );
    }
}

#[test]
fn sweep_report_matches_pre_refactor_bytes_across_thread_counts() {
    for threads in [1usize, 2, 8] {
        let report = run_sweep(&reference_sweep(threads));
        check_or_bless("sweep_report.json", &report.to_json());
        check_or_bless(
            "sweep_trace.jsonl",
            report.trace.as_deref().expect("tracing was on"),
        );
    }
}

#[test]
fn codec_baselines_match_golden_bytes_across_thread_counts() {
    for threads in [1usize, 2, 8] {
        let report = run_sweep(&baselines_sweep(threads));
        assert_every_cell_corrected(&report);
        check_or_bless("baselines_report.json", &report.to_json());
    }
}

#[test]
fn every_registered_scheme_matches_golden_bytes_across_thread_counts() {
    for threads in [1usize, 2, 8] {
        let config = schemes_sweep(threads);
        assert_eq!(config.schemes.len(), 12, "registered schemes changed");
        let report = run_sweep(&config);
        assert_every_cell_corrected(&report);
        check_or_bless("schemes_report.json", &report.to_json());
        check_or_bless(
            "schemes_trace.jsonl",
            report.trace.as_deref().expect("tracing was on"),
        );
    }
}
