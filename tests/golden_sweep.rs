//! Golden-bytes regression test for the protection-pipeline refactor:
//! the PR-3 reference sweep, run through the registry-built pipeline,
//! must emit the exact pre-refactor `killi-sweep/v2` report and
//! `killi-obs/v1` event trace at every thread count.
//!
//! The golden files under `tests/golden/` were recorded from the
//! monolithic scheme implementations immediately before the refactor.
//! `baselines_report.json` pins the codec baselines (OLSC, DEC-TED,
//! SECDED on their error paths) and was recorded from the scalar OLSC,
//! bit-serial DEC-TED encoder and Chien search before the word-level
//! kernels replaced them. To re-bless after an *intentional* output
//! change, run:
//!
//! ```sh
//! KILLI_BLESS=1 cargo test --test golden_sweep
//! ```

use std::path::PathBuf;

use killi_repro::bench::schemes::{SchemeConfig, SchemeSpec};
use killi_repro::bench::sweep::{run_sweep, SweepConfig};
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::GpuConfig;
use killi_repro::workloads::Workload;

/// The PR-3 reference configuration (shared with `perf_equivalence.rs`).
fn reference_sweep(threads: usize) -> SweepConfig {
    SweepConfig {
        root_seed: 2024,
        replications: 2,
        vdds: vec![0.65, 0.6],
        schemes: vec![SchemeSpec::Killi(16).config()],
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

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn check_or_bless(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("KILLI_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {} ({e}); run with KILLI_BLESS=1", name));
    assert_eq!(
        actual, golden,
        "{name} diverged from the pre-refactor golden bytes"
    );
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
        // Every codec cell corrected something, so the golden bytes pin
        // the decoders' error paths and not only clean decodes.
        for cell in report.cells.iter().filter(|c| c.scheme != "baseline") {
            assert!(
                cell.metric("corrections").mean() > 0.0,
                "{} at {} on {} never corrected",
                cell.scheme,
                cell.vdd,
                cell.workload
            );
        }
        check_or_bless("baselines_report.json", &report.to_json());
    }
}
