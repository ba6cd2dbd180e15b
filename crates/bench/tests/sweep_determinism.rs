//! Determinism regression tests for the Monte-Carlo sweep engine: the
//! emitted JSON must be *byte-identical* regardless of worker-thread
//! count or job interleaving. This is the property that makes sweep
//! results citable — a reported CI can be reproduced from (config, root
//! seed) alone, on any machine.

use killi_bench::schemes::SchemeConfig;
use killi_bench::sweep::{run_sweep, SweepConfig};
use killi_sim::cache::CacheGeometry;
use killi_sim::gpu::GpuConfig;
use killi_workloads::Workload;

fn tiny(threads: usize) -> SweepConfig {
    SweepConfig {
        root_seed: 2024,
        replications: 2,
        vdds: vec![0.625, 0.6],
        schemes: vec![
            SchemeConfig::parse("killi:ratio=16").unwrap(),
            SchemeConfig::new("ms-ecc"),
        ],
        fault_model: killi_bench::fault_models::stuck_at(),
        workloads: vec![Workload::Xsbench, Workload::Fft],
        ops_per_cu: 2_000,
        gpu: GpuConfig {
            cus: 2,
            l2: CacheGeometry {
                size_bytes: 128 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            l2_banks: 4,
            mem_latency: 100,
            ..GpuConfig::default()
        },
        threads,
        progress_every: 0,
        trace_capacity: None,
    }
}

#[test]
fn json_report_is_byte_identical_across_thread_counts() {
    let reference = run_sweep(&tiny(1)).to_json();
    for threads in [2, 8] {
        let json = run_sweep(&tiny(threads)).to_json();
        assert_eq!(
            reference, json,
            "sweep JSON diverged between 1 and {threads} threads"
        );
    }
    // And it is stable across repeated runs in the same process.
    assert_eq!(reference, run_sweep(&tiny(4)).to_json());
}

#[test]
fn event_trace_is_byte_identical_across_thread_counts() {
    let traced = |threads: usize| SweepConfig {
        trace_capacity: Some(256),
        ..tiny(threads)
    };
    let reference = run_sweep(&traced(1));
    let ref_trace = reference.trace.as_deref().expect("tracing was on");
    assert!(
        ref_trace.contains("\"schema\":\"killi-obs/v1\""),
        "trace must carry the killi-obs/v1 header"
    );
    assert!(ref_trace.contains("\"type\":"), "trace must carry events");
    for threads in [2, 8] {
        let report = run_sweep(&traced(threads));
        assert_eq!(reference.to_json(), report.to_json());
        assert_eq!(
            Some(ref_trace),
            report.trace.as_deref(),
            "event trace diverged between 1 and {threads} threads"
        );
    }
}

#[test]
fn root_seed_changes_the_report() {
    let a = run_sweep(&tiny(2)).to_json();
    let b = run_sweep(&SweepConfig {
        root_seed: 2025,
        ..tiny(2)
    })
    .to_json();
    assert_ne!(a, b, "different root seeds must draw different replicates");
}

#[test]
fn report_carries_statistics_for_every_cell() {
    let report = run_sweep(&tiny(2));
    // 2 baselines + 2 vdds x 2 schemes x 2 workloads = 10 cells.
    assert_eq!(report.cells.len(), 10);
    let json = report.to_json();
    for key in ["\"mean\"", "\"stddev\"", "\"ci95\""] {
        assert!(json.contains(key), "missing {key}");
    }
    for cell in &report.cells {
        let m = cell.metric("cycles");
        assert_eq!(m.n(), 2, "{}/{}/{}", cell.vdd, cell.scheme, cell.workload);
        assert!(m.mean() > 0.0);
        let (lo, hi) = m.ci95();
        assert!(lo <= m.mean() && m.mean() <= hi);
    }
}
