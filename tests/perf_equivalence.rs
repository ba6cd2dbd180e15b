//! Regression tests for the sweep hot-path optimization: the
//! shared-artifact sweep ([`run_sweep`]) must emit the exact bytes of the
//! unshared reference path ([`run_sweep_reference`]) — same report JSON,
//! same event-trace artifact — at every thread count.

use killi_repro::bench::schemes::SchemeConfig;
use killi_repro::bench::sweep::{run_sweep, run_sweep_reference, SweepConfig};
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::GpuConfig;
use killi_repro::workloads::Workload;

fn tiny_sweep(threads: usize, trace_capacity: Option<usize>) -> SweepConfig {
    SweepConfig {
        root_seed: 2024,
        replications: 2,
        vdds: vec![0.65, 0.6],
        schemes: vec![SchemeConfig::parse("killi:ratio=16").unwrap()],
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
        trace_capacity,
    }
}

#[test]
fn shared_artifacts_reproduce_reference_bytes_across_thread_counts() {
    // With one replicate, 2 and 8 threads draw the die in line ranges.
    for replications in [2, 1] {
        let config = |threads| SweepConfig {
            replications,
            ..tiny_sweep(threads, None)
        };
        let reference = run_sweep_reference(&config(2)).to_json();
        for threads in [1, 2, 8] {
            let shared = run_sweep(&config(threads)).to_json();
            assert_eq!(
                shared, reference,
                "shared-artifact sweep of {replications} replicate(s) diverged at \
                 {threads} thread(s)"
            );
        }
    }
}

#[test]
fn shared_artifacts_reproduce_reference_event_trace() {
    let reference = run_sweep_reference(&tiny_sweep(2, Some(256)));
    let ref_trace = reference.trace.as_deref().expect("tracing was on");
    assert!(!ref_trace.is_empty());
    for threads in [1, 2, 8] {
        let shared = run_sweep(&tiny_sweep(threads, Some(256)));
        assert_eq!(shared.to_json(), reference.to_json());
        assert_eq!(
            shared.trace.as_deref(),
            Some(ref_trace),
            "event trace diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn reference_path_is_itself_thread_invariant() {
    let a = run_sweep_reference(&tiny_sweep(1, None)).to_json();
    let b = run_sweep_reference(&tiny_sweep(8, None)).to_json();
    assert_eq!(a, b);
}
