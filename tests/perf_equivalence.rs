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

#[test]
fn a_grid_past_64_points_reproduces_reference_bytes() {
    // A die's stream holds 64 grid points, so this grid's die is drawn in
    // two slices: points 0..64, then point 64.
    let mut config = SweepConfig {
        replications: 1,
        vdds: (0..65).map(|i| 0.7 - 0.0025 * f64::from(i)).collect(),
        workloads: vec![Workload::Fft],
        ops_per_cu: 300,
        ..tiny_sweep(2, None)
    };
    config.gpu.l2.size_bytes = 32 * 1024;
    let reference = run_sweep_reference(&config).to_json();
    assert_eq!(run_sweep(&config).to_json(), reference);
}

#[test]
fn a_descending_grid_reports_the_cells_of_the_ascending_grid() {
    // The same die over the same voltages, listed the other way round: its
    // grid thresholds rise with the grid index, so each line's threshold
    // table is sorted in reverse, and every cell must read the same maps.
    let config = |vdds: [f64; 3], threads| SweepConfig {
        vdds: vdds.to_vec(),
        schemes: SchemeConfig::parse_list("killi:ratio=16,ms-ecc").unwrap(),
        ops_per_cu: 600,
        gpu: GpuConfig::small_test(),
        ..tiny_sweep(threads, None)
    };
    for threads in [1, 2] {
        let up = run_sweep(&config([0.575, 0.6, 0.625], threads));
        let down = run_sweep(&config([0.625, 0.6, 0.575], threads));
        // 3 voltages x 2 schemes x 2 workloads, plus 2 baselines.
        assert_eq!(up.cells.len(), 14);
        assert_eq!(down.cells.len(), up.cells.len());
        for cell in &up.cells {
            let key = (cell.vdd.to_bits(), &cell.scheme, cell.workload);
            let twin = down
                .cells
                .iter()
                .find(|c| (c.vdd.to_bits(), &c.scheme, c.workload) == key)
                .unwrap_or_else(|| panic!("{key:?} missing from the descending sweep"));
            for (metric, (a, b)) in cell.metrics.iter().zip(&twin.metrics).enumerate() {
                assert_eq!(
                    a.mean().to_bits(),
                    b.mean().to_bits(),
                    "{key:?}, metric {metric}, {threads} thread(s)"
                );
            }
            assert_eq!(cell.obs, twin.obs, "{key:?}, {threads} thread(s)");
        }
    }
}
