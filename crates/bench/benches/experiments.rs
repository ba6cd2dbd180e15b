//! Benchmarks that exercise every paper experiment at reduced scale, so
//! `cargo bench` covers the full reproduction pipeline (the full-size
//! runs are `killi repro`).
//!
//! Runs on the in-repo [`killi_bench::timing`] harness; tune the
//! per-benchmark budget with `KILLI_BENCH_MS`.

use std::hint::black_box;

use killi_bench::experiments;
use killi_bench::runner::{run_matrix, MatrixConfig};
use killi_bench::schemes::SchemeSpec;
use killi_bench::sweep::{run_sweep, SweepConfig};
use killi_bench::timing::bench;
use killi_fault::cell_model::NormVdd;
use killi_sim::cache::CacheGeometry;
use killi_sim::gpu::GpuConfig;
use killi_workloads::Workload;

fn small_gpu() -> GpuConfig {
    GpuConfig {
        cus: 2,
        l2: CacheGeometry {
            size_bytes: 128 * 1024,
            ways: 16,
            line_bytes: 64,
        },
        l2_banks: 4,
        mem_latency: 100,
        ..GpuConfig::default()
    }
}

fn small_matrix_config() -> MatrixConfig {
    MatrixConfig {
        ops_per_cu: 5_000,
        seed: 42,
        vdd: NormVdd::LV_0_625,
        fault_model: killi_bench::fault_models::stuck_at(),
        gpu: small_gpu(),
        threads: 2,
    }
}

fn bench_analytic_experiments() {
    bench("experiments/fig1_cell_curves", || {
        black_box(experiments::fig1())
    });
    let model = killi_bench::fault_models::stuck_at_cell_model();
    bench("experiments/fig6_coverage_analytic", || {
        black_box(killi_model::coverage::coverage_at(
            &model,
            NormVdd(black_box(0.6)),
        ))
    });
    bench("experiments/fig6_coverage_monte_carlo", || {
        black_box(killi_bench::empirical::measure(
            &model,
            NormVdd(0.6),
            500,
            42,
        ))
    });
    bench("experiments/table4_area", || {
        black_box(experiments::table4())
    });
    bench("experiments/table5_area", || {
        black_box(experiments::table5())
    });
    bench("experiments/table7_olsc", || {
        black_box(experiments::table7())
    });
}

fn bench_fig2_sampled() {
    bench("experiments/fig2_line_distribution", || {
        black_box(experiments::fig2(7))
    });
}

fn bench_simulation_matrix() {
    let config = small_matrix_config();
    bench("experiments/fig4_fig5_matrix_cell", || {
        black_box(run_matrix(
            &[Workload::Xsbench],
            &[SchemeSpec::Killi(64).config()],
            &config,
        ))
    });
    let figure4: Vec<_> = SchemeSpec::figure4_set()
        .iter()
        .map(SchemeSpec::config)
        .collect();
    let results = run_matrix(&[Workload::Hacc], &figure4, &config);
    bench("experiments/table6_power_inputs", || {
        black_box(experiments::table6(&results))
    });
}

fn bench_sweep_engine() {
    let config = SweepConfig {
        replications: 2,
        vdds: vec![0.65, 0.625],
        schemes: vec![SchemeSpec::Killi(64).config()],
        workloads: vec![Workload::Fft],
        ops_per_cu: 2_000,
        gpu: small_gpu(),
        threads: 2,
        progress_every: 0,
        ..SweepConfig::paper(2_000, 42, 2)
    };
    bench("experiments/sweep_2rep_cell", || {
        black_box(run_sweep(&config).to_json())
    });
}

fn main() {
    bench_analytic_experiments();
    bench_fig2_sampled();
    bench_simulation_matrix();
    bench_sweep_engine();
}
