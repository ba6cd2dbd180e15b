//! The `killi bench` before/after performance suite.
//!
//! Three macro-benchmarks, each timing the unoptimized reference path
//! against the shared-artifact fast path that [`crate::sweep::run_sweep`]
//! actually uses:
//!
//! - `fault_map_build` — producing one die's fault maps for the whole
//!   voltage grid: the `stuck-at` model's dense reference construction at
//!   every operating point vs its [`killi_fault::model::ReplicateDie`]
//!   hashed once at the lowest voltage and filtered per point.
//! - `single_simulation` — one (workload, scheme, vdd) cell: per-job
//!   dense map build + trace regeneration vs deriving the map from a
//!   prebuilt die and replaying a shared op buffer.
//! - `full_sweep` — the end-to-end Monte-Carlo sweep:
//!   [`run_sweep_reference`] vs [`run_sweep`] on the same configuration
//!   (both produce byte-identical reports; only the wall clock differs).
//!
//! Results serialize as deterministic-schema JSON (`killi-bench/v1`,
//! written to `results/BENCH_perf.json` by the CLI). The timings
//! themselves are machine-dependent, so the file is a measurement record,
//! not a regression oracle; compare `speedup` fields across runs on the
//! same machine.

use std::sync::Arc;

use killi_fault::cell_model::{FreqGhz, NormVdd};
use killi_sim::cache::CacheGeometry;
use killi_sim::gpu::GpuConfig;
use killi_sim::trace::Trace;
use killi_workloads::Workload;

use crate::fault_models::{build_fault_model, stuck_at};
use crate::report::Table;
use crate::runner::{run_cell, trace_params, ObsConfig};
use crate::schemes::SchemeSpec;
use crate::sweep::{run_sweep, run_sweep_reference, SweepConfig};
use crate::timing::measure;

/// The benchmark names of the suite, in emission order. `killi bench
/// --check` validates a report against this list.
pub const BENCHMARK_NAMES: [&str; 3] = ["fault_map_build", "single_simulation", "full_sweep"];

/// An optional work-rate annotation on a benchmark, for suites whose
/// headline number is a rate (dies/sec for the Vmin campaign) rather
/// than wall time alone.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// What one unit of work is (e.g. `"dies_per_sec"`).
    pub unit: &'static str,
    /// Rate of the reference path.
    pub before: f64,
    /// Rate of the optimized path.
    pub after: f64,
}

/// One before/after measurement.
#[derive(Debug, Clone)]
pub struct PerfBenchmark {
    /// One of [`BENCHMARK_NAMES`] (or a suite-specific name).
    pub name: &'static str,
    /// Median wall time of the reference path, nanoseconds.
    pub before_ns: u128,
    /// Median wall time of the optimized path, nanoseconds.
    pub after_ns: u128,
    /// Optional work rate. Emission is gated on `Some`, so reports from
    /// suites without one keep their exact historical bytes.
    pub throughput: Option<Throughput>,
}

impl PerfBenchmark {
    /// `before / after` (how many times faster the optimized path is).
    pub fn speedup(&self) -> f64 {
        self.before_ns as f64 / self.after_ns.max(1) as f64
    }
}

/// The full suite's results.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Whether the reduced `--quick` configuration ran.
    pub quick: bool,
    /// Per-CU trace length of the simulation benchmarks.
    pub ops_per_cu: usize,
    /// One entry per [`BENCHMARK_NAMES`] element, in order.
    pub benchmarks: Vec<PerfBenchmark>,
}

impl PerfReport {
    /// Serializes as `killi-bench/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"killi-bench/v1\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        out.push_str(&format!("  \"ops_per_cu\": {},\n", self.ops_per_cu));
        out.push_str("  \"benchmarks\": [\n");
        for (i, b) in self.benchmarks.iter().enumerate() {
            let throughput = match &b.throughput {
                Some(t) => format!(
                    ", \"throughput\": {{\"unit\": \"{}\", \"before\": {:.3}, \"after\": {:.3}}}",
                    t.unit, t.before, t.after
                ),
                None => String::new(),
            };
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"before_ns\": {}, \"after_ns\": {}, \
                 \"speedup\": {:.3}{}}}{}\n",
                b.name,
                b.before_ns,
                b.after_ns,
                b.speedup(),
                throughput,
                if i + 1 < self.benchmarks.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Renders the results as an aligned text table.
    pub fn summary_table(&self) -> Table {
        let ms = |ns: u128| format!("{:.2}", ns as f64 / 1e6);
        let mut t = Table::new(vec!["benchmark", "before (ms)", "after (ms)", "speedup"]);
        for b in &self.benchmarks {
            t.row(vec![
                b.name.to_string(),
                ms(b.before_ns),
                ms(b.after_ns),
                format!("{:.2}x", b.speedup()),
            ]);
        }
        t
    }
}

/// The sweep configuration the suite measures: the default sweep — the
/// paper's GPU (2 MB 16-way L2), the paper's voltage grid, Killi 1:64 on
/// xsbench + hacc, 8 replicates — at a bench-sized trace length, or a
/// seconds-scale reduction for `--quick`.
fn bench_sweep_config(quick: bool) -> SweepConfig {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    if quick {
        SweepConfig {
            root_seed: 42,
            replications: 2,
            vdds: vec![0.65, 0.625],
            schemes: vec![SchemeSpec::Killi(64).config()],
            fault_model: stuck_at(),
            workloads: vec![Workload::Fft],
            ops_per_cu: 1500,
            gpu: GpuConfig {
                cus: 2,
                l2: CacheGeometry {
                    size_bytes: 128 * 1024,
                    ways: 16,
                    line_bytes: 64,
                },
                ..GpuConfig::default()
            },
            threads,
            progress_every: 0,
            trace_capacity: None,
        }
    } else {
        SweepConfig {
            root_seed: 42,
            replications: 8,
            vdds: vec![0.65, 0.625, 0.6],
            schemes: vec![SchemeSpec::Killi(64).config()],
            fault_model: stuck_at(),
            workloads: vec![Workload::Xsbench, Workload::Hacc],
            ops_per_cu: 5_000,
            gpu: GpuConfig::default(),
            threads,
            progress_every: 0,
            trace_capacity: None,
        }
    }
}

/// Runs the three benchmarks and returns the report. `quick` shrinks the
/// configuration and takes single samples (the CI smoke mode); the full
/// suite takes the median of 3 samples for the sub-second benchmarks and
/// a single sample of the sweep.
pub fn run_perf_suite(quick: bool) -> PerfReport {
    let config = bench_sweep_config(quick);
    let samples = if quick { 1 } else { 3 };
    let fault_model = build_fault_model(&stuck_at()).expect("stuck-at always builds");
    let lines = config.gpu.l2.lines();
    let seed = config.root_seed;
    let cap_vdd = NormVdd(config.vdds.iter().cloned().fold(f64::INFINITY, f64::min));
    let grid: Vec<NormVdd> = config.vdds.iter().map(|&v| NormVdd(v)).collect();

    // 1. One die's fault maps across the voltage grid.
    let before_ns = measure(samples, || {
        grid.iter()
            .map(|&v| fault_model.map_reference(lines, v, FreqGhz::PEAK, seed))
            .collect::<Vec<_>>()
    });
    let after_ns = measure(samples, || {
        let die = fault_model
            .die(lines, cap_vdd, FreqGhz::PEAK, seed)
            .expect("stuck-at factorizes across the grid");
        grid.iter().map(|&v| die.map_at(v)).collect::<Vec<_>>()
    });
    let fault_map_build = PerfBenchmark {
        name: BENCHMARK_NAMES[0],
        before_ns,
        after_ns,
        throughput: None,
    };

    // 2. One (workload, scheme, vdd) cell. The "after" side replays the
    // prebuilt die table and op buffer, exactly as a sweep job does.
    let workload = config.workloads[0];
    let scheme = &config.schemes[0];
    let vdd = NormVdd(config.vdds[0]);
    let obs = ObsConfig::default();
    let params = trace_params(&config.gpu, config.ops_per_cu, seed);
    let before_ns = measure(samples, || {
        let map = Arc::new(fault_model.map_reference(lines, vdd, FreqGhz::PEAK, seed));
        run_cell(
            workload,
            scheme,
            &config.gpu,
            workload.trace(&params),
            &map,
            seed,
            &obs,
        )
    });
    let die = fault_model
        .die(lines, cap_vdd, FreqGhz::PEAK, seed)
        .expect("stuck-at factorizes across the grid");
    let ops = Arc::new(workload.ops(&params));
    let after_ns = measure(samples, || {
        let map = Arc::new(die.map_at(vdd));
        run_cell(
            workload,
            scheme,
            &config.gpu,
            Trace::from_shared(Arc::clone(&ops)),
            &map,
            seed,
            &obs,
        )
    });
    let single_simulation = PerfBenchmark {
        name: BENCHMARK_NAMES[1],
        before_ns,
        after_ns,
        throughput: None,
    };

    // 3. The end-to-end sweep. Both sides emit byte-identical reports
    // (regression-tested); only the artifact strategy differs.
    let before_ns = measure(1, || run_sweep_reference(&config));
    let after_ns = measure(1, || run_sweep(&config));
    let full_sweep = PerfBenchmark {
        name: BENCHMARK_NAMES[2],
        before_ns,
        after_ns,
        throughput: None,
    };

    PerfReport {
        quick,
        ops_per_cu: config.ops_per_cu,
        benchmarks: vec![fault_map_build, single_simulation, full_sweep],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_carries_schema_and_names() {
        let report = PerfReport {
            quick: true,
            ops_per_cu: 100,
            benchmarks: BENCHMARK_NAMES
                .iter()
                .map(|&name| PerfBenchmark {
                    name,
                    before_ns: 2_000,
                    after_ns: 1_000,
                    throughput: None,
                })
                .collect(),
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"killi-bench/v1\""));
        for name in BENCHMARK_NAMES {
            assert!(json.contains(&format!("\"name\": \"{name}\"")));
        }
        assert!(json.contains("\"speedup\": 2.000"));
        let parsed = killi_obs::parse_json(&json).expect("valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(|v| v.as_str()),
            Some("killi-bench/v1")
        );
        assert_eq!(
            parsed
                .get("benchmarks")
                .and_then(|v| v.as_array())
                .map(|a| a.len()),
            Some(3)
        );
    }

    #[test]
    fn speedup_guards_zero_after() {
        let b = PerfBenchmark {
            name: "x",
            before_ns: 10,
            after_ns: 0,
            throughput: None,
        };
        assert_eq!(b.speedup(), 10.0);
    }
}
