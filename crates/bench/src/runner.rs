//! The performance-experiment runner behind Figures 4/5 and Table 6:
//! a (workload x scheme) simulation matrix executed across threads.

use std::sync::Arc;

use killi_fault::cell_model::{FreqGhz, NormVdd};
use killi_fault::map::FaultMap;
use killi_obs::{escape_json, Counter, MetricSet, Sink};
use killi_sim::gpu::{GpuConfig, GpuSim};
use killi_sim::stats::SimStats;
use killi_sim::trace::Trace;
use killi_workloads::{TraceParams, Workload};

use crate::fault_models::{build_fault_model, FaultModelConfig};
use crate::schemes::{build_scheme, scheme_label, BuildCtx, SchemeConfig, BASELINE};

/// Matrix configuration.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Operations per CU stream.
    pub ops_per_cu: usize,
    /// Seed for fault maps and traces.
    pub seed: u64,
    /// Low-voltage operating point for the protected schemes.
    pub vdd: NormVdd,
    /// Fault model drawn for the protected schemes' map.
    pub fault_model: FaultModelConfig,
    /// GPU hardware configuration.
    pub gpu: GpuConfig,
    /// Worker threads.
    pub threads: usize,
}

impl MatrixConfig {
    /// The paper's configuration at 0.625 x VDD.
    pub fn paper(ops_per_cu: usize, seed: u64) -> Self {
        MatrixConfig {
            ops_per_cu,
            seed,
            vdd: NormVdd::LV_0_625,
            fault_model: FaultModelConfig::default(),
            gpu: GpuConfig::default(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// Observability configuration of a single simulation run.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Event-trace ring capacity. `None` runs with the no-op sink: no
    /// events are constructed and no trace is exported.
    pub trace_capacity: Option<usize>,
    /// Extra key/value pairs stamped into the trace header (e.g. the
    /// sweep's vdd and replicate index). Values are emitted as JSON
    /// strings.
    pub context: Vec<(&'static str, String)>,
}

impl ObsConfig {
    /// Tracing enabled with the given ring capacity.
    pub fn traced(capacity: usize) -> Self {
        ObsConfig {
            trace_capacity: Some(capacity),
            context: Vec::new(),
        }
    }
}

/// One cell of the experiment matrix.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Scheme label.
    pub scheme: String,
    /// Run statistics.
    pub stats: SimStats,
    /// Disabled-line count at end of run.
    pub disabled_lines: u64,
    /// Scheme-level observability counters, merged with the L2-level miss
    /// split (error-induced vs ECC-cache-induced).
    pub metrics: MetricSet,
    /// JSON-lines event trace (`killi-obs/v1`), when tracing was on.
    pub trace: Option<String>,
}

/// Trace parameters for `gpu`'s CU count and L2 capacity.
pub fn trace_params(gpu: &GpuConfig, ops_per_cu: usize, seed: u64) -> TraceParams {
    TraceParams {
        cus: gpu.cus,
        ops_per_cu,
        seed,
        l2_bytes: gpu.l2.size_bytes,
    }
}

/// Runs one (workload, scheme) simulation over `trace` — the primitive
/// both [`run_matrix`] and the Monte-Carlo sweep engine build on. Results
/// are a pure function of the arguments. The trace must be the one
/// `workload` generates for `trace_seed` with the cell's geometry (pass
/// `workload.trace(&trace_params(..))`, or replay a shared op buffer
/// through `Trace::from_shared`); `trace_seed` also seeds the simulator's
/// soft-error process and is stamped into the exported event trace.
pub fn run_cell(
    workload: Workload,
    scheme: &SchemeConfig,
    gpu: &GpuConfig,
    trace: Trace,
    map: &Arc<FaultMap>,
    trace_seed: u64,
    obs: &ObsConfig,
) -> RunResult {
    let sink = match obs.trace_capacity {
        Some(capacity) => Sink::recording(capacity),
        None => Sink::none(),
    };
    // Engines validate configs upfront (`SweepConfig::validate`, the CLI
    // parser), so a failure here is a programming error, not user input.
    let label = scheme_label(scheme).unwrap_or_else(|e| panic!("{e}"));
    let ctx = BuildCtx::new(Arc::clone(map), gpu.l2).with_sink(sink.clone());
    let protection = build_scheme(scheme, &ctx).unwrap_or_else(|e| panic!("{e}"));
    let mut sim = GpuSim::new(*gpu, Arc::clone(map), protection, trace_seed);
    sim.attach_sink(sink.clone());
    let stats = sim.run(trace);
    let mut metrics = sim.l2().protection().metrics();
    // The miss split is owned by the L2 model, not the scheme: fold it in
    // here so a cell's MetricSet is self-contained.
    metrics.set(Counter::ErrorInducedMisses, stats.l2_error_misses);
    metrics.set(Counter::EccInducedMisses, stats.ecc_induced_invalidations);
    let disabled = metrics.get(Counter::DisabledLines);
    let json_string = |s: &str| format!("\"{}\"", escape_json(s));
    let trace = sink.export_jsonl(&{
        let mut context: Vec<(&str, String)> = vec![
            ("workload", json_string(workload.name())),
            ("scheme", json_string(&label)),
            ("trace_seed", trace_seed.to_string()),
        ];
        context.extend(obs.context.iter().map(|(k, v)| (*k, json_string(v))));
        context
    });
    RunResult {
        workload: workload.name(),
        scheme: label,
        stats,
        disabled_lines: disabled,
        metrics,
        trace,
    }
}

/// Runs the full (workload x scheme) matrix, plus the fault-free baseline
/// for every workload, on the shared work-stealing pool. Results preserve
/// matrix order: baselines first, then workload-major over `schemes`.
pub fn run_matrix(
    workloads: &[Workload],
    schemes: &[SchemeConfig],
    config: &MatrixConfig,
) -> Vec<RunResult> {
    let lines = config.gpu.l2.lines();
    let fault_model = build_fault_model(&config.fault_model).unwrap_or_else(|e| panic!("{e}"));
    let lv_map = Arc::new(fault_model.map(lines, config.vdd, FreqGhz::PEAK, config.seed));
    let free_map = Arc::new(FaultMap::fault_free(lines));

    let baseline = SchemeConfig::new("baseline");
    let mut jobs: Vec<(Workload, &SchemeConfig)> = Vec::new();
    for &w in workloads {
        jobs.push((w, &baseline));
    }
    for &w in workloads {
        for s in schemes {
            jobs.push((w, s));
        }
    }

    crate::exec::par_map(config.threads, &jobs, None, |_, &(w, s)| {
        let map = if s.name == BASELINE {
            &free_map
        } else {
            &lv_map
        };
        let trace = w.trace(&trace_params(&config.gpu, config.ops_per_cu, config.seed));
        run_cell(
            w,
            s,
            &config.gpu,
            trace,
            map,
            config.seed,
            &ObsConfig::default(),
        )
    })
}

/// Convenience lookup: the baseline result for a workload.
///
/// # Panics
///
/// Panics when the workload has no baseline run; use [`try_baseline_of`]
/// for partial result sets.
pub fn baseline_of<'a>(results: &'a [RunResult], workload: &str) -> &'a RunResult {
    try_baseline_of(results, workload).expect("baseline run present")
}

/// Non-panicking baseline lookup for partial result sets.
pub fn try_baseline_of<'a>(results: &'a [RunResult], workload: &str) -> Option<&'a RunResult> {
    results
        .iter()
        .find(|r| r.workload == workload && r.scheme == "baseline")
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_sim::cache::CacheGeometry;

    /// The configs of registry spellings.
    fn schemes(spellings: &[&str]) -> Vec<SchemeConfig> {
        spellings
            .iter()
            .map(|s| SchemeConfig::parse(s).unwrap())
            .collect()
    }

    fn tiny_config() -> MatrixConfig {
        MatrixConfig {
            ops_per_cu: 3000,
            seed: 7,
            vdd: NormVdd(0.625),
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
            fault_model: crate::fault_models::stuck_at(),
            threads: 2,
        }
    }

    #[test]
    fn matrix_runs_and_orders_results() {
        let config = tiny_config();
        let results = run_matrix(
            &[Workload::Hacc, Workload::Xsbench],
            &schemes(&["flair", "killi:ratio=16"]),
            &config,
        );
        assert_eq!(results.len(), 2 + 2 * 2);
        assert_eq!(results[0].scheme, "baseline");
        let base = baseline_of(&results, "xsbench");
        assert!(base.stats.cycles > 0);
        for r in &results {
            assert!(r.stats.instructions > 0, "{}/{}", r.workload, r.scheme);
            // Killi's masked-fault hazard (§5.6.2) allows a tiny SDC rate at
            // this aggressive voltage; anything beyond a handful would be a
            // protection bug.
            assert!(
                r.stats.sdc_events <= 5,
                "{}/{}: {} SDCs",
                r.workload,
                r.scheme,
                r.stats.sdc_events
            );
        }
    }

    #[test]
    fn matrix_is_deterministic_across_thread_counts() {
        let mut c1 = tiny_config();
        c1.threads = 1;
        let mut c4 = tiny_config();
        c4.threads = 4;
        let killi = schemes(&["killi:ratio=32"]);
        let a = run_matrix(&[Workload::Fft], &killi, &c1);
        let b = run_matrix(&[Workload::Fft], &killi, &c4);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.stats, y.stats, "{}/{}", x.workload, x.scheme);
        }
    }

    #[test]
    fn inverted_write_check_eliminates_sdcs_at_operating_point() {
        // §5.6.2: at the paper's 0.625 x VDD operating point, verifying
        // both polarities at install time exposes every masked stuck-at
        // fault — no silent corruption remains.
        let results = run_matrix(
            &[Workload::Xsbench, Workload::Fft],
            &schemes(&["killi-invchk:ratio=16"]),
            &tiny_config(),
        );
        for r in results.iter().filter(|r| r.scheme != "baseline") {
            assert_eq!(r.stats.sdc_events, 0, "{}/{}", r.workload, r.scheme);
        }
    }

    #[test]
    fn inverted_write_check_reduces_sdcs_at_extreme_voltage() {
        // Far below the operating range, >= 3-fault lines can alias SECDED
        // into parity-consistent miscorrections (the paper's own coverage
        // analysis allows this: Figure 6 is < 100 % there). The inverted
        // check must still do no worse than plain Killi and keep the
        // residual rate tiny.
        let mut config = tiny_config();
        config.vdd = NormVdd(0.55);
        let results = run_matrix(
            &[Workload::Fft],
            &schemes(&["killi:ratio=16", "killi-invchk:ratio=16"]),
            &config,
        );
        let sdc = |scheme: &str| {
            results
                .iter()
                .find(|r| r.scheme == scheme)
                .unwrap()
                .stats
                .sdc_events
        };
        assert!(
            sdc("killi-invchk-1:16") <= sdc("killi-1:16"),
            "inverted check made things worse"
        );
        assert!(sdc("killi-invchk-1:16") <= 2);
    }

    #[test]
    fn protected_schemes_never_run_faster_than_baseline_much() {
        let config = tiny_config();
        let results = run_matrix(&[Workload::Hacc], &schemes(&["killi:ratio=16"]), &config);
        let base = baseline_of(&results, "hacc");
        let killi = results.iter().find(|r| r.scheme == "killi-1:16").unwrap();
        let norm = killi.stats.normalized_time(&base.stats);
        assert!(norm >= 0.99, "norm = {norm}");
    }
}
