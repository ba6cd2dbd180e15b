//! One simulation: a (workload, scheme) run over one fault map and one
//! trace. [`run_cell`] is the primitive the sweep engine
//! ([`crate::sweep::run_sweep`]) fans out; every experiment that compares
//! schemes, `killi simulate` included, runs through that engine.

use std::sync::Arc;

use killi_fault::map::FaultMap;
use killi_obs::{escape_json, Counter, MetricSet, Sink};
use killi_sim::gpu::{GpuConfig, GpuSim};
use killi_sim::stats::SimStats;
use killi_sim::trace::Trace;
use killi_workloads::{TraceParams, Workload};

use crate::schemes::{build_scheme, scheme_label, BuildCtx, SchemeConfig};

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

/// The outcome of one simulation.
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
/// the Monte-Carlo sweep engine builds on. Results
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
    let ctx = BuildCtx::new(Arc::clone(map), gpu.l2);
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
