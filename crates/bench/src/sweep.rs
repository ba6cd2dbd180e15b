//! Parallel Monte-Carlo sweep engine with statistical replication.
//!
//! The paper's headline numbers (Figures 4/5, Table 6, the 0.625 x VDD
//! story) are statements about *distributions* of fault maps, but a
//! single-seed run reports one draw. This engine fans the full
//! (replicate x NormVdd x scheme x workload) cross-product out over the
//! shared work-stealing pool ([`crate::exec`]) and aggregates every
//! [`SimStats`] metric into mean / stddev / 95% confidence interval per
//! (vdd, scheme, workload) cell. It is the one path that simulates a
//! scheme comparison: the paper's single-map experiments (Figures 4/5,
//! Table 6, the ablations, the ECC-cache sweep) and `killi simulate` are
//! one-replicate sweeps.
//!
//! Phase 1 builds the artifacts every job shares: one die per replicate,
//! hashed once at the grid's lowest voltage, one fault map per (voltage,
//! replicate) derived from it, and one trace per (workload, replicate).
//! A die's lines draw independently, so with fewer replicates than
//! threads each die is drawn over `ceil(threads / replicates)`
//! contiguous line ranges on the same pool and joined in line order;
//! phase 2 then runs the simulations.
//!
//! Determinism contract (regression-tested): all seeds derive from the
//! root via [`derive_seed`] — replicate `r` draws die
//! `derive_seed(root, "die", [r])` (the *same* die at every voltage, so
//! the per-replicate fault populations stay monotonically nested across
//! the grid) and trace `derive_seed(root, "trace", [workload, r])` (the
//! same traffic for a scheme and its baseline). The parallel phase
//! writes integer counters into per-job slots; the floating-point
//! aggregation then folds replicates in a fixed order on one thread.
//! The emitted JSON is therefore byte-identical for any thread count.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use killi_fault::cell_model::{FreqGhz, NormVdd};
use killi_fault::map::FaultMap;
use killi_fault::model::ReplicateDie;
use killi_fault::rng::derive_seed;
use killi_sim::gpu::GpuConfig;
use killi_sim::stats::SimStats;
use killi_sim::trace::{Trace, TraceOp};
use killi_workloads::Workload;

use killi_obs::{escape_json, MetricSet};

use crate::exec::{par_map, Progress};
use crate::fault_models::{
    build_fault_model, default_fault_registry, fault_model_label, FaultModelBuildError,
    FaultModelConfig, STUCK_AT,
};
use crate::report::Table;
use crate::runner::{run_cell, trace_params, ObsConfig};
use crate::schemes::{
    check_builds, check_distinct_labels, default_registry, scheme_label, BuildError, SchemeConfig,
};

/// Why a [`SweepConfig`] failed validation: the GPU geometry cannot be
/// simulated, or the scheme, fault-model or voltage axis rejected its
/// config. The scheme and fault-model sides carry the typed error of their
/// own registry.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepConfigError {
    /// The GPU configuration breaks a rule of
    /// [`killi_sim::gpu::GpuConfig::validate`].
    Geometry {
        /// Which rule it breaks.
        reason: String,
    },
    /// A protection-scheme config failed to resolve or build.
    Scheme(BuildError),
    /// The fault-model config failed to resolve or build.
    FaultModel(FaultModelBuildError),
    /// The voltage grid is degenerate (see [`validate_sweep_grid`]).
    VoltageGrid {
        /// What is wrong with the grid.
        reason: String,
    },
}

impl std::fmt::Display for SweepConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepConfigError::Geometry { reason } => write!(f, "invalid GPU geometry: {reason}"),
            SweepConfigError::Scheme(e) => write!(f, "{e}"),
            SweepConfigError::FaultModel(e) => write!(f, "{e}"),
            SweepConfigError::VoltageGrid { reason } => {
                write!(f, "invalid voltage grid: {reason}")
            }
        }
    }
}

/// Checks that a voltage grid is usable as a sweep axis: at least one
/// point, every point finite and inside `(0, 1.5]` (normalized VDD), and
/// strictly monotonic in either direction. Anything else — an empty grid,
/// duplicates, an unsorted zig-zag — produces degenerate sweeps, so it is
/// rejected up front with the offending reason.
pub fn validate_sweep_grid(vdds: &[f64]) -> Result<(), String> {
    if vdds.is_empty() {
        return Err("need at least 1 grid point, got 0".to_string());
    }
    for &v in vdds {
        validate_vdd(v).map_err(|reason| format!("grid point {reason}"))?;
    }
    let ascending = vdds.windows(2).all(|w| w[0] < w[1]);
    let descending = vdds.windows(2).all(|w| w[0] > w[1]);
    if !ascending && !descending {
        return Err(format!(
            "grid {vdds:?} is not strictly monotonic (sort it and drop duplicates)"
        ));
    }
    Ok(())
}

/// Checks that a voltage grid is usable as a Vmin search axis: a sweep
/// grid ([`validate_sweep_grid`]) of at least two points, since the
/// search's bisection invariant needs an interval.
pub fn validate_voltage_grid(vdds: &[f64]) -> Result<(), String> {
    if vdds.len() < 2 {
        return Err(format!(
            "need at least 2 grid points, got {} (a Vmin search cannot bisect a point)",
            vdds.len()
        ));
    }
    validate_sweep_grid(vdds)
}

/// Checks one normalized supply voltage: finite and inside `(0, 1.5]`,
/// the rule every point of [`validate_sweep_grid`] follows and every
/// single-voltage `--vdd` flag is read through.
pub fn validate_vdd(v: f64) -> Result<(), String> {
    if v.is_finite() && v > 0.0 && v <= 1.5 {
        Ok(())
    } else {
        Err(format!("{v:?} outside (0, 1.5]"))
    }
}

impl std::error::Error for SweepConfigError {}

impl From<BuildError> for SweepConfigError {
    fn from(e: BuildError) -> Self {
        SweepConfigError::Scheme(e)
    }
}

impl From<FaultModelBuildError> for SweepConfigError {
    fn from(e: FaultModelBuildError) -> Self {
        SweepConfigError::FaultModel(e)
    }
}

/// Streaming mean/variance accumulator (Welford's algorithm): numerically
/// stable and single-pass, so aggregation never materializes sample
/// vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Accumulator {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Accumulator {
    /// Folds one sample in.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Samples folded so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 with no samples).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample standard deviation (0 with fewer than 2 samples).
    pub fn stddev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Half-width of the 95% confidence interval on the mean (normal
    /// approximation: `1.96 * stddev / sqrt(n)`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            1.96 * self.stddev() / (self.n as f64).sqrt()
        }
    }

    /// The 95% confidence interval `(lo, hi)` on the mean.
    pub fn ci95(&self) -> (f64, f64) {
        let h = self.ci95_half_width();
        (self.mean - h, self.mean + h)
    }

    /// Formats `mean +- ci95` for text tables.
    pub fn fmt_ci(&self, decimals: usize) -> String {
        format!(
            "{:.d$} +- {:.d$}",
            self.mean(),
            self.ci95_half_width(),
            d = decimals
        )
    }
}

/// One simulation's scalar outcomes, in the fixed metric order of
/// [`METRIC_NAMES`].
#[derive(Debug, Clone, Copy)]
struct Sample {
    stats: SimStats,
    disabled_lines: u64,
    norm_time: f64,
}

/// Metric names, in emission order. `norm_time` is runtime normalized to
/// the same replicate's fault-free baseline (the pairing removes
/// trace-seed variance from the ratio).
pub const METRIC_NAMES: [&str; 9] = [
    "norm_time",
    "cycles",
    "mpki",
    "l2_hit_rate",
    "l2_error_misses",
    "ecc_induced_invalidations",
    "sdc_events",
    "corrections",
    "disabled_lines",
];

fn metric_values(s: &Sample) -> [f64; 9] {
    [
        s.norm_time,
        s.stats.cycles as f64,
        s.stats.mpki(),
        s.stats.l2_hit_rate(),
        s.stats.l2_error_misses as f64,
        s.stats.ecc_induced_invalidations as f64,
        s.stats.sdc_events as f64,
        s.stats.corrections as f64,
        s.disabled_lines as f64,
    ]
}

/// Full cross-product configuration of one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Root seed every die and trace seed derives from.
    pub root_seed: u64,
    /// Monte-Carlo replicates per cell.
    pub replications: usize,
    /// Low-voltage operating points.
    pub vdds: Vec<f64>,
    /// Declarative protection-scheme configs under test (resolved and
    /// built through the scheme registry; baselines run implicitly).
    pub schemes: Vec<SchemeConfig>,
    /// Declarative fault-model config every protected cell draws its maps
    /// from (resolved through the fault-model registry; the default is
    /// the paper's `stuck-at` model).
    pub fault_model: FaultModelConfig,
    /// Workloads.
    pub workloads: Vec<Workload>,
    /// Operations per CU stream.
    pub ops_per_cu: usize,
    /// GPU hardware configuration.
    pub gpu: GpuConfig,
    /// Worker threads.
    pub threads: usize,
    /// Progress cadence (print every N completed jobs; 0 = silent).
    pub progress_every: usize,
    /// Per-job event-trace ring capacity. `None` (the default setups)
    /// runs every simulation with the no-op sink.
    pub trace_capacity: Option<usize>,
}

impl SweepConfig {
    /// The paper's operating grid around 0.625 x VDD with Killi 1:64.
    pub fn paper(ops_per_cu: usize, root_seed: u64, replications: usize) -> Self {
        SweepConfig {
            root_seed,
            replications,
            vdds: vec![0.65, 0.625, 0.6],
            schemes: vec![SchemeConfig::parse("killi:ratio=64").expect("a valid spelling")],
            fault_model: FaultModelConfig::default(),
            workloads: vec![Workload::Xsbench, Workload::Hacc],
            ops_per_cu,
            gpu: GpuConfig::default(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            progress_every: 0,
            trace_capacity: None,
        }
    }

    /// Simulations the sweep will run (baselines + cells).
    pub fn job_count(&self) -> usize {
        self.replications
            * (self.workloads.len() + self.vdds.len() * self.schemes.len() * self.workloads.len())
    }

    /// Validates the GPU geometry, then every scheme config against the
    /// registry *and* the sweep's cache geometry (via a fault-free test
    /// build) and the scheme list for a repeated label (a report keys its
    /// cells by label), plus the fault-model config against its registry
    /// (via a test build), so a bad `--l2kb`, `--scheme` or
    /// `--fault-model` fails before the fan-out phase instead of mid-run.
    pub fn validate(&self) -> Result<(), SweepConfigError> {
        self.gpu
            .validate()
            .map_err(|reason| SweepConfigError::Geometry { reason })?;
        check_builds(&self.schemes, self.gpu.l2)?;
        check_distinct_labels(&self.schemes)?;
        build_fault_model(&self.fault_model)?;
        validate_sweep_grid(&self.vdds)
            .map_err(|reason| SweepConfigError::VoltageGrid { reason })?;
        Ok(())
    }

    /// Consumes the config into a [`ValidatedSweepConfig`]: validates it
    /// (including the geometry test-builds of [`SweepConfig::validate`])
    /// and canonicalizes every scheme and fault-model spelling against
    /// the default registries, so downstream consumers — the sweep
    /// service's cache in particular — can key on
    /// [`ValidatedSweepConfig::canonical_json`].
    pub fn validated(mut self) -> Result<ValidatedSweepConfig, SweepConfigError> {
        self.validate()?;
        let registry = default_registry();
        for scheme in &mut self.schemes {
            *scheme = registry.canonicalize(scheme)?;
        }
        self.fault_model = default_fault_registry().canonicalize(&self.fault_model)?;
        // A sweep always runs at least one replicate (`run_sweep` clamps),
        // so spell the clamp here too: replications 0 and 1 are the same
        // sweep and must share a cache key.
        self.replications = self.replications.max(1);
        Ok(ValidatedSweepConfig { config: self })
    }
}

/// A [`SweepConfig`] that passed [`SweepConfig::validated`]: every scheme
/// resolves against the registry and is stored in canonical form. The
/// only way to obtain one is through validation, so APIs taking
/// `&ValidatedSweepConfig` ([`run_sweep_validated`]) can skip re-checking.
#[derive(Debug, Clone)]
pub struct ValidatedSweepConfig {
    config: SweepConfig,
}

/// Stable spelling of a write policy for canonical config JSON.
fn write_policy_name(policy: killi_sim::cache::WritePolicy) -> &'static str {
    use killi_sim::cache::WritePolicy;
    match policy {
        WritePolicy::BypassInvalidate => "bypass_invalidate",
        WritePolicy::WriteThroughUpdate => "write_through_update",
        WritePolicy::WriteBack => "write_back",
    }
}

impl ValidatedSweepConfig {
    /// The validated config.
    pub fn config(&self) -> &SweepConfig {
        &self.config
    }

    /// Deterministic JSON over exactly the fields that shape the report
    /// bytes (schema `killi-sweep-config/v1`). Execution knobs —
    /// `threads`, `progress_every`, `trace_capacity` — are excluded:
    /// the report is byte-identical across them (regression-tested), so
    /// configs differing only there must share a cache key. Schemes and
    /// the fault model are already canonical, so any spelling of the
    /// same sweep serializes to identical bytes — and different fault
    /// models never share a key.
    pub fn canonical_json(&self) -> String {
        let c = &self.config;
        let mut out = String::from("{\"schema\":\"killi-sweep-config/v1\"");
        out.push_str(&format!(",\"root_seed\":{}", c.root_seed));
        out.push_str(&format!(",\"replications\":{}", c.replications));
        out.push_str(&format!(",\"ops_per_cu\":{}", c.ops_per_cu));
        let list = |items: Vec<String>| items.join(",");
        out.push_str(&format!(
            ",\"vdds\":[{}]",
            list(c.vdds.iter().map(|&v| json_f64(v)).collect())
        ));
        out.push_str(&format!(
            ",\"schemes\":[{}]",
            list(c.schemes.iter().map(SchemeConfig::to_json).collect())
        ));
        out.push_str(&format!(",\"fault_model\":{}", c.fault_model.to_json()));
        out.push_str(&format!(
            ",\"workloads\":[{}]",
            list(c.workloads.iter().map(|w| json_str(w.name())).collect())
        ));
        let geometry = |g: &killi_sim::cache::CacheGeometry| {
            format!(
                "{{\"size_bytes\":{},\"ways\":{},\"line_bytes\":{}}}",
                g.size_bytes, g.ways, g.line_bytes
            )
        };
        out.push_str(&format!(
            ",\"gpu\":{{\"cus\":{},\"l1\":{},\"l1_latency\":{},\"l2\":{},\"l2_banks\":{},\
             \"l2_tag_latency\":{},\"l2_data_latency\":{},\"mem_latency\":{},\
             \"max_outstanding\":{},\"write_policy\":{}}}",
            c.gpu.cus,
            geometry(&c.gpu.l1),
            c.gpu.l1_latency,
            geometry(&c.gpu.l2),
            c.gpu.l2_banks,
            c.gpu.l2_tag_latency,
            c.gpu.l2_data_latency,
            c.gpu.mem_latency,
            c.gpu.max_outstanding,
            json_str(write_policy_name(c.gpu.write_policy)),
        ));
        out.push('}');
        out
    }
}

/// Runs a pre-validated sweep. Identical to [`run_sweep`] on the inner
/// config; the type is the proof that validation already happened, which
/// is what lets the sweep service validate once at submission and
/// execute later on a worker without re-checking.
pub fn run_sweep_validated(config: &ValidatedSweepConfig) -> SweepReport {
    run_sweep(&config.config)
}

/// Aggregated statistics of one (vdd, scheme, workload) cell. Baseline
/// runs appear as cells with scheme `"baseline"` at the nominal voltage
/// `1.0`.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Operating point (1.0 for the fault-free baseline).
    pub vdd: f64,
    /// Scheme label.
    pub scheme: String,
    /// Workload name.
    pub workload: &'static str,
    /// Per-metric accumulators, indexed like [`METRIC_NAMES`].
    pub metrics: [Accumulator; 9],
    /// Observability counters summed over the cell's replicates.
    pub obs: MetricSet,
    /// Each replicate's raw counters, in replicate order, for readers of
    /// counters no metric carries (Table 6's access counts). Never
    /// serialized.
    pub runs: Vec<SimStats>,
}

impl SweepCell {
    /// The accumulator of a named metric.
    ///
    /// # Panics
    ///
    /// Panics on an unknown metric name.
    pub fn metric(&self, name: &str) -> &Accumulator {
        let i = METRIC_NAMES
            .iter()
            .position(|&m| m == name)
            .unwrap_or_else(|| panic!("unknown metric '{name}'"));
        &self.metrics[i]
    }
}

/// The aggregated result of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Root seed of the run.
    pub root_seed: u64,
    /// Replicates per cell.
    pub replications: usize,
    /// Operations per CU stream.
    pub ops_per_cu: usize,
    /// The voltage grid.
    pub vdds: Vec<f64>,
    /// The fault model's registry label (`stuck-at` for the default).
    pub fault_model: String,
    /// Scheme labels.
    pub schemes: Vec<String>,
    /// Workload names.
    pub workloads: Vec<&'static str>,
    /// Baseline cells first, then vdd-major / scheme / workload order.
    pub cells: Vec<SweepCell>,
    /// Concatenated per-job JSON-lines traces (`killi-obs/v1`), in
    /// deterministic job order; `None` when tracing was off. Kept out of
    /// [`SweepReport::to_json`] — it is a separate artifact.
    pub trace: Option<String>,
    /// Wall-clock seconds of the parallel phase. Deliberately *not*
    /// serialized to JSON — the report must be byte-identical across
    /// thread counts and machines.
    pub wall_secs: f64,
}

/// One simulation job of the fan-out phase.
#[derive(Debug, Clone, Copy)]
enum Job {
    Baseline {
        w: usize,
        rep: usize,
    },
    Cell {
        v: usize,
        s: usize,
        w: usize,
        rep: usize,
    },
}

/// Which artifact strategy a sweep run uses (see [`run_sweep`] and
/// [`run_sweep_reference`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ArtifactMode {
    /// Fault maps memoized per (replicate, vdd) through a per-die sparse
    /// candidate table; trace op buffers generated once per
    /// (workload, replicate) and shared across scheme cells via `Arc`.
    Shared,
    /// Every job rebuilds its fault map with the dense per-cell
    /// construction and regenerates its trace from scratch.
    PerJob,
}

/// Runs the sweep with shared artifacts: one memoized
/// [`killi_fault::model::ReplicateDie`] per replicate (hashed once at the
/// grid's lowest voltage, when the fault model offers the factorization)
/// derives the fault map of every (voltage, replicate) pair, and each
/// (workload, replicate) op buffer is generated once and replayed by
/// every scheme cell. The
/// report and optional event trace are byte-identical to
/// [`run_sweep_reference`] at any thread count (regression-tested).
pub fn run_sweep(config: &SweepConfig) -> SweepReport {
    run_sweep_mode(config, ArtifactMode::Shared)
}

/// The unshared reference path: every job pays the full dense fault-map
/// construction and trace generation. Kept as the byte-identity oracle
/// that `tests/perf_equivalence.rs` holds [`run_sweep`] to.
pub fn run_sweep_reference(config: &SweepConfig) -> SweepReport {
    run_sweep_mode(config, ArtifactMode::PerJob)
}

fn run_sweep_mode(config: &SweepConfig, mode: ArtifactMode) -> SweepReport {
    let started = Instant::now();
    let lines = config.gpu.l2.lines();
    let reps = config.replications.max(1);
    // Registry-formatted labels and the live fault model, resolved once
    // up front. Callers should run `SweepConfig::validate` first; an
    // unknown scheme or fault model here is a programming error.
    let fault_model = build_fault_model(&config.fault_model).unwrap_or_else(|e| panic!("{e}"));
    let fm_label = fault_model_label(&config.fault_model).unwrap_or_else(|e| panic!("{e}"));
    let labels: Vec<String> = config
        .schemes
        .iter()
        .map(|s| scheme_label(s).unwrap_or_else(|e| panic!("{e}")))
        .collect();
    let baseline_scheme = SchemeConfig::new("baseline");
    let die_seed = |rep: usize| derive_seed(config.root_seed, "die", &[rep as u64]);

    let trace_seed = |w: usize, rep: usize| {
        // Key traces by the workload's stable identity, not its position
        // in this sweep's subset, so partial sweeps replay full-sweep
        // traffic exactly.
        let workload_id = Workload::ALL
            .iter()
            .position(|&x| x == config.workloads[w])
            .expect("workload in ALL") as u64;
        derive_seed(config.root_seed, "trace", &[workload_id, rep as u64])
    };
    let cell_params =
        |w: usize, rep: usize| trace_params(&config.gpu, config.ops_per_cu, trace_seed(w, rep));

    // Phase 1: shared artifacts. maps[v * reps + rep]: one die per
    // replicate (the *same* die across the voltage grid), hashed once per
    // die at the grid's lowest voltage and filtered per operating point.
    // traces[w * reps + rep]: one op buffer per (workload, replicate),
    // replayed by the baseline and every scheme cell.
    type SharedOps = Arc<Vec<Vec<TraceOp>>>;
    let (maps, traces): (Vec<Arc<FaultMap>>, Vec<SharedOps>) = match mode {
        ArtifactMode::Shared => {
            let maps = if config.vdds.is_empty() {
                Vec::new()
            } else {
                // Each replicate's die is hashed once at the grid's lowest
                // voltage, and every operating point is read from it.
                // With fewer replicates than threads, each die is drawn
                // in contiguous line ranges, joined in line order.
                let cap_vdd = config.vdds.iter().cloned().fold(f64::INFINITY, f64::min);
                let draws: Vec<_> = (0..reps)
                    .map(|rep| {
                        fault_model.die_draw(lines, NormVdd(cap_vdd), FreqGhz::PEAK, die_seed(rep))
                    })
                    .collect();
                let ranges = config.threads.div_ceil(reps).clamp(1, lines.max(1));
                let part_keys: Vec<(usize, Range<usize>)> = (0..reps)
                    .flat_map(|rep| {
                        (0..ranges)
                            .map(move |i| (rep, lines * i / ranges..lines * (i + 1) / ranges))
                    })
                    .collect();
                let mut parts = par_map(config.threads, &part_keys, None, |_, (rep, range)| {
                    draws[*rep].lines(range.clone())
                })
                .into_iter();
                let dies: Vec<Box<dyn ReplicateDie>> = draws
                    .iter()
                    .map(|draw| draw.join(parts.by_ref().take(ranges).collect()))
                    .collect();
                let map_keys: Vec<(usize, usize)> = (0..config.vdds.len())
                    .flat_map(|v| (0..reps).map(move |rep| (v, rep)))
                    .collect();
                par_map(config.threads, &map_keys, None, |_, &(v, rep)| {
                    Arc::new(dies[rep].map_at(NormVdd(config.vdds[v])))
                })
            };
            let trace_keys: Vec<(usize, usize)> = (0..config.workloads.len())
                .flat_map(|w| (0..reps).map(move |rep| (w, rep)))
                .collect();
            let traces = par_map(config.threads, &trace_keys, None, |_, &(w, rep)| {
                Arc::new(config.workloads[w].ops(&cell_params(w, rep)))
            });
            (maps, traces)
        }
        ArtifactMode::PerJob => (Vec::new(), Vec::new()),
    };
    let free_map = Arc::new(FaultMap::fault_free(lines));

    // Phase 2: simulations. Baselines first (workload-major), then cells
    // (vdd-major, scheme, workload), replicates innermost.
    let mut jobs: Vec<Job> = Vec::with_capacity(config.job_count());
    for w in 0..config.workloads.len() {
        for rep in 0..reps {
            jobs.push(Job::Baseline { w, rep });
        }
    }
    for v in 0..config.vdds.len() {
        for s in 0..config.schemes.len() {
            for w in 0..config.workloads.len() {
                for rep in 0..reps {
                    jobs.push(Job::Cell { v, s, w, rep });
                }
            }
        }
    }

    let progress = Progress::new("sweep", jobs.len(), config.progress_every);
    let results = par_map(config.threads, &jobs, Some(&progress), |_, &job| {
        let (w, rep, scheme, vdd) = match job {
            Job::Baseline { w, rep } => (w, rep, &baseline_scheme, 1.0),
            Job::Cell { v, s, w, rep } => (w, rep, &config.schemes[s], config.vdds[v]),
        };
        let workload = config.workloads[w];
        let mut context = vec![("vdd", format!("{vdd:?}")), ("rep", rep.to_string())];
        if fm_label != STUCK_AT {
            // The default model stays silent so pre-existing golden
            // traces keep their bytes; anything else announces itself.
            context.push(("fault_model", fm_label.clone()));
        }
        let obs = ObsConfig {
            trace_capacity: config.trace_capacity,
            context,
        };
        match mode {
            ArtifactMode::Shared => {
                let map = match job {
                    Job::Baseline { .. } => &free_map,
                    Job::Cell { v, .. } => &maps[v * reps + rep],
                };
                run_cell(
                    workload,
                    scheme,
                    &config.gpu,
                    Trace::from_shared(Arc::clone(&traces[w * reps + rep])),
                    map,
                    trace_seed(w, rep),
                    &obs,
                )
            }
            ArtifactMode::PerJob => {
                let map = match job {
                    Job::Baseline { .. } => Arc::new(FaultMap::fault_free(lines)),
                    Job::Cell { v, .. } => Arc::new(fault_model.map_reference(
                        lines,
                        NormVdd(config.vdds[v]),
                        FreqGhz::PEAK,
                        die_seed(rep),
                    )),
                };
                run_cell(
                    workload,
                    scheme,
                    &config.gpu,
                    workload.trace(&cell_params(w, rep)),
                    &map,
                    trace_seed(w, rep),
                    &obs,
                )
            }
        }
    });

    // Phase 3: deterministic sequential aggregation. Baseline cycles per
    // (workload, replicate) pair the normalized-time ratios.
    let baseline_cycles = |w: usize, rep: usize| results[w * reps + rep].stats.cycles;
    let fold = |cell: &mut SweepCell, job_index: usize, w: usize, rep: usize| {
        let r = &results[job_index];
        let sample = Sample {
            stats: r.stats,
            disabled_lines: r.disabled_lines,
            norm_time: r.stats.cycles as f64 / baseline_cycles(w, rep).max(1) as f64,
        };
        for (acc, value) in cell.metrics.iter_mut().zip(metric_values(&sample)) {
            acc.add(value);
        }
        cell.obs.merge(&r.metrics);
        cell.runs.push(r.stats);
    };

    let mut cells = Vec::new();
    for (w, workload) in config.workloads.iter().enumerate() {
        let mut cell = SweepCell {
            vdd: 1.0,
            scheme: "baseline".to_string(),
            workload: workload.name(),
            metrics: Default::default(),
            obs: MetricSet::new(),
            runs: Vec::with_capacity(reps),
        };
        for rep in 0..reps {
            fold(&mut cell, w * reps + rep, w, rep);
        }
        cells.push(cell);
    }
    let cells_offset = config.workloads.len() * reps;
    let mut job_index = cells_offset;
    for vdd in &config.vdds {
        for label in &labels {
            for (w, workload) in config.workloads.iter().enumerate() {
                let mut cell = SweepCell {
                    vdd: *vdd,
                    scheme: label.clone(),
                    workload: workload.name(),
                    metrics: Default::default(),
                    obs: MetricSet::new(),
                    runs: Vec::with_capacity(reps),
                };
                for rep in 0..reps {
                    fold(&mut cell, job_index, w, rep);
                    job_index += 1;
                }
                cells.push(cell);
            }
        }
    }

    // Traces concatenate in job order, which is itself deterministic, so
    // the artifact is byte-identical for any thread count.
    let trace = config.trace_capacity.map(|_| {
        results
            .iter()
            .filter_map(|r| r.trace.as_deref())
            .collect::<String>()
    });

    SweepReport {
        root_seed: config.root_seed,
        replications: reps,
        ops_per_cu: config.ops_per_cu,
        vdds: config.vdds.clone(),
        fault_model: fm_label,
        schemes: labels,
        workloads: config.workloads.iter().map(|w| w.name()).collect(),
        cells,
        trace,
        wall_secs: started.elapsed().as_secs_f64(),
    }
}

/// Canonical JSON float: shortest round-trip representation (stable for
/// identical bits), `null` for non-finite values.
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", escape_json(s))
}

impl SweepReport {
    /// Serializes the report as deterministic, pretty-printed JSON
    /// (schema `killi-sweep/v3`: v2 added the per-cell `"obs"` counter
    /// block, v3 dropped the eight counters nothing incremented).
    /// Wall-clock timing is excluded so the bytes depend only on
    /// (config, root seed) — never on thread count.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"schema\": \"killi-sweep/v3\",\n");
        out.push_str(&format!("  \"root_seed\": {},\n", self.root_seed));
        out.push_str(&format!("  \"replications\": {},\n", self.replications));
        out.push_str(&format!("  \"ops_per_cu\": {},\n", self.ops_per_cu));
        if self.fault_model != STUCK_AT {
            // Gated so pre-fault-model-axis golden reports keep their
            // bytes: the default model is implied, anything else is
            // spelled out.
            out.push_str(&format!(
                "  \"fault_model\": {},\n",
                json_str(&self.fault_model)
            ));
        }
        let list = |items: Vec<String>| items.join(", ");
        out.push_str(&format!(
            "  \"vdds\": [{}],\n",
            list(self.vdds.iter().map(|&v| json_f64(v)).collect())
        ));
        out.push_str(&format!(
            "  \"schemes\": [{}],\n",
            list(self.schemes.iter().map(|s| json_str(s)).collect())
        ));
        out.push_str(&format!(
            "  \"workloads\": [{}],\n",
            list(self.workloads.iter().map(|w| json_str(w)).collect())
        ));
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"vdd\": {},\n", json_f64(cell.vdd)));
            out.push_str(&format!("      \"scheme\": {},\n", json_str(&cell.scheme)));
            out.push_str(&format!(
                "      \"workload\": {},\n",
                json_str(cell.workload)
            ));
            out.push_str(&format!("      \"n\": {},\n", cell.metrics[0].n()));
            out.push_str("      \"metrics\": {\n");
            for (m, (name, acc)) in METRIC_NAMES.iter().zip(cell.metrics.iter()).enumerate() {
                let (lo, hi) = acc.ci95();
                out.push_str(&format!(
                    "        {}: {{\"mean\": {}, \"stddev\": {}, \"ci95\": [{}, {}]}}{}\n",
                    json_str(name),
                    json_f64(acc.mean()),
                    json_f64(acc.stddev()),
                    json_f64(lo),
                    json_f64(hi),
                    if m + 1 < METRIC_NAMES.len() { "," } else { "" }
                ));
            }
            out.push_str("      },\n");
            out.push_str(&format!("      \"obs\": {}\n", cell.obs.to_json()));
            out.push_str(&format!(
                "    }}{}\n",
                if i + 1 < self.cells.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }

    /// Renders the headline metrics as an aligned text table.
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(vec![
            "vdd",
            "scheme",
            "workload",
            "norm.time (95% CI)",
            "mpki",
            "sdc",
            "disabled",
        ]);
        for cell in &self.cells {
            t.row(vec![
                format!("{}", cell.vdd),
                cell.scheme.clone(),
                cell.workload.to_string(),
                cell.metric("norm_time").fmt_ci(4),
                format!("{:.2}", cell.metric("mpki").mean()),
                format!("{:.2}", cell.metric("sdc_events").mean()),
                format!("{:.1}", cell.metric("disabled_lines").mean()),
            ]);
        }
        t
    }

    /// A cell by key (baselines: scheme `"baseline"`, vdd `1.0`).
    pub fn cell(&self, vdd: f64, scheme: &str, workload: &str) -> Option<&SweepCell> {
        self.cells
            .iter()
            .find(|c| c.vdd == vdd && c.scheme == scheme && c.workload == workload)
    }
}

/// Serializes several reports as one deterministic JSON array (used by
/// experiments that sweep disjoint operating points, e.g. §5.5 lowvmin).
pub fn json_array(reports: &[SweepReport]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        let body = r.to_json();
        // Indent the nested object by two spaces.
        for line in body.lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        if i + 1 < reports.len() {
            let len = out.trim_end().len();
            out.truncate(len);
            out.push_str(",\n");
        }
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_sim::cache::CacheGeometry;

    fn tiny_sweep() -> SweepConfig {
        SweepConfig {
            root_seed: 7,
            replications: 2,
            vdds: vec![0.625, 0.6],
            schemes: vec![SchemeConfig::parse("killi:ratio=16").unwrap()],
            fault_model: FaultModelConfig::default(),
            workloads: vec![Workload::Fft, Workload::Hacc],
            ops_per_cu: 1500,
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
            threads: 2,
            progress_every: 0,
            trace_capacity: None,
        }
    }

    #[test]
    fn validate_rejects_unknown_schemes_upfront() {
        let mut config = tiny_sweep();
        assert!(config.validate().is_ok());
        config.schemes.push(SchemeConfig::new("no-such-scheme"));
        match config.validate() {
            Err(SweepConfigError::Scheme(BuildError::Unknown { name })) => {
                assert_eq!(name, "no-such-scheme")
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_two_schemes_under_one_label() {
        let config = SweepConfig {
            schemes: SchemeConfig::parse_list("killi:ratio=16,killi:ratio=16,ecc_ways=8").unwrap(),
            ..tiny_sweep()
        };
        let err = config.clone().validate().unwrap_err();
        assert_eq!(
            err,
            SweepConfigError::Scheme(BuildError::DuplicateLabel {
                label: "killi-1:16".to_string(),
                first: "killi:ratio=16".to_string(),
                second: "killi:ratio=16,ecc_ways=8".to_string(),
            })
        );
        assert_eq!(
            err.to_string(),
            "schemes `killi:ratio=16` and `killi:ratio=16,ecc_ways=8` share the label `killi-1:16`"
        );
        assert!(matches!(
            config.validated(),
            Err(SweepConfigError::Scheme(BuildError::DuplicateLabel { .. }))
        ));
    }

    #[test]
    fn validate_rejects_unsimulable_geometry_before_building_schemes() {
        let bad = |edit: fn(&mut GpuConfig)| {
            let mut config = SweepConfig {
                schemes: vec![SchemeConfig::new("flair")],
                ..tiny_sweep()
            };
            edit(&mut config.gpu);
            match config.validate() {
                Err(SweepConfigError::Geometry { reason }) => reason,
                other => panic!("expected a geometry error, got {other:?}"),
            }
        };
        assert!(bad(|g| g.l2.line_bytes = 0).contains("line size 0 B"));
        assert!(bad(|g| g.l2.line_bytes = 48).contains("line size 48 B"));
        assert!(bad(|g| g.l2.ways = 0).contains("associativity"));
        assert!(bad(|g| g.l2.ways = 3).contains("3-way sets"));
        assert!(bad(|g| g.l2.size_bytes = 96 * 1024).contains("192 sets"));
        assert!(bad(|g| g.l2.size_bytes = 0).contains("0 sets"));
        assert!(bad(|g| g.cus = 0).contains("CU"));
        assert!(bad(|g| g.l2_banks = 0).contains("bank count 0"));
        assert!(bad(|g| g.l2_banks = 3).contains("bank count 3"));
        let message = SweepConfigError::Geometry {
            reason: "x".to_string(),
        };
        assert_eq!(message.to_string(), "invalid GPU geometry: x");
    }

    #[test]
    fn validate_rejects_unknown_fault_models_upfront() {
        let mut config = tiny_sweep();
        config.fault_model = FaultModelConfig::new("no-such-model");
        match config.validate() {
            Err(SweepConfigError::FaultModel(FaultModelBuildError::Unknown { name })) => {
                assert_eq!(name, "no-such-model")
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn accumulator_matches_two_pass_statistics() {
        let xs = [3.0, 5.0, 7.0, 11.0, 13.0];
        let mut acc = Accumulator::default();
        for &x in &xs {
            acc.add(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((acc.mean() - mean).abs() < 1e-12);
        assert!((acc.stddev() - var.sqrt()).abs() < 1e-12);
        let (lo, hi) = acc.ci95();
        assert!(lo < mean && mean < hi);
        assert!((hi - mean - 1.96 * var.sqrt() / (5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn accumulator_degenerate_cases() {
        let mut acc = Accumulator::default();
        assert_eq!(acc.mean(), 0.0);
        assert_eq!(acc.stddev(), 0.0);
        acc.add(4.0);
        assert_eq!(acc.mean(), 4.0);
        assert_eq!(acc.stddev(), 0.0);
        assert_eq!(acc.ci95(), (4.0, 4.0));
    }

    #[test]
    fn sweep_produces_every_cell_with_full_replication() {
        let config = tiny_sweep();
        let report = run_sweep(&config);
        // 2 baselines + 2 vdds x 1 scheme x 2 workloads.
        assert_eq!(report.cells.len(), 2 + 4);
        for cell in &report.cells {
            assert_eq!(cell.metrics[0].n(), 2, "{}/{}", cell.scheme, cell.workload);
        }
        let base = report.cell(1.0, "baseline", "fft").expect("baseline cell");
        assert!((base.metric("norm_time").mean() - 1.0).abs() < 1e-12);
        let killi = report.cell(0.6, "killi-1:16", "hacc").expect("killi cell");
        assert!(killi.metric("cycles").mean() > 0.0);
        assert!(killi.metric("norm_time").mean() >= 0.99);
    }

    #[test]
    fn json_is_valid_enough_and_carries_schema() {
        let report = run_sweep(&tiny_sweep());
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"killi-sweep/v3\""));
        assert!(json.contains("\"norm_time\""));
        assert!(json.contains("\"obs\""));
        assert!(!json.contains("wall"), "timing must stay out of the JSON");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn validate_rejects_degenerate_voltage_grids() {
        let expect_grid_err = |vdds: Vec<f64>| {
            let config = SweepConfig {
                vdds,
                ..tiny_sweep()
            };
            match config.validate() {
                Err(SweepConfigError::VoltageGrid { reason }) => reason,
                other => panic!("expected VoltageGrid error, got {other:?}"),
            }
        };
        // A sweep needs a point, but one is enough.
        assert!(expect_grid_err(Vec::new()).contains("at least 1 grid point"));
        // Duplicates and zig-zags are not monotonic.
        assert!(expect_grid_err(vec![0.65, 0.65]).contains("monotonic"));
        assert!(expect_grid_err(vec![0.6, 0.65, 0.625]).contains("monotonic"));
        // Non-finite or out-of-range points are named in the error.
        assert!(expect_grid_err(vec![0.65, f64::NAN]).contains("outside"));
        assert!(expect_grid_err(vec![0.65, -0.6]).contains("outside"));
        assert!(expect_grid_err(vec![0.65, 2.0]).contains("outside"));
        // Either direction of strict monotonicity is fine.
        for vdds in [vec![0.625], vec![0.6, 0.625, 0.65], vec![0.65, 0.625, 0.6]] {
            let config = SweepConfig {
                vdds,
                ..tiny_sweep()
            };
            assert!(config.validate().is_ok());
        }
    }

    #[test]
    fn json_array_wraps_reports() {
        let r = run_sweep(&SweepConfig {
            replications: 1,
            vdds: vec![0.65, 0.625],
            workloads: vec![Workload::Fft],
            ..tiny_sweep()
        });
        let arr = json_array(&[r.clone(), r]);
        assert!(arr.starts_with("[\n"));
        assert!(arr.ends_with("]\n"));
        assert_eq!(arr.matches("killi-sweep/v3").count(), 2);
    }

    #[test]
    fn validated_canonical_json_ignores_execution_knobs() {
        let config = tiny_sweep();
        let canon = config.clone().validated().unwrap().canonical_json();
        // Thread count, progress cadence and tracing do not change the
        // report bytes, so they must not change the cache key either.
        let retuned = SweepConfig {
            threads: 1,
            progress_every: 100,
            trace_capacity: Some(64),
            ..config.clone()
        };
        assert_eq!(retuned.validated().unwrap().canonical_json(), canon);
        // A different scheme spelling of the same sweep agrees too.
        let respelled = SweepConfig {
            schemes: vec![SchemeConfig::parse("killi:ecc_ways=4,ratio=16").unwrap()],
            ..config.clone()
        };
        assert_eq!(respelled.validated().unwrap().canonical_json(), canon);
        // A different fault-model spelling of the same model agrees.
        let fm_respelled = SweepConfig {
            fault_model: FaultModelConfig::parse("stuck-at").unwrap(),
            ..config.clone()
        };
        assert_eq!(fm_respelled.validated().unwrap().canonical_json(), canon);
        // Anything report-shaping diverges — a different fault model in
        // particular, so the serve cache never conflates models.
        let remodeled = SweepConfig {
            fault_model: FaultModelConfig::parse("clustered:rows=8").unwrap(),
            ..config.clone()
        };
        assert_ne!(remodeled.validated().unwrap().canonical_json(), canon);
        let reseeded = SweepConfig {
            root_seed: 8,
            ..config
        };
        assert_ne!(reseeded.validated().unwrap().canonical_json(), canon);
    }

    #[test]
    fn non_default_fault_model_runs_and_labels_the_report() {
        let config = SweepConfig {
            replications: 1,
            vdds: vec![0.65, 0.625],
            workloads: vec![Workload::Fft],
            fault_model: FaultModelConfig::parse("transient:rate=0.001").unwrap(),
            ..tiny_sweep()
        };
        let report = run_sweep(&config);
        assert_eq!(report.fault_model, "transient:mode=random,rate=0.001");
        assert!(report.to_json().contains("\"fault_model\""));
        // The default model stays out of the JSON (golden-report pin).
        let default_report = run_sweep(&SweepConfig {
            replications: 1,
            vdds: vec![0.65, 0.625],
            workloads: vec![Workload::Fft],
            ..tiny_sweep()
        });
        assert_eq!(default_report.fault_model, STUCK_AT);
        assert!(!default_report.to_json().contains("\"fault_model\""));
    }

    #[test]
    fn validated_rejects_what_validate_rejects() {
        let mut config = tiny_sweep();
        config.schemes.push(SchemeConfig::new("no-such-scheme"));
        assert!(matches!(
            config.validated(),
            Err(SweepConfigError::Scheme(BuildError::Unknown { .. }))
        ));
    }

    #[test]
    fn run_sweep_validated_matches_run_sweep() {
        let config = SweepConfig {
            replications: 1,
            vdds: vec![0.65, 0.625],
            workloads: vec![Workload::Fft],
            ..tiny_sweep()
        };
        let direct = run_sweep(&config).to_json();
        let validated = config.validated().unwrap();
        assert_eq!(run_sweep_validated(&validated).to_json(), direct);
    }

    #[test]
    fn baseline_pairing_uses_the_same_trace_per_replicate() {
        // With zero faults a "protected" run and the baseline see the
        // same traffic; their cycle counts per replicate must agree.
        let mut config = tiny_sweep();
        config.vdds = vec![0.96, 0.95]; // no faults at near-nominal voltage
        let report = run_sweep(&config);
        for w in ["fft", "hacc"] {
            let base = report.cell(1.0, "baseline", w).unwrap();
            let cell = report.cell(0.95, "killi-1:16", w).unwrap();
            let ratio = cell.metric("norm_time").mean();
            assert!(
                (0.99..1.2).contains(&ratio),
                "{w}: unexpected norm time {ratio} (base {}, cell {})",
                base.metric("cycles").mean(),
                cell.metric("cycles").mean(),
            );
        }
    }
}
