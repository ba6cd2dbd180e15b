//! `killi` — command-line interface to the Killi low-voltage cache toolkit.
//!
//! ```text
//! killi coverage  [--vdd 0.6] [--fault-model stuck-at]
//! killi area      [--ratio 64] [--code secded|dected|tecqed|6ec7ed]
//! killi faultmap  [--vdd 0.625] [--lines 32768] [--seed 42]
//!                 [--fault-model clustered:rows=4,corr=0.8]
//! killi schemes   [--build-check]
//! killi fault-models [--build-check]
//! killi simulate  [--workload xsbench] [--scheme killi] [--vdd 0.625]
//!                 [--ops 100000] [--seed 42] [--fault-model stuck-at]
//! killi sweep     [--replications 8] [--threads 4] [--vdds 0.65,0.625,0.6]
//!                 [--workloads xsbench,hacc] [--schemes killi]
//!                 [--scheme-file FILE.json] [--fault-model stuck-at]
//!                 [--ops 10000] [--seed 42] [--l2kb 512] [--out FILE.json]
//!                 [--trace FILE.jsonl] [--trace-capacity 4096]
//! killi vmin      [--dies 100] [--lines 4096] [--schemes killi,flair|all]
//!                 [--fault-model stuck-at] [--store FILE.kds] [--out FILE.json]
//!                 | --check FILE.json
//! killi record    --out trace.ktrc [--workload fft] [--ops 100000]
//! killi replay    --in trace.ktrc [--scheme killi] [--vdd 0.625] [--seed 42]
//!                 [--fault-model stuck-at]
//! killi profile   [--workload fft | --in trace.ktrc] [--ops 100000] [--seed 42]
//! killi stats     --in results/sweep.json
//! killi trace     [--workload fft] [--scheme killi] [--capacity 4096]
//!                 [--out FILE.jsonl] | --check FILE.jsonl
//! killi serve     [--host 127.0.0.1] [--port 7171] [--workers 2]
//!                 [--queue-depth 32] [--cache-cap 64]
//! killi submit    [--url http://127.0.0.1:7171] [--file JOB.json] [--wait]
//! killi status    --job ID [--url http://127.0.0.1:7171]
//! killi fetch     --job ID [--url http://127.0.0.1:7171] [--out FILE.json]
//!                 [--wait]
//! killi repro     [--only fig4,table6] [--ops 150000] [--replications 4]
//! ```

mod args;

use std::process::ExitCode;
use std::sync::Arc;

use args::{ArgError, Args};
use killi_bench::experiments::{Experiment, Repro, EXPERIMENTS};
use killi_bench::fault_models::{
    build_fault_model, default_fault_registry, fault_model_label, FaultModelBuildError,
    FaultModelConfig, STUCK_AT,
};
use killi_bench::report::Table;
use killi_bench::runner::{run_cell, trace_params, ObsConfig};
use killi_bench::schemes::{
    build_scheme, check_builds, default_registry, scheme_label, BuildCtx, ParamValue, SchemeConfig,
    BASELINE,
};
use killi_bench::sweep::{run_sweep, validate_vdd, SweepConfig};
use killi_fault::cell_model::{FreqGhz, NormVdd};
use killi_fault::line_stats::LineFaultDistribution;
use killi_fault::map::FaultMap;
use killi_model::area::{checkbits, AreaModel};
use killi_model::coverage::coverage_at;
use killi_obs::registry::{self, Descriptor, Registry};
use killi_obs::{parse_json, JsonValue};
use killi_serve::{Client, Server, ServerConfig};
use killi_sim::cache::CacheGeometry;
use killi_sim::gpu::{GpuConfig, GpuSim};
use killi_vmin::{run_campaign, SearchMode, VminConfig, DEFAULT_GRID};
use killi_workloads::{TraceParams, Workload};

const USAGE: &str = "\
killi-cli — low-voltage cache toolkit (reproduction of HPCA'19 'Killi')

USAGE:
  killi coverage  [--vdd 0.6] [--fault-model stuck-at]
  killi area      [--ratio 64] [--code secded|dected|tecqed|6ec7ed]
  killi faultmap  [--vdd 0.625] [--lines 32768] [--seed 42]
                  [--fault-model clustered:rows=4,corr=0.8]
  killi schemes   [--build-check]
                  Lists every registered protection scheme with its
                  parameters and defaults; --build-check also builds each
                  from its defaults (CI smoke).
  killi fault-models [--build-check]
                  Lists every registered fault model (stuck-at, clustered,
                  transient, table) with its parameters, defaults and
                  voltage-nesting contract; --build-check also builds each
                  from its defaults and round-trips it through the service
                  job payload (CI smoke).
  killi simulate  [--workload xsbench] [--scheme killi|dected|flair|ms-ecc]
                  [--vdd 0.625] [--ops 100000] [--seed 42]
                  [--fault-model stuck-at]
                  Runs a one-replicate sweep and prints its cell: what
                  'killi sweep' on a 2 MiB L2 reports for replicate 0 at
                  this --vdd and --seed.
  killi sweep     [--replications 8] [--threads N] [--vdds 0.65,0.625,0.6]
                  [--workloads xsbench,hacc] [--schemes killi]
                  [--scheme-file FILE.json] [--fault-model stuck-at]
                  [--ops 10000] [--seed 42] [--l2kb 512] [--progress 10]
                  [--out results/sweep.json]
                  [--trace FILE.jsonl] [--trace-capacity 4096]
                  Monte-Carlo sweep: statistics (mean/stddev/95% CI) over
                  seed-derived replicate fault maps, written as JSON.
                  --schemes entries accept registry shorthand, e.g.
                  killi:ratio=16,ecc_sets=64,ecc_ways=8; a parameter left
                  unset takes the registry default (killi-olsc: ratio 8).
                  --scheme-file reads a JSON list whose items are
                  shorthand strings or {\"name\": ..., \"params\": {...}}
                  objects.
                  --fault-model picks the map generator (see
                  'killi fault-models'), e.g. transient:rate=0.001.
  killi vmin      [--dies 100] [--lines 4096] [--target 0.99] [--seed 42]
                  [--vdds 0.55,0.575,0.6,0.625,0.65,0.675,0.7]
                  [--schemes killi,flair|all]
                  [--scheme-file FILE.json] [--fault-model stuck-at]
                  [--threads N] [--progress 0] [--store FILE.kds]
                  [--out results/VMIN.json]
                  Fleet Vmin campaign: per-die minimum-voltage binning per
                  scheme over the voltage grid (bisected for voltage-nested
                  fault models, linear fallback otherwise), reported as
                  killi-vmin/v1 JSON with Vmin CDFs, capacity-vs-vdd curves
                  and yield tables. --schemes all bins every registered
                  scheme. --store streams dies through a killi-diestore/v1
                  file (built on first use, reused afterwards) so memory
                  stays flat in the fleet size.
  killi vmin      --check FILE.json
                  Validates a killi-vmin/v1 report (schema + binning
                  invariants).
  killi record    --out trace.ktrc [--workload fft] [--ops 100000] [--seed 42]
  killi replay    --in trace.ktrc  [--scheme killi] [--vdd 0.625] [--seed 42]
                  [--fault-model stuck-at]
  killi profile   [--workload fft | --in trace.ktrc] [--ops 100000] [--seed 42]
  killi stats     --in results/sweep.json
                  Per-scheme observability digest of a killi-sweep/v3
                  report: DFH transitions and the error-induced vs
                  ECC-cache-induced miss split.
  killi trace     [--workload fft] [--scheme killi]
                  [--vdd 0.625] [--ops 20000] [--seed 42] [--capacity 4096]
                  [--fault-model stuck-at] [--out FILE.jsonl]
                  Runs one traced simulation and emits the killi-obs/v1
                  JSON-lines event trace (stdout unless --out).
  killi trace     --check FILE.jsonl
                  Validates a JSON-lines event trace (schema + line syntax).
  killi serve     [--host 127.0.0.1] [--port 7171] [--workers 2]
                  [--queue-depth 32] [--cache-cap 64]
                  Runs the sweep engine as an HTTP service. POST /v1/jobs
                  takes a sweep config (JSON), GET /v1/jobs/ID and
                  /v1/jobs/ID/report poll and fetch, /v1/metrics and
                  /v1/healthz observe. Identical configs share one
                  content-addressed result; a full queue answers 429 with
                  Retry-After; SIGTERM/ctrl-c drains in-flight jobs and
                  exits. --port 0 picks an ephemeral port (printed on the
                  first stdout line).
  killi submit    [--url http://127.0.0.1:7171] [--file JOB.json] [--wait]
                  Submits a job (reads stdin when --file is absent or '-')
                  and prints 'job:', 'cache:' and 'state:' lines; --wait
                  polls until the job is done or failed.
  killi status    --job ID [--url http://127.0.0.1:7171]
  killi fetch     --job ID [--url http://127.0.0.1:7171] [--out FILE.json]
                  [--wait]
                  Downloads the killi-sweep/v3 report of a finished job
                  (stdout unless --out).
  killi repro     [--only fig4,table6] [--ops 150000] [--replications 4]
                  Reproduces the paper: runs every experiment (or the
                  --only ids) in table order, prints each text report and
                  writes every artifact to results/ under the current
                  directory. --ops scales the simulations' per-CU trace
                  length; --replications sets the replicate fault maps of
                  the replicated studies (lowvmin, dvfs).

Run 'killi <command> --help' (or bare 'killi') to print this text.
";

/// A subcommand implementation.
type Command = fn(&Args) -> Result<(), ArgError>;

/// The dispatch table: each command's name, the flags it reads
/// (space-separated) and its implementation. Command lookup and the
/// unknown-command and unknown-flag errors all derive from this one list,
/// so an error can never advertise a stale set of commands or flags.
const COMMANDS: &[(&str, &str, Command)] = &[
    ("coverage", "vdd fault-model", cmd_coverage),
    ("area", "ratio code", cmd_area),
    ("faultmap", "vdd lines seed fault-model", cmd_faultmap),
    ("schemes", "build-check", cmd_schemes),
    ("fault-models", "build-check", cmd_fault_models),
    (
        "simulate",
        "workload scheme vdd ops seed fault-model",
        cmd_simulate,
    ),
    (
        "sweep",
        "replications threads vdds workloads schemes scheme-file fault-model ops seed l2kb \
         progress out trace trace-capacity",
        cmd_sweep,
    ),
    (
        "vmin",
        "dies lines target seed vdds schemes scheme-file fault-model threads progress store \
         out check",
        cmd_vmin,
    ),
    ("record", "out workload ops seed", cmd_record),
    ("replay", "in scheme vdd seed fault-model", cmd_replay),
    ("profile", "workload in ops seed", cmd_profile),
    ("stats", "in", cmd_stats),
    (
        "trace",
        "workload scheme vdd ops seed capacity fault-model out check",
        cmd_trace,
    ),
    (
        "serve",
        "host port workers queue-depth cache-cap",
        cmd_serve,
    ),
    ("submit", "url file wait", cmd_submit),
    ("status", "job url", cmd_status),
    ("fetch", "job url out wait", cmd_fetch),
    ("repro", "only ops replications", cmd_repro),
];

/// Runs the command `args` names after checking that it reads every flag
/// given, so a mistyped or removed flag fails instead of silently running
/// with the default.
fn dispatch(args: &Args) -> Result<(), ArgError> {
    let command = args.command.as_deref().unwrap_or_default();
    let Some((name, flags, run)) = COMMANDS.iter().find(|(name, ..)| *name == command) else {
        return Err(ArgError::UnknownCommand {
            command: command.to_string(),
            known: COMMANDS.iter().map(|(name, ..)| name.to_string()).collect(),
        });
    };
    args.check_flags(name, flags)?;
    run(args)
}

/// Prints `e` to stderr, followed by the usage text only when the
/// error is in how the command was spelled: after a runtime failure the
/// one line that says what to do stays in view.
fn report(e: &ArgError) -> ExitCode {
    if e.is_usage() {
        eprintln!("error: {e}\n\n{USAGE}");
    } else {
        eprintln!("error: {e}");
    }
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => return report(&e),
    };
    let Some(command) = args.command.as_deref() else {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    };
    // Like any Unix filter, a command whose reader hangs up (`killi vmin
    // | head -1`) ends quietly on SIGPIPE instead of panicking on the
    // failed print. The server keeps ignoring it, or a client closing
    // its socket would kill the server.
    if command != "serve" {
        killi_serve::signal::restore_default_sigpipe();
    }
    if args.has("help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => report(&e),
    }
}

fn cmd_coverage(args: &Args) -> Result<(), ArgError> {
    let vdd = flag_vdd(args, 0.6)?;
    let fault_model = flag_config(args, "fault-model", STUCK_AT, default_fault_registry())?;
    let built = build_fault_model(&fault_model).map_err(|e| io_msg(e.to_string()))?;
    let model = built.cell_model().cloned().ok_or_else(|| {
        io_msg(format!(
            "fault model `{fault_model}` exposes no analytic cell-failure curve \
             (coverage needs one)"
        ))
    })?;
    let c = coverage_at(&model, NormVdd(vdd));
    let mut t = Table::new(vec!["technique", "coverage"]);
    for (name, v) in [
        ("16-bit parity", c.parity16),
        ("SECDED", c.secded),
        ("DECTED", c.dected),
        ("MS-ECC", c.msecc),
        ("FLAIR (training)", c.flair),
        ("Killi", c.killi),
    ] {
        t.row(vec![name.to_string(), format!("{:.6}%", v * 100.0)]);
    }
    println!("classification coverage at {vdd} x VDD:\n{}", t.render());
    Ok(())
}

fn cmd_area(args: &Args) -> Result<(), ArgError> {
    let ratio = positive(args, "ratio", 64)?;
    // The entry count below is only meaningful for a Killi that builds.
    let killi = SchemeConfig::new("killi").with("ratio", ParamValue::U64(ratio as u64));
    check_builds(&[killi], GpuConfig::default().l2).map_err(|e| io_msg(e.to_string()))?;
    let code = args.get_or("code", "secded");
    let bits = match code.as_str() {
        "secded" => checkbits::SECDED,
        "dected" => checkbits::DECTED,
        "tecqed" => checkbits::TECQED,
        "6ec7ed" => checkbits::SIX_EC,
        other => {
            return Err(ArgError::invalid(
                "code",
                other,
                "one of secded, dected, tecqed, 6ec7ed",
            ))
        }
    };
    let m = AreaModel::paper();
    let killi = m.killi_bits(ratio, bits);
    println!(
        "Killi at 1:{ratio} with {code} in the ECC cache over a 2 MB L2:\n\
         - added storage: {:.2} KiB ({} entries x {} bits + 6 bits/line)\n\
         - {:.2}x the per-line SECDED baseline\n\
         - {:.2}% of the L2 data array",
        AreaModel::kib(killi),
        32768 / ratio,
        m.ecc_entry_bits(bits),
        m.ratio_to_secded(killi),
        m.fraction_of_l2(killi) * 100.0,
    );
    Ok(())
}

fn cmd_faultmap(args: &Args) -> Result<(), ArgError> {
    let vdd = flag_vdd(args, 0.625)?;
    let lines = positive(args, "lines", 32768)?;
    let seed = args.flag_u64("seed", 42)?;
    let fault_model = flag_config(args, "fault-model", STUCK_AT, default_fault_registry())?;
    let model = build_fault_model(&fault_model).map_err(|e| io_msg(e.to_string()))?;
    let map = model.map(lines, NormVdd(vdd), FreqGhz::PEAK, seed);
    let measured = LineFaultDistribution::measured(&map);
    let hist = map.data_fault_histogram(13);
    println!(
        "fault map ({fault_model}): {lines} lines at {vdd} x VDD, seed {seed}\n\
         zero faults: {:.2}%   one: {:.2}%   two-plus: {:.2}%",
        measured.zero * 100.0,
        measured.one * 100.0,
        measured.two_plus * 100.0
    );
    let mut t = Table::new(vec!["faults/line", "lines"]);
    for (k, &n) in hist.iter().enumerate() {
        if n > 0 {
            let label = if k == hist.len() - 1 {
                format!("{k}+")
            } else {
                k.to_string()
            };
            t.row(vec![label, n.to_string()]);
        }
    }
    println!("{}", t.render());
    Ok(())
}

/// Parses the registry spellings `--flag` gave (`default` when it is
/// absent) and validates each against `registry`. Spellings are joined
/// by commas, and a spelling's own parameters may follow it:
/// `killi:ratio=16,ecc_sets=64,ecc_ways=8,dected` is two schemes (see
/// [`registry::Config::parse_list`]). A parameter left unset takes the
/// registry default. An error names the flag and lists every registered
/// name.
fn flag_configs<D: Descriptor>(
    args: &Args,
    flag: &str,
    default: &str,
    registry: &Registry<D>,
) -> Result<Vec<registry::Config<D::Kind>>, ArgError> {
    let input = args.get_or(flag, default);
    let err = |spelling: &str, e: registry::BuildError<D::Kind>| {
        let registered = registry.names().join(", ");
        ArgError::invalid(
            flag,
            spelling,
            format!("valid ({e}); registered: {registered}"),
        )
    };
    let configs = registry::Config::parse_list(&input).map_err(|e| err(&input, e))?;
    for config in &configs {
        registry
            .validate(config)
            .map_err(|e| err(&config.to_string(), e))?;
    }
    Ok(configs)
}

/// The one registry spelling a single-valued `--flag` takes (see
/// [`flag_configs`]).
fn flag_config<D: Descriptor>(
    args: &Args,
    flag: &str,
    default: &str,
    registry: &Registry<D>,
) -> Result<registry::Config<D::Kind>, ArgError> {
    let mut configs = flag_configs(args, flag, default, registry)?;
    if configs.len() > 1 {
        let noun = <D::Kind as registry::Kind>::NOUN;
        let input = args.get_or(flag, default);
        return Err(ArgError::invalid(flag, &input, format!("a single {noun}")));
    }
    Ok(configs.remove(0))
}

/// The schemes of `--scheme-file`, a JSON list that takes precedence, or
/// else of `--schemes` (see [`flag_configs`]).
fn parse_schemes(args: &Args) -> Result<Vec<SchemeConfig>, ArgError> {
    let scheme_file = args.get_or("scheme-file", "");
    if !scheme_file.is_empty() {
        let io_err = |message: String| io_msg(format!("{scheme_file}: {message}"));
        let text = std::fs::read_to_string(&scheme_file).map_err(|e| io_err(e.to_string()))?;
        return SchemeConfig::list_from_json(&text, "schemes").map_err(|e| io_err(e.to_string()));
    }
    flag_configs(args, "schemes", "killi", default_registry())
}

/// Prints the `parameters:` section of `killi schemes` and `killi
/// fault-models`: every descriptor that declares parameters, with each
/// default cut to 40 characters.
fn print_parameters<D: Descriptor>(registry: &Registry<D>) {
    let with_params: Vec<&D> = registry
        .descriptors()
        .iter()
        .filter(|d| !d.params().is_empty())
        .collect();
    if with_params.is_empty() {
        return;
    }
    println!("parameters:");
    for d in with_params {
        println!("  {}:", d.name());
        for p in d.params() {
            let default = p.default.to_string();
            let default = if default.len() > 40 {
                format!("{}...", &default[..37])
            } else {
                default
            };
            println!("    {} = {}  ({})", p.name, default, p.doc);
        }
    }
}

/// `killi fault-models`: lists every registered fault model with its
/// parameters, defaults and the voltage-nesting contract of the model its
/// defaults build; `--build-check` additionally draws a small map from
/// each and round-trips it through the service job payload (the CI smoke
/// that keeps the registry, the constructors and the service in sync).
fn cmd_fault_models(args: &Args) -> Result<(), ArgError> {
    let registry = default_fault_registry();
    let io_err = |e: FaultModelBuildError| io_msg(e.to_string());
    let mut t = Table::new(vec!["model", "default label", "nested", "description"]);
    for d in registry.descriptors() {
        let config = FaultModelConfig::new(d.name);
        let label = registry.label(&config).map_err(io_err)?;
        let nested = registry
            .build(&config, &())
            .map_err(io_err)?
            .voltage_nested();
        t.row(vec![
            d.name.to_string(),
            label,
            if nested { "yes" } else { "no" }.to_string(),
            d.doc.to_string(),
        ]);
    }
    println!(
        "registered fault models (use --fault-model NAME or \
         NAME:key=value,key=value; `nested` = faults at a higher voltage \
         are a subset of faults at any lower voltage):\n{}",
        t.render()
    );
    print_parameters(registry);
    if args.has("build-check") {
        for d in registry.descriptors() {
            let config = FaultModelConfig::new(d.name);
            let model = registry
                .build(&config, &())
                .map_err(|e| io_msg(format!("{}: {e}", d.name)))?;
            let map = model.map(64, NormVdd(0.6), FreqGhz::PEAK, 1);
            if map.lines() != 64 {
                return Err(io_msg(format!(
                    "{}: drew {} lines instead of 64",
                    d.name,
                    map.lines()
                )));
            }
            // Every model must also round-trip through the service's
            // job-payload path, so `killi serve` can sweep it.
            let payload = format!(
                "{{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.625],\
                 \"schemes\":[\"killi\"],\"fault_model\":\"{}\",\
                 \"workloads\":[\"fft\"],\"ops_per_cu\":100}}",
                d.name
            );
            killi_serve::parse_job_spec(payload.as_bytes()).map_err(|e| {
                io_msg(format!("{}: not submittable as a service job: {e}", d.name))
            })?;
        }
        println!(
            "build check: all {} registered fault models build from their \
             defaults, draw maps, and validate as service job payloads",
            registry.descriptors().len()
        );
    }
    Ok(())
}

/// `killi schemes`: lists every registered scheme with its parameters and
/// defaults; `--build-check` additionally builds each scheme from its
/// default config against a small fault-free cache (the CI smoke that
/// keeps the registry and the constructors in sync).
fn cmd_schemes(args: &Args) -> Result<(), ArgError> {
    let registry = default_registry();
    let io_err = |e: killi_bench::schemes::BuildError| ArgError::Io {
        message: e.to_string(),
    };
    let mut t = Table::new(vec!["scheme", "default label", "description"]);
    for d in registry.descriptors() {
        let label = registry.label(&SchemeConfig::new(d.name)).map_err(io_err)?;
        t.row(vec![d.name.to_string(), label, d.doc.to_string()]);
    }
    println!(
        "registered protection schemes (use --scheme NAME or \
         NAME:key=value,key=value):\n{}",
        t.render()
    );
    print_parameters(registry);
    if args.has("build-check") {
        let geometry = CacheGeometry {
            size_bytes: 64 * 1024,
            ways: 16,
            line_bytes: 64,
        };
        let ctx = BuildCtx::new(Arc::new(FaultMap::fault_free(geometry.lines())), geometry);
        for d in registry.descriptors() {
            build_scheme(&SchemeConfig::new(d.name), &ctx).map_err(|e| ArgError::Io {
                message: format!("{}: {e}", d.name),
            })?;
            // Every scheme must also round-trip through the service's
            // job-payload path, so `killi serve` can run whatever the
            // registry can build.
            let payload = format!(
                "{{\"root_seed\":1,\"replications\":1,\"vdds\":[0.65,0.625],\
                 \"schemes\":[\"{}\"],\"workloads\":[\"fft\"],\"ops_per_cu\":100}}",
                d.name
            );
            killi_serve::parse_job_spec(payload.as_bytes()).map_err(|e| ArgError::Io {
                message: format!("{}: not submittable as a service job: {e}", d.name),
            })?;
        }
        println!(
            "build check: all {} registered schemes build from their defaults \
             and validate as service job payloads",
            registry.descriptors().len()
        );
    }
    Ok(())
}

fn cmd_simulate(args: &Args) -> Result<(), ArgError> {
    let workload: Workload = args.flag_enum("workload", "xsbench")?;
    let scheme = flag_config(args, "scheme", "killi", default_registry())?;
    let vdd = flag_vdd(args, 0.625)?;
    let ops = positive(args, "ops", 100_000)?;
    let seed = args.flag_u64("seed", 42)?;

    // A one-replicate sweep at one voltage: its cell is replicate 0 of
    // any `killi sweep` at this voltage and seed on a 2 MiB L2.
    let config = SweepConfig {
        vdds: vec![vdd],
        schemes: vec![scheme],
        fault_model: flag_config(args, "fault-model", STUCK_AT, default_fault_registry())?,
        workloads: vec![workload],
        ..SweepConfig::paper(ops, seed, 1)
    };
    config.validate().map_err(|e| io_msg(e.to_string()))?;
    let report = run_sweep(&config);
    let cell = report.cells.last().expect("the scheme's cell");
    let value = |name: &str| cell.metric(name).mean();
    println!(
        "{} / {} at {vdd} x VDD ({} ops/CU, seed {seed}):",
        cell.workload, cell.scheme, ops
    );
    println!(
        "  cycles            {:>12}  ({:.4}x the fault-free baseline)",
        value("cycles"),
        value("norm_time")
    );
    println!("  L2 MPKI           {:>12.2}", value("mpki"));
    println!("  error misses      {:>12}", value("l2_error_misses"));
    println!("  corrections       {:>12}", value("corrections"));
    println!("  disabled lines    {:>12}", value("disabled_lines"));
    println!("  silent corruption {:>12}", value("sdc_events"));
    Ok(())
}

fn cmd_record(args: &Args) -> Result<(), ArgError> {
    let workload: Workload = args.flag_enum("workload", "fft")?;
    let ops: usize = args.get_num("ops", 100_000)?;
    let seed = args.flag_u64("seed", 42)?;
    let out = args.require("out", "record")?;
    let trace = workload.trace(&TraceParams::paper(ops, seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&out)?);
    killi_sim::tracefile::save(&trace, &mut file)?;
    use std::io::Write as _;
    file.flush()?;
    let bytes = std::fs::metadata(&out)?.len();
    println!(
        "recorded {} ({} ops/CU x 8 CUs, seed {seed}) to {out} ({bytes} bytes)",
        workload.name(),
        ops
    );
    Ok(())
}

fn cmd_replay(args: &Args) -> Result<(), ArgError> {
    let input = args.require("in", "replay")?;
    let scheme = flag_config(args, "scheme", "killi", default_registry())?;
    let vdd = flag_vdd(args, 0.625)?;
    let seed = args.flag_u64("seed", 42)?;

    let mut file = std::io::BufReader::new(std::fs::File::open(&input)?);
    let trace = killi_sim::tracefile::load(&mut file)?;
    let config = GpuConfig {
        cus: trace.cus(),
        ..GpuConfig::default()
    };
    let fault_model = flag_config(args, "fault-model", STUCK_AT, default_fault_registry())?;
    let model = build_fault_model(&fault_model).map_err(|e| io_msg(e.to_string()))?;
    let map = Arc::new(model.map(config.l2.lines(), NormVdd(vdd), FreqGhz::PEAK, seed));
    let ctx = BuildCtx::new(Arc::clone(&map), config.l2);
    let protection = build_scheme(&scheme, &ctx).map_err(|e| ArgError::Io {
        message: e.to_string(),
    })?;
    let label = scheme_label(&scheme).map_err(|e| ArgError::Io {
        message: e.to_string(),
    })?;
    let mut sim = GpuSim::new(config, map, protection, seed);
    let stats = sim.run(trace);
    println!("replayed {input} under {label} at {vdd} x VDD:");
    println!("  cycles       {:>12}", stats.cycles);
    println!("  L2 MPKI      {:>12.2}", stats.mpki());
    println!("  error misses {:>12}", stats.l2_error_misses);
    println!("  corrections  {:>12}", stats.corrections);
    println!("  SDC events   {:>12}", stats.sdc_events);
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), ArgError> {
    use killi_workloads::analysis::TraceProfile;
    let input = args.get_or("in", "");
    let profile = if input.is_empty() {
        let workload: Workload = args.flag_enum("workload", "fft")?;
        let ops: usize = args.get_num("ops", 100_000)?;
        let seed = args.flag_u64("seed", 42)?;
        println!("profile of generated {} ({} ops/CU):", workload.name(), ops);
        TraceProfile::of(&workload.trace(&TraceParams::paper(ops, seed)))
    } else {
        let mut file = std::io::BufReader::new(std::fs::File::open(&input)?);
        println!("profile of {input}:");
        TraceProfile::of(&killi_sim::tracefile::load(&mut file)?)
    };
    println!("  CUs                 {:>12}", profile.cus);
    println!("  operations          {:>12}", profile.ops);
    println!("  instructions        {:>12}", profile.instructions);
    println!(
        "  loads / stores      {:>6} / {}",
        profile.loads, profile.stores
    );
    println!(
        "  footprint           {:>9.2} MiB ({} lines)",
        profile.footprint_bytes as f64 / 1024.0 / 1024.0,
        profile.footprint_lines
    );
    println!("  mean reuse          {:>12.2}", profile.mean_reuse);
    println!(
        "  write share         {:>11.1}%",
        profile.write_share * 100.0
    );
    println!("  compute per access  {:>12.2}", profile.compute_per_access);
    Ok(())
}

fn cmd_sweep(args: &Args) -> Result<(), ArgError> {
    let replications: usize = args.get_num("replications", 8)?;
    let ops: usize = args.get_num("ops", 10_000)?;
    let seed = args.flag_u64("seed", 42)?;
    let threads: usize = args
        .get_num(
            "threads",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )?
        .max(1);
    let l2_kb: u64 = args.get_num("l2kb", 512)?;
    let l2_bytes = CacheGeometry::kib_bytes(l2_kb).ok_or_else(|| {
        let most = format!("a size of at most {} KiB", usize::MAX / 1024);
        ArgError::invalid("l2kb", &l2_kb.to_string(), most)
    })?;
    let out = args.get_or("out", "results/sweep.json");
    let trace_out = args.get_or("trace", "");
    let vdds = args.flag_f64_list("vdds", "0.65,0.625,0.6")?;
    let workloads = args.flag_list("workloads", "xsbench,hacc", |s| {
        s.parse::<Workload>()
            .map_err(|e| ArgError::invalid("workloads", s, e.to_string()))
    })?;
    let schemes = parse_schemes(args)?;

    let gpu = GpuConfig {
        l2: CacheGeometry {
            size_bytes: l2_bytes,
            ways: 16,
            line_bytes: 64,
        },
        ..GpuConfig::default()
    };
    let config = SweepConfig {
        root_seed: seed,
        replications,
        vdds,
        schemes,
        fault_model: flag_config(args, "fault-model", STUCK_AT, default_fault_registry())?,
        workloads,
        ops_per_cu: ops,
        gpu,
        threads,
        progress_every: args.get_num("progress", 10)?,
        trace_capacity: if trace_out.is_empty() {
            None
        } else {
            Some(args.get_num("trace-capacity", 4096)?)
        },
    };
    // Catch unknown names, bad params, and geometry mismatches before the
    // fan-out phase spins up.
    config.validate().map_err(|e| ArgError::Io {
        message: e.to_string(),
    })?;
    eprintln!(
        "sweep: {} simulations ({} replications x {} vdds x {} schemes x {} workloads \
         + baselines) on {} threads",
        config.job_count(),
        config.replications,
        config.vdds.len(),
        config.schemes.len(),
        config.workloads.len(),
        config.threads,
    );
    let report = run_sweep(&config);
    println!(
        "Monte-Carlo sweep (root seed {seed}, {replications} replications, \
         {ops} ops/CU, {l2_kb} KiB L2) — mean over replicates:\n{}",
        report.summary_table().render()
    );
    println!("wall time: {:.1}s on {} threads", report.wall_secs, threads);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&out, report.to_json())?;
    println!("wrote {out}");
    if let Some(trace) = &report.trace {
        std::fs::write(&trace_out, trace)?;
        println!("wrote {trace_out}");
    }
    Ok(())
}

/// `killi vmin`: fleet-scale minimum-voltage campaign. Bins every die
/// of a seed-derived fleet at its per-scheme Vmin over the voltage
/// grid, optionally streaming the fleet through a `killi-diestore/v1`
/// file, and writes the byte-deterministic `killi-vmin/v1` report.
fn cmd_vmin(args: &Args) -> Result<(), ArgError> {
    if args.has("check") {
        let path = args.require("check", "vmin --check")?;
        let text = std::fs::read_to_string(&path)?;
        killi_vmin::check_report(&text).map_err(|message| ArgError::Io {
            message: format!("{path}: {message}"),
        })?;
        println!("{path}: OK (killi-vmin/v1)");
        return Ok(());
    }
    let dies: usize = args.get_num("dies", 100)?;
    let lines: usize = args.get_num("lines", 4096)?;
    let target = args.flag_f64("target", 0.99)?;
    let seed = args.flag_u64("seed", 42)?;
    let threads: usize = args
        .get_num(
            "threads",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        )?
        .max(1);
    let default_grid = DEFAULT_GRID
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let vdds = args.flag_f64_list("vdds", &default_grid)?;
    // `--schemes all` bins every registered scheme at defaults, unless
    // --scheme-file names the schemes.
    let all = args.get_or("schemes", "killi") == "all" && args.get_or("scheme-file", "").is_empty();
    let schemes = if all {
        default_registry()
            .descriptors()
            .iter()
            .map(|d| SchemeConfig::new(d.name))
            .collect()
    } else {
        parse_schemes(args)?
    };
    let store = args.get_or("store", "");
    let out = args.get_or("out", "results/VMIN.json");

    let config = VminConfig {
        root_seed: seed,
        dies,
        lines,
        target,
        vdds,
        schemes,
        fault_model: flag_config(args, "fault-model", STUCK_AT, default_fault_registry())?,
        threads,
        progress_every: args.get_num("progress", 0)?,
        store: (!store.is_empty()).then(|| std::path::PathBuf::from(&store)),
        search: SearchMode::Auto,
    };
    let validated = config.validated().map_err(|e| ArgError::Io {
        message: e.to_string(),
    })?;
    let c = validated.config();
    eprintln!(
        "vmin: {} dies x {} schemes over {} grid points ({} lines/die, target {:.2}%) \
         on {} threads",
        c.dies,
        c.schemes.len(),
        c.vdds.len(),
        c.lines,
        c.target * 100.0,
        c.threads,
    );
    let result = run_campaign(&validated).map_err(|e| ArgError::Io {
        message: e.to_string(),
    })?;
    let report = &result.report;

    let fmt_vdd = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.3}"));
    let mut t = Table::new(vec![
        "scheme",
        "p50 vmin",
        "p99 vmin",
        "yield@min vdd",
        "failed",
    ]);
    for bin in &report.schemes {
        let p50 = bin.quantile_idx(0.50).map(|g| report.vdds[g]);
        let p99 = bin.quantile_idx(0.99).map(|g| report.vdds[g]);
        let yield_at_bottom = bin.hist[0] as f64 / report.dies as f64;
        t.row(vec![
            bin.scheme.clone(),
            fmt_vdd(p50),
            fmt_vdd(p99),
            format!("{:.1}%", yield_at_bottom * 100.0),
            bin.failed.to_string(),
        ]);
    }
    println!(
        "Vmin campaign (root seed {seed}, {dies} dies, fault model {}, {} search):\n{}",
        report.fault_model,
        if report.nested {
            "bisection"
        } else {
            "linear-fallback"
        },
        t.render()
    );
    let m = &result.metrics;
    use killi_obs::VminCounter;
    println!(
        "search: {} probes across {} bisections + {} linear scans; store: {} dies read, \
         {} bytes written",
        m.get(VminCounter::VoltageProbes),
        m.get(VminCounter::BinarySearches),
        m.get(VminCounter::LinearScans),
        m.get(VminCounter::StoreDiesRead),
        m.get(VminCounter::StoreBytesWritten),
    );
    if let Some(dir) = std::path::Path::new(&out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&out, report.to_json())?;
    println!("wrote {out}");
    Ok(())
}

/// DFH state names in hardware-encoding order, for `killi stats` output.
const DFH_NAMES: [&str; 4] = ["stable0", "unknown", "stable1", "disabled"];

fn cmd_stats(args: &Args) -> Result<(), ArgError> {
    let input = args.require("in", "stats")?;
    let text = std::fs::read_to_string(&input)?;
    let root = parse_json(&text).map_err(|e| ArgError::Io {
        message: format!("{input}: {e}"),
    })?;
    // Accept both a single report and the json_array wrapper.
    let reports: Vec<&JsonValue> = match root.as_array() {
        Some(items) => items.iter().collect(),
        None => vec![&root],
    };

    // Per-scheme aggregation across every cell of every report.
    let mut order: Vec<String> = Vec::new();
    let mut totals: std::collections::HashMap<String, [u64; 4]> = std::collections::HashMap::new();
    let mut matrices: std::collections::HashMap<String, [[u64; 4]; 4]> =
        std::collections::HashMap::new();
    for report in &reports {
        let schema = report.get("schema").and_then(|v| v.as_str()).unwrap_or("");
        if schema != "killi-sweep/v3" {
            return Err(ArgError::Io {
                message: format!(
                    "{input}: schema '{schema}' is not killi-sweep/v3 (re-run the sweep \
                     with this version to get the per-cell obs block)"
                ),
            });
        }
        let cells = report
            .get("cells")
            .and_then(|v| v.as_array())
            .ok_or_else(|| ArgError::Io {
                message: format!("{input}: report has no cells array"),
            })?;
        for cell in cells {
            let scheme = cell
                .get("scheme")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_string();
            let obs = match cell.get("obs") {
                Some(o) => o,
                None => continue,
            };
            let counter = |name: &str| {
                obs.get("counters")
                    .and_then(|c| c.get(name))
                    .and_then(|v| v.as_u64())
                    .unwrap_or(0)
            };
            if !totals.contains_key(&scheme) {
                order.push(scheme.clone());
            }
            let t = totals.entry(scheme.clone()).or_default();
            t[0] += counter("dfh_transitions");
            t[1] += counter("error_induced_misses");
            t[2] += counter("ecc_induced_misses");
            t[3] += counter("corrections");
            if let Some(rows) = obs.get("dfh_transitions").and_then(|v| v.as_array()) {
                let m = matrices.entry(scheme).or_default();
                for (i, row) in rows.iter().take(4).enumerate() {
                    if let Some(cols) = row.as_array() {
                        for (j, v) in cols.iter().take(4).enumerate() {
                            m[i][j] += v.as_u64().unwrap_or(0);
                        }
                    }
                }
            }
        }
    }

    println!(
        "observability digest of {input} ({} report(s)):",
        reports.len()
    );
    let mut t = Table::new(vec![
        "scheme",
        "dfh transitions",
        "error misses",
        "ecc-induced misses",
        "corrections",
    ]);
    for scheme in &order {
        let v = totals[scheme];
        t.row(vec![
            scheme.clone(),
            v[0].to_string(),
            v[1].to_string(),
            v[2].to_string(),
            v[3].to_string(),
        ]);
    }
    println!("{}", t.render());

    let mut any = false;
    for scheme in &order {
        let Some(m) = matrices.get(scheme) else {
            continue;
        };
        let nonzero: Vec<String> = (0..4)
            .flat_map(|i| (0..4).map(move |j| (i, j)))
            .filter(|&(i, j)| m[i][j] > 0)
            .map(|(i, j)| format!("{} -> {}: {}", DFH_NAMES[i], DFH_NAMES[j], m[i][j]))
            .collect();
        if !nonzero.is_empty() {
            any = true;
            println!("{scheme} DFH transitions:");
            for line in nonzero {
                println!("  {line}");
            }
        }
    }
    if !any {
        println!("(no DFH transitions recorded — schemes without DFH bits, or idle runs)");
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), ArgError> {
    if args.has("check") {
        return check_trace(&args.require("check", "trace --check")?);
    }
    let workload: Workload = args.flag_enum("workload", "fft")?;
    let scheme = flag_config(args, "scheme", "killi", default_registry())?;
    let vdd = flag_vdd(args, 0.625)?;
    let ops: usize = args.get_num("ops", 20_000)?;
    let seed = args.flag_u64("seed", 42)?;
    let capacity: usize = args.get_num("capacity", 4096)?;
    let out = args.get_or("out", "");

    let gpu = GpuConfig::default();
    check_builds(std::slice::from_ref(&scheme), gpu.l2).map_err(|e| io_msg(e.to_string()))?;
    let fault_model = flag_config(args, "fault-model", STUCK_AT, default_fault_registry())?;
    let map = if scheme.name == BASELINE {
        Arc::new(FaultMap::fault_free(gpu.l2.lines()))
    } else {
        let model = build_fault_model(&fault_model).map_err(|e| io_msg(e.to_string()))?;
        Arc::new(model.map(gpu.l2.lines(), NormVdd(vdd), FreqGhz::PEAK, seed))
    };
    let mut context = vec![("vdd", format!("{vdd}"))];
    // Mirror the sweep's gating: the default model stays silent so traces
    // keep their pre-registry bytes; any other model stamps its label.
    let fm_label = fault_model_label(&fault_model).map_err(|e| io_msg(e.to_string()))?;
    if fm_label != STUCK_AT {
        context.push(("fault_model", fm_label));
    }
    let obs = ObsConfig {
        trace_capacity: Some(capacity),
        context,
    };
    let trace = workload.trace(&trace_params(&gpu, ops, seed));
    let r = run_cell(workload, &scheme, &gpu, trace, &map, seed, &obs);
    let trace = r.trace.expect("tracing was requested");
    if out.is_empty() {
        print!("{trace}");
    } else {
        std::fs::write(&out, &trace)?;
        eprintln!(
            "traced {}/{} at {vdd} x VDD: {} line(s) to {out}",
            r.workload,
            r.scheme,
            trace.lines().count()
        );
    }
    Ok(())
}

/// Validates a `killi-obs/v1` JSON-lines trace: every line parses, the
/// header carries the schema, and events carry `seq`/`type`.
fn check_trace(path: &str) -> Result<(), ArgError> {
    let text = std::fs::read_to_string(path)?;
    let bad = |line_no: usize, message: String| ArgError::Io {
        message: format!("{path}:{line_no}: {message}"),
    };
    let mut headers = 0usize;
    let mut events = 0usize;
    let mut expect_header = true;
    for (i, line) in text.lines().enumerate() {
        let v = parse_json(line).map_err(|e| bad(i + 1, e.to_string()))?;
        if expect_header || v.get("schema").is_some() {
            let schema = v.get("schema").and_then(|s| s.as_str()).unwrap_or("");
            if schema != "killi-obs/v1" {
                return Err(bad(i + 1, format!("bad or missing schema '{schema}'")));
            }
            headers += 1;
            expect_header = false;
            continue;
        }
        if v.get("seq").and_then(|s| s.as_u64()).is_none() {
            return Err(bad(i + 1, "event line without a numeric 'seq'".into()));
        }
        if v.get("type").and_then(|s| s.as_str()).is_none() {
            return Err(bad(i + 1, "event line without a 'type'".into()));
        }
        events += 1;
    }
    if headers == 0 {
        return Err(ArgError::Io {
            message: format!("{path}: empty trace (no killi-obs/v1 header)"),
        });
    }
    println!("{path}: OK ({headers} header(s), {events} event(s))");
    Ok(())
}

/// Default service address shared by `serve` (bind port) and the client
/// subcommands (base URL).
const DEFAULT_PORT: u16 = 7171;

fn io_msg(message: impl Into<String>) -> ArgError {
    ArgError::Io {
        message: message.into(),
    }
}

/// `killi serve`: the sweep engine as an HTTP daemon. The first stdout
/// line is `listening on http://HOST:PORT` (machine-scrapable — CI uses
/// it to recover an ephemeral `--port 0`); SIGTERM/ctrl-c drains.
fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    let config = ServerConfig {
        host: args.get_or("host", "127.0.0.1"),
        port: args.get_num("port", DEFAULT_PORT)?,
        workers: args.get_num::<usize>("workers", 2)?.max(1),
        queue_depth: args.get_num::<usize>("queue-depth", 32)?.max(1),
        cache_cap: args.get_num::<usize>("cache-cap", 64)?.max(1),
        ..ServerConfig::default()
    };
    killi_serve::signal::install();
    let workers = config.workers;
    let server = Server::bind(config)?;
    println!("listening on http://{}", server.local_addr());
    // The port announcement must reach a piped stdout before the server
    // starts serving, or CI would poll a file that never fills.
    use std::io::Write as _;
    std::io::stdout().flush()?;
    eprintln!(
        "{workers} worker(s); POST /v1/jobs, GET /v1/jobs/ID[/report], \
         /v1/metrics, /v1/healthz; SIGTERM or ctrl-c drains and exits"
    );
    server.run()?;
    eprintln!("drained; all queued jobs finished");
    Ok(())
}

/// Shared `--url` handling for the client subcommands.
fn service_client(args: &Args) -> Result<Client, ArgError> {
    let url = args.get_or("url", &format!("http://127.0.0.1:{DEFAULT_PORT}"));
    Client::new(&url).map_err(io_msg)
}

/// Polls `GET /v1/jobs/:id` until the job settles; returns the final
/// state name (`done` or `failed`).
fn wait_for_job(client: &Client, job: &str) -> Result<String, ArgError> {
    loop {
        let resp = client.get(&format!("/v1/jobs/{job}")).map_err(io_msg)?;
        if resp.status != 200 {
            return Err(io_msg(format!(
                "status poll failed: HTTP {} {}",
                resp.status,
                resp.text()
            )));
        }
        let root = parse_json(&resp.text()).map_err(|e| io_msg(e.to_string()))?;
        let state = root
            .get("state")
            .and_then(|v| v.as_str())
            .unwrap_or("?")
            .to_string();
        if state == "done" || state == "failed" {
            return Ok(state);
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// `killi submit`: POST a job spec, print awk-friendly `job:`/`cache:`/
/// `state:` lines; `--wait` blocks until the job settles and fails the
/// process when the job failed.
fn cmd_submit(args: &Args) -> Result<(), ArgError> {
    let client = service_client(args)?;
    let file = args.get_or("file", "");
    let payload = if file.is_empty() || file == "-" {
        use std::io::Read as _;
        let mut buf = Vec::new();
        std::io::stdin().read_to_end(&mut buf)?;
        buf
    } else {
        std::fs::read(&file)?
    };
    let resp = client.post("/v1/jobs", &payload).map_err(io_msg)?;
    if resp.status != 200 && resp.status != 202 {
        return Err(io_msg(format!(
            "submit rejected: HTTP {} {}",
            resp.status,
            resp.text()
        )));
    }
    let root = parse_json(&resp.text()).map_err(|e| io_msg(e.to_string()))?;
    let job = root
        .get("job")
        .and_then(|v| v.as_str())
        .ok_or_else(|| io_msg("submit response has no job id"))?
        .to_string();
    let cached = root
        .get("cached")
        .and_then(|v| v.as_bool())
        .unwrap_or(false);
    let mut state = root
        .get("state")
        .and_then(|v| v.as_str())
        .unwrap_or("?")
        .to_string();
    println!("job: {job}");
    println!("cache: {}", if cached { "hit" } else { "miss" });
    if args.has("wait") {
        state = wait_for_job(&client, &job)?;
    }
    println!("state: {state}");
    if state == "failed" {
        return Err(io_msg(format!("job {job} failed")));
    }
    Ok(())
}

/// `killi status`: one status poll, printed as `job:`/`state:` lines.
fn cmd_status(args: &Args) -> Result<(), ArgError> {
    let client = service_client(args)?;
    let job = args.require("job", "status")?;
    let resp = client.get(&format!("/v1/jobs/{job}")).map_err(io_msg)?;
    if resp.status != 200 {
        return Err(io_msg(format!("HTTP {} {}", resp.status, resp.text())));
    }
    let root = parse_json(&resp.text()).map_err(|e| io_msg(e.to_string()))?;
    println!("job: {job}");
    println!(
        "state: {}",
        root.get("state").and_then(|v| v.as_str()).unwrap_or("?")
    );
    if let Some(error) = root.get("error").and_then(|v| v.as_str()) {
        println!("error: {error}");
    }
    Ok(())
}

/// `killi fetch`: download a finished job's `killi-sweep/v3` report
/// bytes exactly as the server stored them (stdout unless `--out`).
fn cmd_fetch(args: &Args) -> Result<(), ArgError> {
    let client = service_client(args)?;
    let job = args.require("job", "fetch")?;
    if args.has("wait") {
        let state = wait_for_job(&client, &job)?;
        if state == "failed" {
            return Err(io_msg(format!("job {job} failed")));
        }
    }
    let resp = client
        .get(&format!("/v1/jobs/{job}/report"))
        .map_err(io_msg)?;
    if resp.status != 200 {
        return Err(io_msg(format!(
            "fetch failed: HTTP {} {}",
            resp.status,
            resp.text()
        )));
    }
    let out = args.get_or("out", "");
    if out.is_empty() {
        use std::io::Write as _;
        std::io::stdout().write_all(&resp.body)?;
    } else {
        if let Some(dir) = std::path::Path::new(&out).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(&out, &resp.body)?;
        eprintln!("wrote {out} ({} bytes)", resp.body.len());
    }
    Ok(())
}

/// Parses `repro --only` into experiment-table entries, in the order
/// given; without `--only`, the whole table in table order.
fn selected_experiments(args: &Args) -> Result<Vec<&'static Experiment>, ArgError> {
    if !args.has("only") {
        return Ok(EXPERIMENTS.iter().collect());
    }
    args.flag_list("only", "", |id| {
        EXPERIMENTS
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| ArgError::UnknownExperiment {
                id: id.to_string(),
                known: EXPERIMENTS.iter().map(|e| e.id.to_string()).collect(),
            })
    })
}

/// Reads a count flag that must be at least 1.
fn positive(args: &Args, name: &str, default: usize) -> Result<usize, ArgError> {
    let n: usize = args.get_num(name, default)?;
    if n == 0 {
        return Err(ArgError::invalid(name, "0", "a positive number"));
    }
    Ok(n)
}

/// Reads `--vdd` through the rule every sweep grid point follows.
fn flag_vdd(args: &Args, default: f64) -> Result<f64, ArgError> {
    let vdd = args.flag_f64("vdd", default)?;
    validate_vdd(vdd).map_err(|reason| {
        ArgError::invalid(
            "vdd",
            &args.get_or("vdd", ""),
            format!("a normalized VDD: {reason}"),
        )
    })?;
    Ok(vdd)
}

/// `killi repro`: runs the experiment table, printing each text artifact
/// and writing every artifact to `results/` under the current directory.
/// fig4, fig5 and table6 share one run of the Figure 4 sweep.
fn cmd_repro(args: &Args) -> Result<(), ArgError> {
    let experiments = selected_experiments(args)?;
    let ops = positive(args, "ops", 150_000)?;
    let repro = Repro::new(ops, positive(args, "replications", 4)?);
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir).map_err(|e| io_msg(format!("results/: {e}")))?;
    let started = std::time::Instant::now();
    for experiment in experiments {
        eprintln!("running {} ({ops} ops/CU)...", experiment.id);
        for (name, contents) in experiment.run(&repro) {
            if name.ends_with(".txt") {
                println!("{contents}");
            }
            std::fs::write(dir.join(name), &contents)
                .map_err(|e| io_msg(format!("results/{name}: {e}")))?;
        }
    }
    eprintln!("done in {:.1}s", started.elapsed().as_secs_f64());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Args {
        Args::parse(argv.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn only_command_line_errors_are_usage_errors() {
        let flag = dispatch(&parse(&["sweep", "--ratio", "16"])).unwrap_err();
        assert!(flag.is_usage(), "{flag}");
        let value = dispatch(&parse(&["sweep", "--workloads", "nosuch"])).unwrap_err();
        assert!(value.is_usage(), "{value}");
        // A failure while the command runs prints no usage text.
        let run = dispatch(&parse(&["sweep", "--l2kb", "96", "--schemes", "flair"])).unwrap_err();
        assert!(
            matches!(run, ArgError::Io { .. }) && !run.is_usage(),
            "{run}"
        );
    }

    fn spelled(schemes: &[SchemeConfig]) -> Vec<String> {
        schemes.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn schemes_keep_multi_parameter_shorthand_together() {
        // The README's spelling: the killi parameters after the first
        // comma belong to killi, and `dected` opens the second scheme.
        let args = parse(&[
            "sweep",
            "--schemes",
            "killi:ratio=16,ecc_sets=64,ecc_ways=8,dected",
        ]);
        let schemes = parse_schemes(&args).unwrap();
        assert_eq!(
            spelled(&schemes),
            ["killi:ratio=16,ecc_sets=64,ecc_ways=8", "dected"]
        );
    }

    #[test]
    fn an_unset_ratio_is_the_registry_default() {
        let args = parse(&["vmin", "--schemes", "killi-olsc,killi,killi-olsc:ratio=4"]);
        let schemes = parse_schemes(&args).unwrap();
        assert_eq!(
            spelled(&schemes),
            ["killi-olsc", "killi", "killi-olsc:ratio=4"]
        );
        let labels: Vec<String> = schemes.iter().map(|s| scheme_label(s).unwrap()).collect();
        assert_eq!(labels, ["killi-olsc-1:8", "killi-1:64", "killi-olsc-1:4"]);
    }

    #[test]
    fn an_unknown_scheme_names_the_schemes_flag() {
        let args = parse(&["sweep", "--schemes", "killi,frobnicate"]);
        let err = parse_schemes(&args).unwrap_err();
        assert!(
            matches!(&err, ArgError::InvalidValue { flag, value, .. }
                if flag == "schemes" && value == "frobnicate"),
            "{err:?}"
        );
        assert!(
            err.to_string().contains("unknown scheme `frobnicate`"),
            "{err}"
        );
    }

    #[test]
    fn repro_rejects_an_unknown_experiment_naming_every_id() {
        let err = selected_experiments(&parse(&["repro", "--only", "fig4,nosuch"]))
            .expect_err("nosuch is not an experiment");
        let ArgError::UnknownExperiment { id, known } = &err else {
            panic!("{err:?}");
        };
        assert_eq!(id, "nosuch");
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(known, &ids);
        for id in ids {
            assert!(err.to_string().contains(id), "{err}");
        }
    }

    #[test]
    fn repro_selects_the_given_ids_or_the_whole_table() {
        let only = selected_experiments(&parse(&["repro", "--only", "table6,fig1"])).unwrap();
        let ids: Vec<&str> = only.iter().map(|e| e.id).collect();
        assert_eq!(ids, ["table6", "fig1"]);
        let all = selected_experiments(&parse(&["repro"])).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.len());
    }

    #[test]
    fn repro_rejects_malformed_and_zero_counts() {
        for argv in [
            ["repro", "--ops", "abc"],
            ["repro", "--ops", "0"],
            ["repro", "--replications", "-1"],
        ] {
            let flag = argv[1].trim_start_matches("--");
            let err = cmd_repro(&parse(&argv)).expect_err("bad count");
            assert!(
                matches!(&err, ArgError::InvalidValue { flag: f, .. } if f == flag),
                "{err:?}"
            );
        }
    }

    #[test]
    fn single_run_commands_reject_what_a_sweep_rejects_before_simulating() {
        let vdd = "--vdd: 'nan' is not a normalized VDD: NaN outside (0, 1.5]";
        for (argv, message) in [
            (
                &["simulate", "--scheme", "ms-ecc:t=3"][..],
                "cannot build `ms-ecc`",
            ),
            (
                &["simulate", "--scheme", "killi:ratio=0"],
                "cannot build `killi`",
            ),
            (
                &["simulate", "--scheme", "killi:ecc_ways=3"],
                "cannot build `killi`",
            ),
            (
                &["trace", "--scheme", "ms-ecc:t=3"],
                "cannot build `ms-ecc`",
            ),
            (
                &["simulate", "--fault-model", "table:anchors=0.5@-10;0.7@-2"],
                "anchor log10_p must not increase with voltage",
            ),
            (&["simulate", "--vdd", "nan"], vdd),
            (&["faultmap", "--vdd", "nan"], vdd),
            (&["coverage", "--vdd", "nan"], vdd),
            (&["replay", "--in", "missing.ktrc", "--vdd", "nan"], vdd),
            (&["trace", "--vdd", "nan"], vdd),
            (
                &["simulate", "--ops", "0"],
                "--ops: '0' is not a positive number",
            ),
            (
                &["area", "--ratio", "0"],
                "--ratio: '0' is not a positive number",
            ),
            (
                &["faultmap", "--lines", "0"],
                "--lines: '0' is not a positive number",
            ),
            (
                &["area", "--ratio", "16384"],
                "cannot build `killi`: ECC cache smaller than one set",
            ),
            (
                &["sweep", "--l2kb", "18014398509482496"],
                "--l2kb: '18014398509482496' is not a size of at most",
            ),
        ] {
            let err = dispatch(&parse(argv)).expect_err("rejected before any simulation");
            assert!(err.to_string().contains(message), "{argv:?}: {err}");
        }
    }

    #[test]
    fn unknown_flags_are_rejected_before_running() {
        for argv in [
            ["sweep", "--ratio", "16"],
            ["sweep", "--replicatoins", "1"],
            ["simulate", "--vdds", "0.5"],
            ["vmin", "--replications", "4"],
        ] {
            let err = dispatch(&parse(&argv)).expect_err("an unknown flag");
            let prefix = format!("unknown flag {} for '{}'", argv[1], argv[0]);
            assert!(matches!(err, ArgError::UnknownFlag { .. }), "{err:?}");
            assert!(err.to_string().starts_with(&prefix), "{err}");
        }
        // `area --ratio` is the area model's ECC-cache ratio, not a scheme
        // parameter; no other command reads a ratio.
        for (name, flags, _) in COMMANDS {
            let ratio = flags.split_whitespace().any(|f| f == "ratio");
            assert_eq!(ratio, *name == "area", "{name}");
        }
    }

    #[test]
    fn usage_documents_exactly_the_flags_each_command_reads() {
        use std::collections::{BTreeMap, BTreeSet};
        // A block opens with `  killi <command>` and runs over its indented
        // continuation lines; a command may have several blocks.
        let mut documented: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        let mut command = None;
        for line in USAGE.lines() {
            if let Some(rest) = line.strip_prefix("  killi ") {
                command = rest.split_whitespace().next();
            } else if !line.starts_with("   ") {
                command = None;
            }
            if let Some(command) = command {
                let flags = line.split("--").skip(1).filter_map(|piece| {
                    piece
                        .split(|c: char| !c.is_ascii_alphanumeric() && c != '-')
                        .next()
                });
                documented.entry(command).or_default().extend(flags);
            }
        }
        let table: BTreeMap<&str, BTreeSet<&str>> = COMMANDS
            .iter()
            .map(|(name, flags, _)| (*name, flags.split_whitespace().collect()))
            .collect();
        assert_eq!(documented, table);
    }
}
