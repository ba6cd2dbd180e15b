//! The repository benchmark: five workloads that drive the library in
//! one process through the `killi_repro` facade, timed end to end (the
//! untraced run) and broken down layer by layer (the traced run).
//!
//! ```text
//! benchmark run --workload <name> --seed <n> [--seconds 10] [--trace 0|1]
//!               [--threads 2] [--spans FILE.jsonl]
//! benchmark compare <setA/> <setB/> [--bench-json BENCHMARK.json]
//! ```
//!
//! `run` prints one context line (workload, seed, report digest, sample
//! counts) and, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics without `--trace`, the per-layer metrics with `--trace 1`.
//! It exits 1 when any output check failed. `compare` reads two
//! directories of saved `run` outputs and applies the bounds in
//! `BENCHMARK.json`. See `README.md` beside this file.

mod compare;
mod serve;
mod stats;
mod sweep;
mod trace;
mod vmin;

use std::time::Instant;

use stats::{median, Digest};
use trace::Recorder;

/// End-to-end metrics `(name, unit)`: every untraced run prints all of
/// them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("best_op_ms", "ms"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`: every traced run prints all of
/// them, with 0 for a layer the workload never enters.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("fault.die_s", "s"),
    ("fault.map_s", "s"),
    ("fault.faulty_cells", "count"),
    ("workloads.trace_s", "s"),
    ("sim.run_s", "s"),
    ("sim.ops", "count"),
    ("sim.ns_per_op", "ns"),
    ("sim.l2_hit_rate", "fraction"),
    ("protect.build_s", "s"),
    ("protect.overhead_s", "s"),
    ("protect.ns_per_op", "ns"),
    ("core.corrections", "count"),
    ("core.ecc_induced_invalidations", "count"),
    ("core.disabled_lines", "count"),
    ("ecc.secded_decode_ns", "ns"),
    ("ecc.dected_decode_ns", "ns"),
    ("ecc.bch_t_decode_ns", "ns"),
    ("ecc.olsc_decode_ns", "ns"),
    ("bench.sweep1_s", "s"),
    ("bench.engine_self_s", "s"),
    ("bench.json_s", "s"),
    ("bench.speedup_2t", "x"),
    ("vmin.synth_s", "s"),
    ("vmin.record_entries", "count"),
    ("vmin.synth_ns_per_fault", "ns"),
    ("vmin.store_write_s", "s"),
    ("vmin.store_read_s", "s"),
    ("vmin.store_bytes_per_die", "bytes"),
    ("vmin.evaluate_s", "s"),
    ("vmin.voltage_probes", "count"),
    ("vmin.linear_scans", "count"),
    ("vmin.json_s", "s"),
    ("serve.rtt_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.poll_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.job_run_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.cache_hit_ratio", "fraction"),
    ("serve.rejected", "count"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_tail_ms", "ms"),
    ("serve.job_tail_ms", "ms"),
    ("trace.unattributed_pct", "%"),
];

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 5] = [
    "sweep-paper",
    "sweep-codecs",
    "vmin-fleet",
    "vmin-transient",
    "serve-mixed",
];

/// Operations an untraced loop always completes, however long they take
/// (a traced loop completes at least one round).
const MIN_OPS: usize = 3;

/// Options of one `run` invocation.
pub struct RunOpts {
    /// Seed every input derives from.
    pub seed: u64,
    /// How long the measuring loop runs.
    pub seconds: f64,
    /// Engine threads / server workers / client threads of the untraced
    /// run.
    pub threads: usize,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

impl RunOpts {
    /// Whether a loop that started at `start` and finished `done`
    /// operations should start another.
    pub fn keep_going(&self, start: Instant, done: usize) -> bool {
        let min = if self.trace { 1 } else { MIN_OPS };
        done < min || start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Metric values by name, in emission order.
pub type Metrics = Vec<(&'static str, f64)>;

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations started: sweeps, campaigns, submissions or traced
    /// rounds.
    pub attempted: u64,
    /// Operations whose output check failed (or that errored).
    pub failed: u64,
    /// Why each failed operation failed.
    pub errors: Vec<String>,
    /// FNV-1a-64 over the report bytes the run checked.
    pub digest: Digest,
    /// Metric values by name.
    pub metrics: Metrics,
    /// Sample counts and other context for the first output line.
    pub detail: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records the distribution of a run's operation times (ms) in the
    /// context line.
    pub fn samples(&mut self, what: &'static str, ms: &[f64]) {
        let (q1, m, q3) = stats::quartiles(ms);
        let min = stats::min(ms);
        self.detail.push((
            what,
            format!(
                "{{\"n\": {}, \"min\": {min:.3}, \"q1\": {q1:.3}, \"median\": {m:.3}, \"q3\": {q3:.3}}}",
                ms.len()
            ),
        ));
    }

    /// Checks one repetition's report: the first one must pass `check`
    /// and goes into the digest; every later one must equal it byte for
    /// byte.
    pub fn check_repetition(
        &mut self,
        first: &mut Option<String>,
        report: String,
        check: impl FnOnce(&str) -> Result<(), String>,
    ) {
        match first {
            Some(f) if *f == report => {}
            Some(_) => self.fail("a repetition's report differs from the first".to_string()),
            None => {
                if let Err(e) = check(&report) {
                    self.fail(e);
                }
                self.digest.update(report.as_bytes());
                *first = Some(report);
            }
        }
    }
}

/// The untraced loop of the engine workloads. Each operation first sets
/// up (validates its config, timed as set-up) and then runs it to a
/// report (timed as the operation); the first report must pass `check`
/// and every later one must equal it. Records the end-to-end metrics,
/// with `units` of work (simulations, dies) per operation.
///
/// The operation time reported is the run's fastest. On a shared host
/// the same work can take up to twice as long while other tenants are
/// busy, and the fastest operation of a run moved less between sets of
/// runs than the median operation (README, "Noise and bounds").
pub fn measure_ops<C>(
    opts: &RunOpts,
    out: &mut Outcome,
    units: usize,
    mut setup: impl FnMut() -> Result<C, String>,
    mut op: impl FnMut(&C) -> Result<String, String>,
    check: impl Fn(&str) -> Result<(), String>,
) {
    let start = Instant::now();
    let (mut setup_s, mut op_ms) = (Vec::new(), Vec::new());
    let mut first = None;
    while opts.keep_going(start, op_ms.len()) {
        out.attempted += 1;
        let t = Instant::now();
        let config = setup();
        setup_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let report = config.and_then(|c| op(&c));
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match report {
            Ok(report) => out.check_repetition(&mut first, report, &check),
            Err(e) => out.fail(e),
        }
    }
    let best_ms = stats::min(&op_ms);
    out.metric("setup_s", median(&setup_s));
    out.metric("best_op_ms", best_ms);
    out.metric("work_per_s", units as f64 * 1e3 / best_ms);
    out.samples("op_ms", &op_ms);
}

/// The traced loop of the engine workloads: runs `round` until
/// `--seconds` pass (at least once). Each round returns its per-layer
/// metrics and its report, checked like [`measure_ops`] checks
/// repetitions; the metrics are the per-metric medians over rounds.
pub fn measure_rounds(
    opts: &RunOpts,
    out: &mut Outcome,
    mut round: impl FnMut() -> Result<(Metrics, String), String>,
    check: impl Fn(&str) -> Result<(), String>,
) {
    let start = Instant::now();
    let mut rounds = Vec::new();
    let mut first = None;
    while opts.keep_going(start, rounds.len()) {
        out.attempted += 1;
        match round() {
            Ok((metrics, report)) => {
                rounds.push(metrics);
                out.check_repetition(&mut first, report, &check);
            }
            Err(e) => {
                out.fail(e);
                break;
            }
        }
    }
    out.metrics = median_of_rounds(&rounds);
    out.detail.push(("rounds", rounds.len().to_string()));
}

/// Folds per-round metric lists (same names, same order) into their
/// per-metric medians.
pub fn median_of_rounds(rounds: &[Metrics]) -> Metrics {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, &(name, _))| {
            let values: Vec<f64> = rounds.iter().map(|r| r[i].1).collect();
            (name, median(&values))
        })
        .collect()
}

const USAGE: &str = "usage:
  benchmark run --workload <name> --seed <n> [--seconds 10] [--trace 0|1]
                [--threads 2] [--spans FILE.jsonl]
  benchmark compare <setA/> <setB/> [--bench-json BENCHMARK.json]
workloads: sweep-paper, sweep-codecs, vmin-fleet, vmin-transient, serve-mixed";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

/// Parsed `run` flags.
struct RunArgs {
    workload: String,
    opts: RunOpts,
    spans: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = None;
    let mut opts = RunOpts {
        seed: 0,
        seconds: 10.0,
        threads: 2,
        trace: false,
    };
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = |what: &str| format!("{flag} {value}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an integer"))?),
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err(bad("outside (0, 600]"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--threads" => {
                opts.threads = value.parse().map_err(|_| bad("not an integer"))?;
                if opts.threads == 0 {
                    return Err(bad("must be at least 1"));
                }
            }
            "--spans" => spans = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    opts.seed = seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?;
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    Ok(RunArgs {
        workload,
        opts,
        spans,
    })
}

fn run_cmd(args: &[String]) -> Result<i32, String> {
    let RunArgs {
        workload,
        opts,
        spans,
    } = parse_run_args(args)?;
    let rec = Recorder::new(format!("{workload}/{}", opts.seed));
    let mut out = match workload.as_str() {
        "sweep-paper" => sweep::run(&sweep::PAPER, &opts, &rec),
        "sweep-codecs" => sweep::run(&sweep::CODECS, &opts, &rec),
        "vmin-fleet" => vmin::run(&vmin::FLEET, &opts, &rec),
        "vmin-transient" => vmin::run(&vmin::TRANSIENT, &opts, &rec),
        "serve-mixed" => serve::run(&opts, &rec),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let table: &[(&str, &str)] = if opts.trace {
        out.metric(
            "trace.unattributed_pct",
            trace::unattributed_pct(&rec.spans()),
        );
        &PER_LAYER
    } else {
        out.metric("peak_rss_mb", stats::peak_rss_mib().unwrap_or(f64::NAN));
        &END_TO_END
    };
    if let Some(path) = spans {
        let mut file = std::io::BufWriter::new(
            std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?,
        );
        rec.write_jsonl(&mut file)
            .map_err(|e| format!("{path}: {e}"))?;
    }

    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match out.metrics.iter().find(|(n, _)| *n == name) {
            Some(&(_, v)) => v,
            // A workload that never enters a layer leaves its metrics unset.
            None if opts.trace => 0.0,
            None => f64::NAN,
        };
        if !value.is_finite() {
            out.errors
                .push(format!("metric {name} is missing or not finite"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    if let Some((name, _)) = out
        .metrics
        .iter()
        .find(|(n, _)| !table.iter().any(|(t, _)| t == n))
    {
        out.errors
            .push(format!("metric {name} is not in the table"));
    }
    if out.attempted == 0 {
        out.errors.push("no operation ran".to_string());
    }
    for e in &out.errors {
        eprintln!("benchmark: check failed: {e}");
    }
    let correct = out.errors.is_empty() && out.failed == 0;

    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"threads\": {}, \"digest\": \"{}\", \"detail\": {{{}}}}}",
        opts.seed,
        u8::from(opts.trace),
        opts.seconds,
        opts.threads,
        out.digest.hex(),
        detail.join(", ")
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi_repro::obs::{parse_json, JsonValue};

    /// `BENCHMARK.json`, found by walking up from this package.
    fn benchmark_json() -> JsonValue {
        let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
        loop {
            let candidate = dir.join("BENCHMARK.json");
            if candidate.exists() {
                let text = std::fs::read_to_string(candidate).unwrap();
                return parse_json(&text).unwrap();
            }
            assert!(dir.pop(), "BENCHMARK.json not found above this package");
        }
    }

    fn names_units(v: &JsonValue, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let v = benchmark_json();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_units(&v, "end_to_end"), own(&END_TO_END));
        assert_eq!(names_units(&v, "per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = v
            .get("workloads")
            .and_then(|a| a.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str()).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn run_flags_are_checked() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let ok = parse_run_args(&args("--workload vmin-fleet --seed 7 --trace 1")).unwrap();
        assert_eq!((ok.opts.seed, ok.opts.trace), (7, true));
        for bad in [
            "--workload vmin-fleet",
            "--seed 7",
            "--workload nope --seed 7",
            "--workload vmin-fleet --seed 7 --trace 2",
            "--workload vmin-fleet --seed 7 --threads 0",
            "--workload vmin-fleet --seed 7 --bogus 1",
            "--workload vmin-fleet --seed",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn rounds_fold_to_per_metric_medians() {
        let rounds = vec![
            vec![("a", 1.0), ("b", 30.0)],
            vec![("a", 3.0), ("b", 10.0)],
            vec![("a", 2.0), ("b", 20.0)],
        ];
        assert_eq!(median_of_rounds(&rounds), vec![("a", 2.0), ("b", 20.0)]);
        assert!(median_of_rounds(&[]).is_empty());
    }
}
