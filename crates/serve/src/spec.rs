//! The job payload: a sweep or Vmin-campaign config as JSON, parsed
//! with the in-repo `killi-obs` parser and validated/canonicalized
//! through [`SweepConfig::validated`] / `VminConfig::validated` before
//! it ever reaches the queue.
//!
//! The optional top-level `mode` key selects the job kind: absent or
//! `"sweep"` is a Monte-Carlo sweep, `"vmin"` a fleet Vmin campaign.
//!
//! Sweep fields: `root_seed`, `replications`, `vdds`, `schemes`,
//! `workloads`, `ops_per_cu` (required). Schemes take either JSON
//! spelling of a registry config — objects (`{"name": "killi", "params":
//! {...}}`) or shorthand strings (`"killi:ratio=16"`), parsed by
//! `Config::from_json_value` as every other JSON input is. The optional
//! `fault_model` takes the same two spellings against the fault-model
//! registry (`"clustered:rows=4"` or `{"name": "clustered", ...}`) and
//! defaults to the paper's `stuck-at`; different models canonicalize to
//! different cache keys. A `table` model takes its CDF inline
//! (`anchors=`); its `file` parameter is a 400 in a job. The optional
//! `gpu` object overrides the default hardware point with the
//! sweep-facing knobs (`cus`, `l2_kb`, `l2_ways`, `line_bytes`,
//! `l2_banks`, `mem_latency`).
//!
//! Vmin fields: `root_seed`, `dies`, `lines`, `vdds`, `schemes`
//! (required), plus optional `target` (default 0.99) and `fault_model`.
//! Campaigns always run storeless on the server: the die store is a
//! local-workflow artifact, and the report is byte-identical either
//! way, so a job never names filesystem paths.
//!
//! In both kinds `threads` tunes execution only — it is excluded from
//! the canonical JSON, so it never splits the result cache — and is
//! capped at the server's cores. The two canonical schemas differ
//! (`killi-sweep-config/v1` vs `killi-vmin-config/v1`), so a sweep and
//! a campaign can never collide on one job id.
//!
//! Unknown keys are errors, not warnings: a typo like `"replciations"`
//! must fail the submission instead of silently running a different
//! sweep.

use killi_bench::fault_models::FaultModelConfig;
use killi_bench::schemes::SchemeConfig;
use killi_bench::sweep::{run_sweep_validated, SweepConfig, ValidatedSweepConfig};
use killi_fault::rng::splitmix64;
use killi_obs::serve::JobId;
use killi_obs::{parse_json, JsonValue, ParamValue};
use killi_sim::cache::CacheGeometry;
use killi_sim::gpu::GpuConfig;
use killi_vmin::{run_campaign, SearchMode, ValidatedVminConfig, VminConfig};
use killi_workloads::Workload;

/// Why a job payload was rejected (always a 400 on the wire).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError {
    /// Human-readable reason, surfaced in the error body.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for SpecError {}

fn spec_err(message: impl Into<String>) -> SpecError {
    SpecError {
        message: message.into(),
    }
}

/// Top-level keys a sweep payload may carry.
const SWEEP_KEYS: [&str; 10] = [
    "mode",
    "root_seed",
    "replications",
    "vdds",
    "schemes",
    "fault_model",
    "workloads",
    "ops_per_cu",
    "gpu",
    "threads",
];

/// Top-level keys a vmin payload may carry.
const VMIN_KEYS: [&str; 9] = [
    "mode",
    "root_seed",
    "dies",
    "lines",
    "target",
    "vdds",
    "schemes",
    "fault_model",
    "threads",
];

/// Keys of the `gpu` override object.
const GPU_KEYS: [&str; 6] = [
    "cus",
    "l2_kb",
    "l2_ways",
    "line_bytes",
    "l2_banks",
    "mem_latency",
];

fn require_u64(v: &JsonValue, key: &str) -> Result<u64, SpecError> {
    v.get(key)
        .ok_or_else(|| spec_err(format!("missing required field `{key}`")))?
        .as_u64()
        .ok_or_else(|| spec_err(format!("`{key}` must be a non-negative integer")))
}

fn check_keys(
    entries: &[(String, JsonValue)],
    allowed: &[&str],
    ctx: &str,
) -> Result<(), SpecError> {
    for (key, _) in entries {
        if !allowed.contains(&key.as_str()) {
            return Err(spec_err(format!("unknown {ctx} field `{key}`")));
        }
    }
    Ok(())
}

/// The optional `gpu.<key>` as a `T`: a non-negative integer in `T`'s
/// range, or a typed error naming the field.
fn gpu_field<T: TryFrom<u64>>(v: &JsonValue, key: &str) -> Result<Option<T>, SpecError> {
    let Some(value) = v.get(key) else {
        return Ok(None);
    };
    let n = value
        .as_u64()
        .ok_or_else(|| spec_err(format!("`gpu.{key}` must be a non-negative integer")))?;
    T::try_from(n)
        .map(Some)
        .map_err(|_| spec_err(format!("`gpu.{key}` is out of range: {n}")))
}

fn parse_gpu(v: &JsonValue) -> Result<GpuConfig, SpecError> {
    let JsonValue::Object(entries) = v else {
        return Err(spec_err("`gpu` must be an object"));
    };
    check_keys(entries, &GPU_KEYS, "gpu")?;
    let mut gpu = GpuConfig::default();
    if let Some(cus) = gpu_field(v, "cus")? {
        gpu.cus = cus;
    }
    if let Some(kb) = gpu_field(v, "l2_kb")? {
        gpu.l2.size_bytes = CacheGeometry::kib_bytes(kb)
            .ok_or_else(|| spec_err(format!("`gpu.l2_kb` is out of range: {kb}")))?;
    }
    if let Some(ways) = gpu_field(v, "l2_ways")? {
        gpu.l2.ways = ways;
    }
    if let Some(line) = gpu_field(v, "line_bytes")? {
        gpu.l2.line_bytes = line;
    }
    if let Some(banks) = gpu_field(v, "l2_banks")? {
        gpu.l2_banks = banks;
    }
    if let Some(lat) = gpu_field(v, "mem_latency")? {
        gpu.mem_latency = lat;
    }
    Ok(gpu)
}

fn parse_schemes(v: &JsonValue) -> Result<Vec<SchemeConfig>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| spec_err("`schemes` must be an array"))?;
    if items.is_empty() {
        return Err(spec_err("`schemes` must not be empty"));
    }
    items
        .iter()
        .map(|item| SchemeConfig::from_json_value(item).map_err(|e| spec_err(e.to_string())))
        .collect()
}

fn parse_workloads(v: &JsonValue) -> Result<Vec<Workload>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| spec_err("`workloads` must be an array"))?;
    if items.is_empty() {
        return Err(spec_err("`workloads` must not be empty"));
    }
    items
        .iter()
        .map(|item| {
            let name = item
                .as_str()
                .ok_or_else(|| spec_err("workloads must be name strings"))?;
            name.parse::<Workload>()
                .map_err(|e| spec_err(e.to_string()))
        })
        .collect()
}

fn parse_vdds(v: &JsonValue) -> Result<Vec<f64>, SpecError> {
    let items = v
        .as_array()
        .ok_or_else(|| spec_err("`vdds` must be an array"))?;
    if items.is_empty() {
        return Err(spec_err("`vdds` must not be empty"));
    }
    // Each point is checked with the job's grid (`validated()`).
    items
        .iter()
        .map(|item| {
            item.as_f64()
                .ok_or_else(|| spec_err("vdds must be numbers"))
        })
        .collect()
}

/// A validated, ready-to-run job of either kind.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// A Monte-Carlo sweep (`mode` absent or `"sweep"`).
    Sweep(ValidatedSweepConfig),
    /// A fleet Vmin campaign (`mode: "vmin"`).
    Vmin(ValidatedVminConfig),
}

impl JobSpec {
    /// The canonical config JSON the job is content-addressed by. The
    /// two kinds carry different schema tags, so their key spaces never
    /// overlap.
    pub fn canonical_json(&self) -> String {
        match self {
            JobSpec::Sweep(c) => c.canonical_json(),
            JobSpec::Vmin(c) => c.canonical_json(),
        }
    }

    /// Executes the job and returns its report bytes (`killi-sweep/v3`
    /// or `killi-vmin/v1`).
    pub fn run(&self) -> String {
        match self {
            JobSpec::Sweep(c) => run_sweep_validated(c).to_json(),
            // Server-side campaigns are storeless, and a storeless
            // campaign has no failure path.
            JobSpec::Vmin(c) => run_campaign(c)
                .expect("storeless campaigns cannot fail")
                .report
                .to_json(),
        }
    }
}

/// Parses and validates a job payload into a ready-to-run spec.
pub fn parse_job_spec(body: &[u8]) -> Result<JobSpec, SpecError> {
    let text = std::str::from_utf8(body).map_err(|_| spec_err("body is not UTF-8"))?;
    let v = parse_json(text).map_err(|e| spec_err(e.to_string()))?;
    let JsonValue::Object(entries) = &v else {
        return Err(spec_err("job payload must be a JSON object"));
    };
    match v.get("mode") {
        None => parse_sweep_spec(entries, &v).map(JobSpec::Sweep),
        Some(mode) => match mode.as_str() {
            Some("sweep") => parse_sweep_spec(entries, &v).map(JobSpec::Sweep),
            Some("vmin") => parse_vmin_spec(entries, &v).map(JobSpec::Vmin),
            Some(other) => Err(spec_err(format!(
                "unknown mode `{other}` (expected `sweep` or `vmin`)"
            ))),
            None => Err(spec_err("`mode` must be a string")),
        },
    }
}

/// The optional `threads`, an execution-only knob (the report is
/// byte-identical either way, so the cache key ignores it): every core
/// when absent, and never more than that.
fn parse_threads(v: &JsonValue) -> Result<usize, SpecError> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let Some(t) = v.get("threads") else {
        return Ok(cores);
    };
    let requested = t
        .as_u64()
        .ok_or_else(|| spec_err("`threads` must be a non-negative integer"))?;
    Ok(requested.min(cores as u64) as usize)
}

/// The optional `fault_model` of either job kind (the default model when
/// absent). A job never names a file on the server, so a `file`
/// parameter is rejected before any registry code could read it.
fn parse_fault_model(v: &JsonValue) -> Result<FaultModelConfig, SpecError> {
    let Some(fm) = v.get("fault_model") else {
        return Ok(FaultModelConfig::default());
    };
    let config = FaultModelConfig::from_json_value(fm).map_err(|e| spec_err(e.to_string()))?;
    if config
        .get("file")
        .is_some_and(|file| *file != ParamValue::Str(String::new()))
    {
        return Err(spec_err(
            "`fault_model.file` is not allowed in a job: the server reads no files; \
             give the CDF inline as `anchors`",
        ));
    }
    Ok(config)
}

fn parse_vmin_spec(
    entries: &[(String, JsonValue)],
    v: &JsonValue,
) -> Result<ValidatedVminConfig, SpecError> {
    check_keys(entries, &VMIN_KEYS, "vmin job")?;
    let target = match v.get("target") {
        None => 0.99,
        Some(t) => t
            .as_f64()
            .ok_or_else(|| spec_err("`target` must be a number"))?,
    };
    let config = VminConfig {
        root_seed: require_u64(v, "root_seed")?,
        dies: require_u64(v, "dies")? as usize,
        lines: require_u64(v, "lines")? as usize,
        target,
        vdds: parse_vdds(
            v.get("vdds")
                .ok_or_else(|| spec_err("missing required field `vdds`"))?,
        )?,
        schemes: parse_schemes(
            v.get("schemes")
                .ok_or_else(|| spec_err("missing required field `schemes`"))?,
        )?,
        fault_model: parse_fault_model(v)?,
        threads: parse_threads(v)?,
        progress_every: 0,
        store: None,
        search: SearchMode::Auto,
    };
    config.validated().map_err(|e| spec_err(e.to_string()))
}

fn parse_sweep_spec(
    entries: &[(String, JsonValue)],
    v: &JsonValue,
) -> Result<ValidatedSweepConfig, SpecError> {
    check_keys(entries, &SWEEP_KEYS, "job")?;

    let replications = require_u64(v, "replications")?;
    if replications == 0 {
        return Err(spec_err("`replications` must be at least 1"));
    }
    let config = SweepConfig {
        root_seed: require_u64(v, "root_seed")?,
        replications: replications as usize,
        vdds: parse_vdds(
            v.get("vdds")
                .ok_or_else(|| spec_err("missing required field `vdds`"))?,
        )?,
        schemes: parse_schemes(
            v.get("schemes")
                .ok_or_else(|| spec_err("missing required field `schemes`"))?,
        )?,
        fault_model: parse_fault_model(v)?,
        workloads: parse_workloads(
            v.get("workloads")
                .ok_or_else(|| spec_err("missing required field `workloads`"))?,
        )?,
        // At least one op is the config's own rule (`validated()`).
        ops_per_cu: require_u64(v, "ops_per_cu")? as usize,
        gpu: match v.get("gpu") {
            None => GpuConfig::default(),
            Some(gpu) => parse_gpu(gpu)?,
        },
        threads: parse_threads(v)?,
        progress_every: 0,
        trace_capacity: None,
    };
    config.validated().map_err(|e| spec_err(e.to_string()))
}

/// The content address of a validated job: two independent splitmix64
/// folds over the canonical JSON bytes, packed into a 128-bit id. Equal
/// jobs (any spelling) hash equal; the odds of two *different*
/// canonical strings colliding are 2^-128-ish, and the server still
/// stores the canonical string to detect that. The two job kinds carry
/// different canonical schema tags, so they can never share an id.
pub fn job_id_for(config: &JobSpec) -> JobId {
    let canonical = config.canonical_json();
    let mut lo = splitmix64(0x9e37_79b9_7f4a_7c15);
    let mut hi = splitmix64(0xd1b5_4a32_d192_ed03);
    for chunk in canonical.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let w = u64::from_le_bytes(word);
        lo = splitmix64(lo ^ w);
        hi = splitmix64(hi ^ w.rotate_left(23));
    }
    // Fold the length in so a zero-padded final chunk cannot alias an
    // input with explicit trailing NULs.
    lo = splitmix64(lo ^ canonical.len() as u64);
    hi = splitmix64(hi ^ (canonical.len() as u64).rotate_left(32));
    ((hi as u128) << 64) | lo as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDEN: &str = r#"{
        "root_seed": 2024,
        "replications": 2,
        "vdds": [0.65, 0.6],
        "schemes": [{"name": "killi", "params": {"ratio": 16}}],
        "workloads": ["fft", "hacc"],
        "ops_per_cu": 1200,
        "gpu": {"cus": 2, "l2_kb": 64, "l2_ways": 8, "line_bytes": 64, "l2_banks": 4, "mem_latency": 100}
    }"#;

    #[test]
    fn parses_the_golden_job() {
        let JobSpec::Sweep(validated) = parse_job_spec(GOLDEN.as_bytes()).unwrap() else {
            panic!("mode-less payloads parse as sweeps");
        };
        let c = validated.config();
        assert_eq!(c.root_seed, 2024);
        assert_eq!(c.replications, 2);
        assert_eq!(c.vdds, [0.65, 0.6]);
        assert_eq!(c.workloads, [Workload::Fft, Workload::Hacc]);
        assert_eq!(c.gpu.cus, 2);
        assert_eq!(c.gpu.l2.size_bytes, 64 * 1024);
        assert_eq!(c.gpu.l2.ways, 8);
        assert_eq!(c.gpu.l2_banks, 4);
        assert_eq!(c.gpu.mem_latency, 100);
        // Defaults not named by the gpu override stay at the defaults.
        assert_eq!(c.gpu.max_outstanding, GpuConfig::default().max_outstanding);
        assert_eq!(c.gpu.l2.line_bytes, 64);
    }

    #[test]
    fn every_spelling_of_a_sweep_shares_one_job_id() {
        let id = job_id_for(&parse_job_spec(GOLDEN.as_bytes()).unwrap());
        // Shorthand scheme string, reordered keys, threads spelled out.
        let respelled = r#"{
            "threads": 7,
            "ops_per_cu": 1200,
            "workloads": ["fft", "hacc"],
            "schemes": ["killi:ratio=16"],
            "vdds": [0.65, 0.6],
            "replications": 2,
            "root_seed": 2024,
            "gpu": {"mem_latency": 100, "l2_banks": 4, "line_bytes": 64, "l2_ways": 8, "l2_kb": 64, "cus": 2}
        }"#;
        assert_eq!(
            job_id_for(&parse_job_spec(respelled.as_bytes()).unwrap()),
            id
        );
        // A different sweep gets a different id.
        let other = GOLDEN.replace("\"root_seed\": 2024", "\"root_seed\": 2025");
        assert_ne!(job_id_for(&parse_job_spec(other.as_bytes()).unwrap()), id);
        let other = GOLDEN.replace("\"ratio\": 16", "\"ratio\": 32");
        assert_ne!(job_id_for(&parse_job_spec(other.as_bytes()).unwrap()), id);
    }

    #[test]
    fn fault_models_split_the_cache_key_and_spellings_do_not() {
        let with_fm = |fm: &str| {
            GOLDEN.replace(
                "\"root_seed\": 2024,",
                &format!("\"root_seed\": 2024, \"fault_model\": {fm},"),
            )
        };
        let id = job_id_for(&parse_job_spec(GOLDEN.as_bytes()).unwrap());
        // The explicit default spelling shares the implicit default's key.
        let explicit = with_fm("\"stuck-at\"");
        assert_eq!(
            job_id_for(&parse_job_spec(explicit.as_bytes()).unwrap()),
            id
        );
        // Shorthand and object spellings of one model agree with each
        // other but never with a different model or the default.
        let shorthand = with_fm("\"clustered:rows=8,corr=0.5\"");
        let object = with_fm("{\"name\": \"clustered\", \"params\": {\"corr\": 0.5, \"rows\": 8}}");
        let clustered_id = job_id_for(&parse_job_spec(shorthand.as_bytes()).unwrap());
        assert_eq!(
            job_id_for(&parse_job_spec(object.as_bytes()).unwrap()),
            clustered_id
        );
        assert_ne!(clustered_id, id);
        let transient = with_fm("\"transient:rate=0.001\"");
        assert_ne!(
            job_id_for(&parse_job_spec(transient.as_bytes()).unwrap()),
            clustered_id
        );
        // Unknown models and params are rejected at submission.
        assert!(parse_job_spec(with_fm("\"no-such-model\"").as_bytes()).is_err());
        assert!(parse_job_spec(with_fm("\"clustered:bogus=1\"").as_bytes()).is_err());
    }

    #[test]
    fn typos_and_bad_values_are_typed_errors() {
        for (body, what) in [
            ("not json", "non-JSON"),
            ("[1,2,3]", "non-object"),
            (r#"{"root_seed": 1}"#, "missing fields"),
            (
                &GOLDEN.replace("\"replications\"", "\"replciations\""),
                "typo'd key",
            ),
            (
                &GOLDEN.replace("\"cus\": 2", "\"cuss\": 2"),
                "typo'd gpu key",
            ),
            (
                &GOLDEN.replace("\"replications\": 2", "\"replications\": 0"),
                "zero replications",
            ),
            (
                &GOLDEN.replace("\"ops_per_cu\": 1200", "\"ops_per_cu\": 0"),
                "zero ops per CU",
            ),
            (
                &GOLDEN.replace("[0.65, 0.6]", "[65, 60]"),
                "vdds out of range",
            ),
            (&GOLDEN.replace("\"fft\"", "\"sort\""), "unknown workload"),
            (
                &GOLDEN.replace("\"killi\"", "\"frobnicate\""),
                "unknown scheme",
            ),
            (
                &GOLDEN.replace("\"ratio\": 16", "\"ratio\": \"lots\""),
                "ill-typed param",
            ),
        ] {
            assert!(
                parse_job_spec(body.as_bytes()).is_err(),
                "{what} should be rejected"
            );
        }
        // Invalid UTF-8 bodies too.
        assert!(parse_job_spec(&[0x7b, 0xff, 0xfe, 0x7d]).is_err());
    }

    const VMIN_GOLDEN: &str = r#"{
        "mode": "vmin",
        "root_seed": 2024,
        "dies": 16,
        "lines": 512,
        "target": 0.99,
        "vdds": [0.55, 0.6, 0.65],
        "schemes": ["killi:ratio=16", "flair"]
    }"#;

    #[test]
    fn parses_vmin_jobs_and_keys_them_apart_from_sweeps() {
        let JobSpec::Vmin(validated) = parse_job_spec(VMIN_GOLDEN.as_bytes()).unwrap() else {
            panic!("mode vmin must parse as a campaign");
        };
        let c = validated.config();
        assert_eq!(c.root_seed, 2024);
        assert_eq!(c.dies, 16);
        assert_eq!(c.lines, 512);
        assert_eq!(c.vdds, [0.55, 0.6, 0.65]);
        assert_eq!(c.schemes.len(), 2);
        // mode: "sweep" spelled out matches the implicit default.
        let explicit = GOLDEN.replace(
            "\"root_seed\": 2024,",
            "\"mode\": \"sweep\", \"root_seed\": 2024,",
        );
        assert_eq!(
            job_id_for(&parse_job_spec(explicit.as_bytes()).unwrap()),
            job_id_for(&parse_job_spec(GOLDEN.as_bytes()).unwrap())
        );
        // Sweep and vmin ids live in different key spaces.
        assert_ne!(
            job_id_for(&parse_job_spec(VMIN_GOLDEN.as_bytes()).unwrap()),
            job_id_for(&parse_job_spec(GOLDEN.as_bytes()).unwrap())
        );
        // Threads is execution-only for campaigns too.
        let threaded =
            VMIN_GOLDEN.replace("\"mode\": \"vmin\",", "\"mode\": \"vmin\", \"threads\": 3,");
        assert_eq!(
            job_id_for(&parse_job_spec(threaded.as_bytes()).unwrap()),
            job_id_for(&parse_job_spec(VMIN_GOLDEN.as_bytes()).unwrap())
        );
    }

    #[test]
    fn vmin_payload_errors_are_typed() {
        for (body, what) in [
            (
                VMIN_GOLDEN.replace("\"dies\": 16,", "").as_str(),
                "missing dies",
            ),
            (
                VMIN_GOLDEN
                    .replace("\"target\": 0.99", "\"replications\": 2")
                    .as_str(),
                "sweep-only key in a vmin job",
            ),
            (
                VMIN_GOLDEN.replace("[0.55, 0.6, 0.65]", "[0.625]").as_str(),
                "single-point grid",
            ),
            (
                VMIN_GOLDEN.replace("\"vmin\"", "\"vmax\"").as_str(),
                "unknown mode",
            ),
            (
                VMIN_GOLDEN
                    .replace("\"target\": 0.99", "\"target\": 1.5")
                    .as_str(),
                "target out of range",
            ),
        ] {
            assert!(
                parse_job_spec(body.as_bytes()).is_err(),
                "{what} should be rejected"
            );
        }
    }

    /// `payload` with `extra` (`"key": value` pairs) spliced in after its
    /// `root_seed`.
    fn with_fields(payload: &str, extra: &str) -> String {
        payload.replacen(
            "\"root_seed\": 2024,",
            &format!("\"root_seed\": 2024, {extra},"),
            1,
        )
    }

    #[test]
    fn table_anchors_parse_inline_and_a_file_parameter_is_rejected() {
        for payload in [GOLDEN, VMIN_GOLDEN] {
            let inline = with_fields(
                payload,
                "\"fault_model\": \"table:anchors=0.5@-0.3;0.6@-4.19;0.7@-9.5\"",
            );
            parse_job_spec(inline.as_bytes()).expect("inline anchors parse");
            // The path is never opened: the file parameter is refused first.
            for fm in [
                "\"table:file=anchors.csv\"",
                "{\"name\": \"table\", \"params\": {\"file\": \"anchors.csv\"}}",
            ] {
                let named = with_fields(payload, &format!("\"fault_model\": {fm}"));
                let err = parse_job_spec(named.as_bytes()).unwrap_err();
                assert!(err.message.contains("`fault_model.file`"), "{fm}: {err}");
            }
        }
    }

    #[test]
    fn threads_are_capped_at_the_servers_cores() {
        // Parsing starts no thread; only the parsed value is checked.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        for threads in ["100000", "1e19"] {
            let field = format!("\"threads\": {threads}");
            let JobSpec::Sweep(sweep) =
                parse_job_spec(with_fields(GOLDEN, &field).as_bytes()).expect("sweep parses")
            else {
                panic!("a sweep payload");
            };
            assert!(sweep.config().threads <= cores, "sweep, threads {threads}");
            let JobSpec::Vmin(vmin) = parse_job_spec(with_fields(VMIN_GOLDEN, &field).as_bytes())
                .expect("campaign parses")
            else {
                panic!("a vmin payload");
            };
            assert!(vmin.config().threads <= cores, "vmin, threads {threads}");
        }
    }

    #[test]
    fn vmin_jobs_run_to_a_checkable_report() {
        let spec = parse_job_spec(VMIN_GOLDEN.as_bytes()).unwrap();
        let report = spec.run();
        killi_vmin::check_report(&report).expect("service-run campaign report validates");
    }
}
