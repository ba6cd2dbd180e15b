//! The Vmin workloads: `run_campaign` on the direct (storeless) path,
//! timed end to end, and, in the traced run, per-die synthesis, the die
//! store's write and read, and a store-backed campaign, each in its own
//! span.

use std::path::{Path, PathBuf};

use killi_repro::bench::fault_models::{build_fault_model, fault_model_label, FaultModelConfig};
use killi_repro::bench::schemes::{default_registry, SchemeConfig};
use killi_repro::fault::rng::derive_seed;
use killi_repro::vmin::campaign::synth_record;
use killi_repro::vmin::{
    check_report, run_campaign, DieRecord, DieStoreReader, DieStoreWriter, SearchMode, StoreMeta,
    ValidatedVminConfig, VminConfig, DEFAULT_GRID,
};

use crate::trace::{subtree, total_s, Recorder};
use crate::{measure_ops, measure_rounds, Metrics, Outcome, RunOpts};

/// The shape of one campaign workload; the root seed comes from
/// `--seed`. Every campaign bins all registered schemes over
/// [`DEFAULT_GRID`] at 4096 lines per die.
pub struct VminSpec {
    dies: usize,
    fault_model: &'static str,
}

/// Voltage-nested stuck-at dies: the search bisects, and per-die
/// synthesis dominates the campaign.
pub const FLEET: VminSpec = VminSpec {
    dies: 8,
    fault_model: "stuck-at",
};

/// Transient dies are not voltage-nested: a map is built at every grid
/// point and the search falls back to a linear scan.
pub const TRANSIENT: VminSpec = VminSpec {
    dies: 6,
    fault_model: "transient",
};

const LINES: usize = 4096;

/// Dies written to and read back from the traced run's die store.
const STORE_DIES: usize = 16;

/// Where the traced run keeps its temporary die store: under the
/// current directory, removed again before the run ends.
const SCRATCH_DIR: &str = ".bench_scratch";

fn config(spec: &VminSpec, seed: u64, threads: usize) -> VminConfig {
    VminConfig {
        root_seed: seed,
        dies: spec.dies,
        lines: LINES,
        target: 0.99,
        vdds: DEFAULT_GRID.to_vec(),
        schemes: default_registry()
            .descriptors()
            .iter()
            .map(|d| SchemeConfig::new(d.name))
            .collect(),
        fault_model: FaultModelConfig::parse(spec.fault_model)
            .expect("built-in fault-model spellings parse"),
        threads,
        progress_every: 0,
        store: None,
        search: SearchMode::Auto,
    }
}

/// Runs one campaign workload (untraced or traced per `opts`).
pub fn run(spec: &VminSpec, opts: &RunOpts, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        config(spec, opts.seed, opts.threads)
            .validated()
            .map_err(|e| format!("campaign config rejected: {e}"))
    };
    if !opts.trace {
        let op = |cfg: &ValidatedVminConfig| {
            run_campaign(cfg)
                .map(|o| o.report.to_json())
                .map_err(|e| format!("campaign failed: {e}"))
        };
        measure_ops(opts, &mut out, spec.dies, setup, op, check_report);
        return out;
    }
    if let Err(e) = std::fs::create_dir_all(SCRATCH_DIR) {
        out.fail(format!("{SCRATCH_DIR}: {e}"));
        return out;
    }
    let path = Path::new(SCRATCH_DIR).join(format!("vmin-{}.kds", std::process::id()));
    let round = || {
        let round = setup().and_then(|cfg| traced_round(cfg.config(), &path, rec));
        // The store is rebuilt every round; never leave it behind.
        let _ = std::fs::remove_file(&path);
        round
    };
    measure_rounds(opts, &mut out, round, check_report);
    // Fails harmlessly when the directory holds anything else.
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    out
}

/// One traced round, single-threaded: synthesize every die, write the
/// first [`STORE_DIES`] to a die store, read them back, and run the
/// campaign over the store.
fn traced_round(c: &VminConfig, path: &Path, rec: &Recorder) -> Result<(Metrics, String), String> {
    let model = build_fault_model(&c.fault_model).map_err(|e| e.to_string())?;
    let label = fault_model_label(&c.fault_model).map_err(|e| e.to_string())?;
    let stored = STORE_DIES.min(c.dies);
    let store_cfg = VminConfig {
        dies: stored,
        threads: 1,
        store: Some(PathBuf::from(path)),
        ..c.clone()
    }
    .validated()
    .map_err(|e| e.to_string())?;

    let mut root_id = 0;
    let (records, bytes, json, stats) = rec.span("vmin.round", None, |root| {
        root_id = root;
        let records: Vec<DieRecord> = (0..c.dies)
            .map(|i| {
                let seed = derive_seed(c.root_seed, "die", &[i as u64]);
                rec.leaf("vmin.synth", root, || {
                    synth_record(model.as_ref(), c.lines, &c.vdds, seed)
                })
            })
            .collect();
        let meta = StoreMeta {
            root_seed: c.root_seed,
            lines: c.lines as u32,
            grid: c.vdds.clone(),
            fault_model: label.clone(),
            dies: stored as u32,
        };
        let bytes = rec
            .leaf("vmin.store_write", root, || {
                let mut writer = DieStoreWriter::create(path, meta)?;
                for r in &records[..stored] {
                    writer.append(r)?;
                }
                writer.finish()
            })
            .map_err(|e| format!("die store write: {e}"))?;
        let read = rec
            .leaf("vmin.store_read", root, || {
                let mut reader = DieStoreReader::open(path)?;
                (0..stored)
                    .map(|i| reader.read_die(i))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| format!("die store read: {e}"))?;
        if read != records[..stored] {
            return Err("die store read back different records".to_string());
        }
        let output = rec
            .leaf("vmin.campaign", root, || run_campaign(&store_cfg))
            .map_err(|e| format!("store campaign failed: {e}"))?;
        let json = rec.leaf("vmin.json", root, || output.report.to_json());
        Ok((records, bytes, json, output.report.stats))
    })?;

    let spans = subtree(&rec.spans(), root_id);
    let t = |name: &str| total_s(&spans, name);
    let entries: usize = records.iter().map(|r| r.entries.len()).sum();
    let metrics = vec![
        ("vmin.synth_s", t("vmin.synth")),
        ("vmin.record_entries", entries as f64 / c.dies as f64),
        (
            "vmin.synth_ns_per_fault",
            t("vmin.synth") * 1e9 / entries as f64,
        ),
        ("vmin.store_write_s", t("vmin.store_write")),
        ("vmin.store_read_s", t("vmin.store_read")),
        ("vmin.store_bytes_per_die", bytes as f64 / stored as f64),
        ("vmin.evaluate_s", t("vmin.campaign") - t("vmin.store_read")),
        ("vmin.voltage_probes", stats.probes as f64),
        ("vmin.linear_scans", stats.linear_scans as f64),
        ("vmin.json_s", t("vmin.json")),
    ];
    Ok((metrics, json))
}
