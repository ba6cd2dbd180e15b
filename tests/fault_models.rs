//! Cross-crate contract tests for the fault-model axis: every registered
//! model must run end-to-end as a sweep dimension (CLI shorthand and JSON
//! spelling alike), stamp its label into the `killi-sweep/v3` report and
//! the `killi-obs/v1` trace, be deterministic per (seed, replicate, vdd),
//! and either honor voltage nesting or explicitly declare it away.
//!
//! `tests/golden/fault_model_params.json` pins sweep and Vmin reports of
//! non-default spellings of the `clustered` and `transient` models at
//! 1/2/8 threads (and, for Vmin, through a built and a reused die
//! store). `tests/golden/fault_maps.txt` pins a digest of every model's
//! map at eight operating points. Re-bless after an *intentional* output
//! change with:
//!
//! ```sh
//! KILLI_BLESS=1 cargo test --test fault_models
//! ```

use killi_repro::bench::fault_models::{
    build_fault_model, default_fault_registry, fault_model_label, stuck_at, FaultModelConfig,
    STUCK_AT,
};
use killi_repro::bench::schemes::{default_registry as scheme_registry, SchemeConfig};
use killi_repro::bench::sweep::{run_sweep, SweepConfig};
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::map::FaultMap;
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::GpuConfig;
use killi_repro::vmin::{run_campaign, SearchMode, VminConfig, DEFAULT_GRID};
use killi_repro::workloads::Workload;

use killi_check::Gen;
use std::ops::Range;

mod common;
use common::check_or_bless;

/// A one-cell sweep (1 scheme x 1 workload x 2 vdds x 2 replicates) that
/// finishes fast enough to run once per registered model.
fn one_cell_sweep(fault_model: FaultModelConfig) -> SweepConfig {
    SweepConfig {
        root_seed: 99,
        replications: 2,
        vdds: vec![0.625, 0.6],
        schemes: vec![SchemeConfig::parse("killi:ratio=16").unwrap()],
        fault_model,
        workloads: vec![Workload::Fft],
        ops_per_cu: 800,
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
        trace_capacity: Some(64),
    }
}

#[test]
fn every_registered_model_sweeps_end_to_end_and_labels_the_report() {
    let registry = default_fault_registry();
    for descriptor in registry.descriptors() {
        let config = FaultModelConfig::new(descriptor.name);
        let label = fault_model_label(&config).expect("default config labels");
        let report = run_sweep(&one_cell_sweep(config));
        assert_eq!(report.fault_model, label, "{}", descriptor.name);
        let json = report.to_json();
        let trace = report.trace.as_deref().expect("tracing was on");
        if descriptor.name == STUCK_AT {
            // The default model keeps the report bytes golden-compatible:
            // no fault_model key anywhere.
            assert!(!json.contains("fault_model"), "stuck-at must stay silent");
            assert!(!trace.contains("fault_model"));
        } else {
            assert!(
                json.contains(&format!("\"fault_model\": {:?}", label)),
                "{}: report JSON must carry the label ({json})",
                descriptor.name
            );
            assert!(
                trace.contains("\"fault_model\""),
                "{}: obs trace must carry the label",
                descriptor.name
            );
        }
        // Every cell still ran: 1 baseline + 2 vdds x 1 scheme x 1 workload.
        assert_eq!(report.cells.len(), 3, "{}", descriptor.name);
    }
}

#[test]
fn cli_and_json_spellings_sweep_identically() {
    let shorthand = FaultModelConfig::parse("clustered:rows=8,corr=0.5").expect("shorthand");
    let json =
        FaultModelConfig::from_json(r#"{"name": "clustered", "params": {"corr": 0.5, "rows": 8}}"#)
            .expect("json spelling");
    let a = run_sweep(&one_cell_sweep(shorthand)).to_json();
    let b = run_sweep(&one_cell_sweep(json)).to_json();
    assert_eq!(a, b, "spellings of one model must produce one report");
}

#[test]
fn sweep_reports_are_deterministic_per_model_across_thread_counts() {
    for name in default_fault_registry().names() {
        // Two replicates, then one, whose die 2 and 8 threads draw in
        // line ranges.
        for (replications, threads) in [(2, [2usize, 1, 4]), (1, [1, 2, 8])] {
            let config = |threads| SweepConfig {
                replications,
                threads,
                ..one_cell_sweep(FaultModelConfig::new(name))
            };
            let reference = run_sweep(&config(threads[0])).to_json();
            for &threads in &threads[1..] {
                assert_eq!(
                    run_sweep(&config(threads)).to_json(),
                    reference,
                    "{name}, {replications} replicate(s), diverged at {threads} thread(s)"
                );
            }
        }
    }
}

#[test]
fn models_honor_nesting_or_explicitly_declare_otherwise() {
    let registry = default_fault_registry();
    for descriptor in registry.descriptors() {
        let model = build_fault_model(&FaultModelConfig::new(descriptor.name)).expect("builds");
        if model.voltage_nested() {
            let hi = model.map(256, NormVdd(0.65), FreqGhz::PEAK, 6);
            let lo = model.map(256, NormVdd(0.6), FreqGhz::PEAK, 6);
            for line in 0..256 {
                for fault in hi.line(line) {
                    assert!(
                        lo.line(line).contains(fault),
                        "{}: fault present at 0.65 missing at 0.6 (line {line})",
                        descriptor.name
                    );
                }
            }
        }
    }
}

/// Contiguous ranges covering `0..lines`, cut at random points, with at
/// least one empty and one one-line range.
fn random_ranges(g: &mut Gen, lines: usize) -> Vec<Range<usize>> {
    let at = g.usize_in(0, lines);
    let mut cuts = vec![at, at, at + 1];
    let extra = g.usize_in(0, 8);
    cuts.extend((0..extra).map(|_| g.usize_in(0, lines + 1)));
    cuts.sort_unstable();
    let mut start = 0;
    let mut ranges: Vec<Range<usize>> = cuts
        .into_iter()
        .map(|cut| {
            let range = start..cut;
            start = cut;
            range
        })
        .collect();
    ranges.push(start..lines);
    ranges
}

#[test]
fn die_factorization_matches_per_voltage_maps_when_offered() {
    let registry = default_fault_registry();
    let spellings = registry
        .names()
        .into_iter()
        .chain(PINNED_SPELLINGS)
        .map(|s| FaultModelConfig::parse(s).expect("parses"));
    let mut g = Gen::new(17);
    for config in spellings {
        let model = build_fault_model(&config).expect("builds");
        let die = model
            .die(128, NormVdd(0.6), FreqGhz::PEAK, 17)
            .unwrap_or_else(|| panic!("{config}: every registered model factorizes"));
        // The same die joined from random line ranges, drawn last first.
        let draw = model.die_draw(128, NormVdd(0.6), FreqGhz::PEAK, 17);
        let ranges = random_ranges(&mut g, 128);
        let mut parts: Vec<_> = ranges.iter().rev().map(|r| draw.lines(r.clone())).collect();
        parts.reverse();
        let joined = draw.join(parts);
        for ((die, how), vdd) in [(&die, "one range"), (&joined, "ranges")]
            .into_iter()
            .flat_map(|die| [0.6, 0.625, 0.65].map(|vdd| (die, vdd)))
        {
            let config = format!("{config}, die from {how} {ranges:?}");
            let from_die = die.map_at(NormVdd(vdd));
            let direct = model.map_reference(128, NormVdd(vdd), FreqGhz::PEAK, 17);
            assert_eq!(from_die.lines(), direct.lines(), "{config}");
            for line in 0..128 {
                assert_eq!(
                    from_die.line(line),
                    direct.line(line),
                    "{config}: die factorization diverged at {vdd} (line {line})"
                );
            }
            assert_eq!(
                from_die.p_cell_median().to_bits(),
                direct.p_cell_median().to_bits(),
                "{config} at {vdd}"
            );
            assert_eq!(
                from_die.mean_p_line().to_bits(),
                direct.mean_p_line().to_bits(),
                "{config} at {vdd}"
            );
            let ((dv, df), (mv, mf)) = (from_die.operating_point(), direct.operating_point());
            assert_eq!(
                (dv.0.to_bits(), df.0.to_bits()),
                (mv.0.to_bits(), mf.0.to_bits()),
                "{config} at {vdd}"
            );
            assert_eq!(from_die.seed(), direct.seed(), "{config} at {vdd}");
        }
    }
}

#[test]
fn explicit_stuck_at_spelling_matches_the_default_report_bytes() {
    // `--fault-model stuck-at` (any spelling) must be byte-identical to
    // the implicit default — the property the golden sweep pins.
    let implicit = run_sweep(&one_cell_sweep(stuck_at())).to_json();
    let spelled = run_sweep(&one_cell_sweep(
        FaultModelConfig::parse("stuck-at").expect("parses"),
    ))
    .to_json();
    assert_eq!(implicit, spelled);
    assert!(!implicit.contains("fault_model"));
}

#[test]
fn non_default_models_change_the_fault_population() {
    // The axis must actually do something: a clustered or transient sweep
    // is not the stuck-at sweep with a different label.
    let base = run_sweep(&one_cell_sweep(stuck_at()));
    for spelling in ["clustered:corr=0.9", "transient:rate=0.01"] {
        let other = run_sweep(&one_cell_sweep(
            FaultModelConfig::parse(spelling).expect("parses"),
        ));
        assert_ne!(
            base.to_json(),
            other.to_json(),
            "{spelling} produced the stuck-at report"
        );
    }
}

/// FNV-1a over `bytes`, continuing from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn every_model_map_matches_golden_bytes() {
    // Every registered model and pinned spelling, below, at and above
    // their ranges and at two frequencies: one line per map with its
    // fault count, an FNV-1a digest of every (line, cell, stuck) and the
    // bits of its two probability statistics.
    let spellings = default_fault_registry()
        .names()
        .into_iter()
        .chain(PINNED_SPELLINGS);
    let mut out = String::new();
    for spelling in spellings {
        let model =
            build_fault_model(&FaultModelConfig::parse(spelling).expect("parses")).expect("builds");
        for vdd in [0.55, 0.6, 0.65, 1.0] {
            for freq in [0.4, 1.0] {
                let map = model.map(512, NormVdd(vdd), FreqGhz(freq), 17);
                let (mut faults, mut digest) = (0, 0xcbf2_9ce4_8422_2325);
                for line in 0..map.lines() {
                    for fault in map.line(line) {
                        faults += 1;
                        digest = fnv1a(digest, &(line as u32).to_le_bytes());
                        digest = fnv1a(digest, &fault.cell.to_le_bytes());
                        digest = fnv1a(digest, &[u8::from(fault.stuck)]);
                    }
                }
                out.push_str(&format!(
                    "{spelling} vdd={vdd:?} freq={freq:?} faults={faults} fnv={digest:016x} \
                     p_cell_median={:016x} mean_p_line={:016x}\n",
                    map.p_cell_median().to_bits(),
                    map.mean_p_line().to_bits()
                ));
            }
        }
    }
    check_or_bless("fault_maps.txt", &out);
}

#[test]
fn fault_free_maps_are_untouched_by_the_model_axis() {
    // Baseline cells always run fault-free regardless of the model.
    let map = FaultMap::fault_free(64);
    for line in 0..64 {
        assert!(map.line(line).is_empty());
    }
}

/// The non-default spellings `fault_model_params.json` pins.
const PINNED_SPELLINGS: [&str; 4] = [
    "clustered:col_corr=0.3",
    "transient:rate=0.001",
    "transient:mode=burst,rate=0.01",
    "transient:mode=msb,rate=0.001",
];

/// `killi` and `secded` on fft under a 64 KB L2, one replicate at 0.6
/// and 0.575 V.
fn pinned_sweep(fault_model: FaultModelConfig, threads: usize) -> SweepConfig {
    SweepConfig {
        root_seed: 2024,
        replications: 1,
        vdds: vec![0.6, 0.575],
        schemes: vec![SchemeConfig::new("killi"), SchemeConfig::new("secded")],
        ops_per_cu: 4000,
        threads,
        trace_capacity: None,
        ..one_cell_sweep(fault_model)
    }
}

/// Every registered scheme binned over 8 dies of 512 lines on the
/// default grid.
fn pinned_campaign(fault_model: FaultModelConfig, threads: usize) -> VminConfig {
    VminConfig {
        root_seed: 2024,
        dies: 8,
        lines: 512,
        target: 0.99,
        vdds: DEFAULT_GRID.to_vec(),
        schemes: scheme_registry()
            .descriptors()
            .iter()
            .map(|d| SchemeConfig::new(d.name))
            .collect(),
        fault_model,
        threads,
        progress_every: 0,
        store: None,
        search: SearchMode::Auto,
    }
}

#[test]
fn parameterized_models_match_golden_bytes_across_threads_and_paths() {
    let dir = std::env::temp_dir().join(format!("killi-fm-params-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (mut sweeps, mut campaigns) = (Vec::new(), Vec::new());
    for (i, spelling) in PINNED_SPELLINGS.iter().enumerate() {
        let model = FaultModelConfig::parse(spelling).expect("pinned spelling parses");

        let sweep: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&threads| run_sweep(&pinned_sweep(model.clone(), threads)).to_json())
            .collect();
        assert!(
            sweep.windows(2).all(|w| w[0] == w[1]),
            "{spelling}: thread count changed the sweep report"
        );

        let mut vmin: Vec<String> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let config = pinned_campaign(model.clone(), threads).validated().unwrap();
                run_campaign(&config)
                    .expect("campaign runs")
                    .report
                    .to_json()
            })
            .collect();
        // Build the store on the first run, stream from it on the second.
        let store = dir.join(format!("model-{i}.kds"));
        for _ in 0..2 {
            let mut config = pinned_campaign(model.clone(), 2);
            config.store = Some(store.clone());
            let out = run_campaign(&config.validated().unwrap()).expect("store campaign runs");
            vmin.push(out.report.to_json());
        }
        assert!(
            vmin.windows(2).all(|w| w[0] == w[1]),
            "{spelling}: thread count or die store changed the Vmin report"
        );
        sweeps.push(sweep[0].clone());
        campaigns.push(vmin[0].clone());
    }
    std::fs::remove_dir_all(&dir).ok();
    check_or_bless(
        "fault_model_params.json",
        &format!(
            "{{\n\"sweeps\": [\n{}],\n\"vmin\": [\n{}]\n}}\n",
            sweeps.join(",\n"),
            campaigns.join(",\n")
        ),
    );
}
