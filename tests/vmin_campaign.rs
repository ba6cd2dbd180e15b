//! Integration tests for the `killi vmin` campaign subsystem.
//!
//! Three contracts pinned here:
//!
//! 1. **Search soundness** — for every registered *voltage-nested* fault
//!    model, the production nesting-aware search (bisection) bins every
//!    die at exactly the Vmin the exhaustive linear-scan oracle finds,
//!    and the non-nested `transient` model takes the deterministic
//!    linear fallback (bisection would be unsound there).
//! 2. **Golden bytes** — a reference campaign emits a byte-identical
//!    `killi-vmin/v1` report at 1, 2 and 8 threads, through both the
//!    direct and die-store synthesis paths; so does one campaign per
//!    registered fault model over every registered scheme
//!    (`vmin_all_models.json`). Re-bless after an *intentional* output
//!    change with:
//!
//!    ```sh
//!    KILLI_BLESS=1 cargo test --test vmin_campaign
//!    ```
//! 3. **Hostile stores** — a die store whose record breaks voltage
//!    nesting makes a campaign on a nested model return a typed error.

use killi_repro::bench::fault_models::FaultModelConfig;
use killi_repro::bench::schemes::{default_registry as scheme_registry, SchemeConfig};
use killi_repro::fault::model::default_registry as fault_registry;
use killi_repro::vmin::{
    check_report, run_campaign, CampaignError, DieEntry, DieRecord, DieStoreWriter, SearchMode,
    StoreMeta, VminConfig, DEFAULT_GRID,
};

mod common;
use common::check_or_bless;

/// Parses a `killi-vmin/v1` report and drops the `search` block — the
/// probe accounting is the one part that legitimately differs between
/// the bisection and exhaustive search modes.
fn without_search_block(report: &str) -> killi_repro::obs::JsonValue {
    use killi_repro::obs::JsonValue;
    let parsed = killi_repro::obs::parse_json(report).expect("report parses");
    let JsonValue::Object(entries) = parsed else {
        panic!("report is not an object");
    };
    JsonValue::Object(entries.into_iter().filter(|(k, _)| k != "search").collect())
}

/// A campaign small enough to run every fault model through in seconds
/// but large enough that dies actually spread across the grid.
fn small_campaign(fault_model: FaultModelConfig, search: SearchMode) -> VminConfig {
    VminConfig {
        root_seed: 2024,
        dies: 10,
        lines: 512,
        target: 0.99,
        vdds: vec![0.55, 0.6, 0.65, 0.7],
        schemes: vec![
            SchemeConfig::parse("killi:ratio=16").unwrap(),
            SchemeConfig::new("flair"),
        ],
        fault_model,
        threads: 2,
        progress_every: 0,
        store: None,
        search,
    }
}

#[test]
fn nesting_aware_search_matches_the_exhaustive_oracle_for_every_model() {
    for descriptor in fault_registry().descriptors() {
        let model = FaultModelConfig::new(descriptor.name);
        let auto = small_campaign(model.clone(), SearchMode::Auto)
            .validated()
            .unwrap_or_else(|e| panic!("{}: {e}", descriptor.name));
        let oracle = small_campaign(model, SearchMode::Exhaustive)
            .validated()
            .unwrap();
        let auto_out = run_campaign(&auto).expect("campaign runs");
        let oracle_out = run_campaign(&oracle).expect("oracle campaign runs");

        // Same bins, same CDFs, same capacity curves. Only the `search`
        // block (probe accounting) may differ between the two modes.
        assert_eq!(
            without_search_block(&auto_out.report.to_json()),
            without_search_block(&oracle_out.report.to_json()),
            "{}: nesting-aware search diverged from the exhaustive oracle",
            descriptor.name
        );

        let stats = &auto_out.report.stats;
        assert_eq!(auto_out.report.nested, descriptor.voltage_nested);
        if descriptor.voltage_nested {
            // Nested models bisect: no linear fallbacks, and never more
            // probes than the oracle's full scans (on a grid this small
            // the two can tie; larger grids separate them).
            assert!(stats.binary_searches > 0, "{}", descriptor.name);
            assert_eq!(stats.linear_scans, 0, "{}", descriptor.name);
            assert!(
                stats.probes <= oracle_out.report.stats.probes,
                "{}: bisection probed more grid points than the \
                 exhaustive scan ({} vs {})",
                descriptor.name,
                stats.probes,
                oracle_out.report.stats.probes
            );
        } else {
            // Non-nested models must not bisect — the pass predicate is
            // not monotone, so Auto takes the linear fallback.
            assert_eq!(stats.binary_searches, 0, "{}", descriptor.name);
            assert!(stats.linear_scans > 0, "{}", descriptor.name);
            assert_eq!(
                stats.probes, oracle_out.report.stats.probes,
                "{}: the linear fallback is the exhaustive scan",
                descriptor.name
            );
        }

        // Every emitted report satisfies its own checker.
        check_report(&auto_out.report.to_json())
            .unwrap_or_else(|e| panic!("{}: {e}", descriptor.name));
    }
}

#[test]
fn vmin_report_matches_golden_bytes_across_thread_counts_and_paths() {
    let mut reports = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut config = small_campaign(FaultModelConfig::default(), SearchMode::Auto);
        config.threads = threads;
        let validated = config.validated().expect("reference config is valid");
        let out = run_campaign(&validated).expect("campaign runs");
        check_or_bless("vmin_report.json", &out.report.to_json());
        reports.push(out.report.to_json());
    }
    assert!(reports.windows(2).all(|w| w[0] == w[1]));

    // The die-store path replays the same fleet from disk and must emit
    // the same bytes (build on first run, stream on the second).
    let dir = std::env::temp_dir().join(format!("killi-vmin-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("fleet.kds");
    for _ in 0..2 {
        let mut config = small_campaign(FaultModelConfig::default(), SearchMode::Auto);
        config.store = Some(store.clone());
        let validated = config.validated().expect("store config is valid");
        let out = run_campaign(&validated).expect("store campaign runs");
        assert_eq!(out.report.to_json(), reports[0]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One campaign per registered fault model, binning every registered
/// scheme over the default grid.
fn all_schemes_campaign(fault_model: &str) -> VminConfig {
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
        fault_model: FaultModelConfig::new(fault_model),
        threads: 1,
        progress_every: 0,
        store: None,
        search: SearchMode::Auto,
    }
}

#[test]
fn every_scheme_and_fault_model_matches_golden_bytes_across_threads_and_paths() {
    let dir = std::env::temp_dir().join(format!("killi-vmin-all-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut reports = Vec::new();
    for descriptor in fault_registry().descriptors() {
        let mut texts = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut config = all_schemes_campaign(descriptor.name);
            config.threads = threads;
            let validated = config.validated().expect("reference config is valid");
            texts.push(
                run_campaign(&validated)
                    .expect("campaign runs")
                    .report
                    .to_json(),
            );
        }
        // Build the store on the first run, stream from it on the second.
        let store = dir.join(format!("{}.kds", descriptor.name));
        for _ in 0..2 {
            let mut config = all_schemes_campaign(descriptor.name);
            config.threads = 2;
            config.store = Some(store.clone());
            let validated = config.validated().expect("store config is valid");
            texts.push(
                run_campaign(&validated)
                    .expect("store campaign runs")
                    .report
                    .to_json(),
            );
        }
        for text in &texts[1..] {
            assert_eq!(
                text, &texts[0],
                "{}: thread count or die store changed the report",
                descriptor.name
            );
        }
        check_report(&texts[0]).unwrap_or_else(|e| panic!("{}: {e}", descriptor.name));
        reports.push(texts.swap_remove(0));
    }
    std::fs::remove_dir_all(&dir).ok();
    check_or_bless(
        "vmin_all_models.json",
        &format!("[\n{}]\n", reports.join(",\n")),
    );
}

#[test]
fn a_store_record_that_breaks_nesting_is_a_typed_error() {
    // Hand-written stores with one entry that is faulty at some grid
    // point but not at a lower one: a mask no voltage-nested model
    // produces. The campaign must name that entry, never bin its die.
    let dir = std::env::temp_dir().join(format!("killi-vmin-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("not-nested.kds");
    let grid_mask = (1u64 << DEFAULT_GRID.len()) - 1;
    killi_check::check_cases("non_prefix_store_mask", 32, |g| {
        let dies = g.usize_in(1, 5);
        let bad_die = g.usize_in(0, dies);
        let mask = loop {
            let m = g.u64() & grid_mask;
            if m & m.wrapping_add(1) != 0 {
                break m;
            }
        };
        let hostile = DieEntry {
            line: g.usize_in(1, 64) as u32,
            cell: g.usize_in(0, 560) as u16,
            stuck: g.bool(),
            mask,
        };
        let nested = DieEntry {
            line: 0,
            cell: 0,
            stuck: false,
            mask: 0b11,
        };
        let meta = StoreMeta {
            root_seed: 5,
            lines: 64,
            grid: DEFAULT_GRID.to_vec(),
            fault_model: "stuck-at".to_string(),
            dies: dies as u32,
        };
        let mut writer = DieStoreWriter::create(&path, meta).unwrap();
        for die in 0..dies {
            let mut entries = vec![nested];
            if die == bad_die {
                entries.push(hostile);
            }
            writer
                .append(&DieRecord {
                    seed: die as u64,
                    entries,
                })
                .unwrap();
        }
        writer.finish().unwrap();

        let config = VminConfig {
            root_seed: 5,
            dies,
            lines: 64,
            vdds: DEFAULT_GRID.to_vec(),
            threads: 2,
            store: Some(path.clone()),
            ..VminConfig::default()
        };
        match run_campaign(&config.validated().unwrap()) {
            Err(CampaignError::NotNested { die, entry }) => {
                assert_eq!((die, entry), (bad_die, hostile));
            }
            other => panic!("mask {mask:#b}: expected a typed error, got {other:?}"),
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
