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
//!    nesting makes a campaign on a nested model return a typed error,
//!    and truncated, bit-flipped or field-overwritten store bytes make
//!    opening and reading it return a typed error, never panic.

use killi_repro::bench::fault_models::FaultModelConfig;
use killi_repro::bench::schemes::{default_registry as scheme_registry, SchemeConfig};
use killi_repro::fault::model::default_registry as fault_registry;
use killi_repro::vmin::{
    check_report, run_campaign, CampaignError, DieEntry, DieRecord, DieStoreReader, DieStoreWriter,
    SearchMode, StoreError, StoreMeta, VminConfig, DEFAULT_GRID,
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

/// FNV-1a, as the die store checksums its header and index.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn hostile_die_store_bytes_are_typed_errors() {
    let dir = std::env::temp_dir().join(format!("killi-vmin-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.kds");
    let write_store = |dies: u32| {
        let meta = StoreMeta {
            root_seed: 9,
            lines: 64,
            grid: DEFAULT_GRID.to_vec(),
            fault_model: "stuck-at".to_string(),
            dies,
        };
        let mut writer = DieStoreWriter::create(&path, meta).unwrap();
        for die in 0..dies {
            let entries = (0..die + 2)
                .map(|i| DieEntry {
                    line: 3 * i,
                    cell: (7 * i) as u16,
                    stuck: i % 2 == 0,
                    mask: (1 << (i % 7 + 1)) - 1,
                })
                .collect();
            writer
                .append(&DieRecord {
                    seed: u64::from(die),
                    entries,
                })
                .unwrap();
        }
        writer.finish().unwrap();
        std::fs::read(&path).unwrap()
    };

    // A footer offset near u64::MAX used to overflow the size check.
    let mut one = write_store(1);
    let footer = one.len() - 24;
    one[footer..footer + 8].copy_from_slice(&(u64::MAX - 4).to_le_bytes());
    std::fs::write(&path, &one).unwrap();
    match DieStoreReader::open(&path) {
        Err(StoreError::Format { reason }) => {
            assert!(reason.contains("index offset inconsistent"), "{reason}");
        }
        other => panic!("expected a format error, got {other:?}"),
    }

    // The fields of the valid three-die store, as (offset, width).
    let good = write_store(3);
    let grid_len = DEFAULT_GRID.len();
    let label_end = 38 + 8 * grid_len + "stuck-at".len();
    let header_end = label_end + 4;
    let footer = good.len() - 24;
    let index_offset = u64::from_le_bytes(good[footer..footer + 8].try_into().unwrap()) as usize;
    let mut fields: Vec<(usize, usize)> = vec![(18, 8), (26, 4), (30, 4)];
    fields.extend((0..grid_len).map(|i| (34 + 8 * i, 8)));
    fields.extend([(34 + 8 * grid_len, 4), (label_end, 4)]);
    fields.extend((index_offset..footer).step_by(8).map(|at| (at, 8)));
    fields.extend([(footer, 8), (footer + 8, 8)]);
    // Each record's seed, entry count and first entry's fields.
    for die in 0..3 {
        let at = index_offset + 8 * die;
        let record = u64::from_le_bytes(good[at..at + 8].try_into().unwrap()) as usize;
        fields.extend([(record, 8), (record + 8, 4), (record + 12, 4)]);
        fields.extend([(record + 16, 2), (record + 18, 1), (record + 20, 8)]);
    }
    let hostile: [u64; 8] = [
        0,
        1,
        u64::from(u32::MAX),
        u64::MAX,
        u64::MAX - 4,
        f64::NAN.to_bits(),
        f64::INFINITY.to_bits(),
        good.len() as u64,
    ];

    killi_check::check_cases("die_store_bytes_fuzz", 1024, |g| {
        let mut bytes = good.clone();
        match g.usize_in(0, 4) {
            0 => bytes.truncate(g.usize_in(0, good.len())),
            1 => {
                for _ in 0..g.usize_in(1, 9) {
                    let at = g.usize_in(0, bytes.len());
                    bytes[at] ^= 1 << g.usize_in(0, 8);
                }
            }
            reseal => {
                let &(at, width) = g.pick(&fields);
                let value = g.pick(&hostile).to_le_bytes();
                bytes[at..at + width].copy_from_slice(&value[..width]);
                // Half the overwrites re-seal the checksum, so the checks
                // behind it see them too.
                if reseal == 3 {
                    let sum = fnv1a(
                        fnv1a(0xcbf2_9ce4_8422_2325, &bytes[..header_end]),
                        &bytes[index_offset..footer],
                    );
                    bytes[footer + 8..footer + 16].copy_from_slice(&sum.to_le_bytes());
                }
            }
        }
        std::fs::write(&path, &bytes).unwrap();
        // Each call returns a value or a typed error; a panic fails here.
        if let Ok(mut reader) = DieStoreReader::open(&path) {
            for die in 0..=(reader.meta().dies as usize).min(4) {
                let _ = reader.read_die(die);
            }
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
