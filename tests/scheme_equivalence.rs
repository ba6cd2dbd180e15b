//! Cross-scheme integration tests: all protection schemes run on the same
//! substrate and must uphold the same safety contract, while exhibiting
//! the capability ordering the paper establishes.

use killi_bench::experiments::FIGURE4;
use killi_bench::runner::{baseline_of, run_matrix, MatrixConfig};
use killi_bench::schemes::SchemeConfig;
use killi_repro::fault::cell_model::NormVdd;
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::GpuConfig;
use killi_repro::workloads::Workload;

fn configs(spellings: &[&str]) -> Vec<SchemeConfig> {
    spellings
        .iter()
        .map(|s| SchemeConfig::parse(s).unwrap())
        .collect()
}

fn config(vdd: f64) -> MatrixConfig {
    MatrixConfig {
        ops_per_cu: 20_000,
        seed: 12,
        vdd: NormVdd(vdd),
        fault_model: killi_bench::fault_models::stuck_at(),
        gpu: GpuConfig {
            cus: 2,
            l2: CacheGeometry {
                size_bytes: 256 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            l2_banks: 8,
            mem_latency: 200,
            ..GpuConfig::default()
        },
        threads: 4,
    }
}

#[test]
fn no_scheme_silently_corrupts_at_operating_point() {
    let results = run_matrix(
        &[Workload::Xsbench, Workload::Fft],
        &configs(&FIGURE4),
        &config(0.625),
    );
    for r in &results {
        // The bounded exception is plain Killi's masked-fault hazard.
        let allowed = if r.scheme.starts_with("killi") { 10 } else { 0 };
        assert!(
            r.stats.sdc_events <= allowed,
            "{}/{}: {} SDCs",
            r.workload,
            r.scheme,
            r.stats.sdc_events
        );
    }
}

#[test]
fn stronger_codes_disable_fewer_lines() {
    let results = run_matrix(
        &[Workload::Xsbench],
        &configs(&["flair", "dected", "ms-ecc"]),
        &config(0.575), // aggressive voltage separates the schemes
    );
    let disabled = |s: &str| {
        results
            .iter()
            .find(|r| r.scheme == s)
            .unwrap()
            .disabled_lines
    };
    assert!(
        disabled("flair") > disabled("dected"),
        "flair {} vs dected {}",
        disabled("flair"),
        disabled("dected")
    );
    assert!(
        disabled("dected") > disabled("ms-ecc"),
        "dected {} vs ms-ecc {}",
        disabled("dected"),
        disabled("ms-ecc")
    );
}

#[test]
fn every_scheme_close_to_baseline_at_operating_point() {
    // Figure 4's headline: at 0.625 x VDD all techniques stay within a few
    // percent of the fault-free nominal baseline.
    let results = run_matrix(&[Workload::Miniamr], &configs(&FIGURE4), &config(0.625));
    let base = baseline_of(&results, "miniamr");
    for r in results.iter().filter(|r| r.scheme != "baseline") {
        let norm = r.stats.normalized_time(&base.stats);
        assert!(norm < 1.10, "{} at {:.3}x baseline", r.scheme, norm);
    }
}

#[test]
fn killi_tracks_ecc_cache_size_monotonically_on_capacity_sensitive_load() {
    let results = run_matrix(
        &[Workload::Xsbench],
        &configs(&["killi:ratio=256", "killi:ratio=64", "killi:ratio=16"]),
        &config(0.625),
    );
    let mpki = |s: &str| results.iter().find(|r| r.scheme == s).unwrap().stats.mpki();
    assert!(mpki("killi-1:256") >= mpki("killi-1:64") * 0.999);
    assert!(mpki("killi-1:64") >= mpki("killi-1:16") * 0.999);
}

#[test]
fn flair_online_training_costs_performance() {
    // The overhead the paper excludes from its FLAIR runs: the online
    // DMR/MBIST phase sacrifices capacity and shows up as extra misses.
    let results = run_matrix(
        &[Workload::Xsbench],
        &configs(&["flair", "flair-online"]),
        &config(0.625),
    );
    let cycles = |s: &str| results.iter().find(|r| r.scheme == s).unwrap().stats.cycles;
    assert!(
        cycles("flair-online") > cycles("flair"),
        "online {} vs pre-trained {}",
        cycles("flair-online"),
        cycles("flair")
    );
}

#[test]
fn killi_dected_upgrade_reduces_disabled_lines() {
    // §5.2: re-using the freed parity bits for DEC-TED lets Killi keep
    // two-fault lines that plain Killi must disable.
    let results = run_matrix(
        &[Workload::Xsbench],
        &configs(&["killi:ratio=16", "killi-dected:ratio=16"]),
        &config(0.6),
    );
    let disabled = |s: &str| {
        results
            .iter()
            .find(|r| r.scheme == s)
            .unwrap()
            .disabled_lines
    };
    assert!(
        disabled("killi-dected-1:16") < disabled("killi-1:16"),
        "dected-upgrade {} vs plain {}",
        disabled("killi-dected-1:16"),
        disabled("killi-1:16")
    );
}

#[test]
fn inverted_write_check_classifies_without_error_misses() {
    // §5.6.2 classification happens at install time, so the error-induced
    // misses plain Killi needs for (re)classification largely disappear.
    let results = run_matrix(
        &[Workload::Xsbench],
        &configs(&["killi:ratio=16", "killi-invchk:ratio=16"]),
        &config(0.6),
    );
    let err = |s: &str| {
        results
            .iter()
            .find(|r| r.scheme == s)
            .unwrap()
            .stats
            .l2_error_misses
    };
    assert!(
        err("killi-invchk-1:16") < err("killi-1:16"),
        "inverted {} vs plain {}",
        err("killi-invchk-1:16"),
        err("killi-1:16")
    );
    let sdc = results
        .iter()
        .find(|r| r.scheme == "killi-invchk-1:16")
        .unwrap()
        .stats
        .sdc_events;
    assert_eq!(sdc, 0, "write-verify classification is exact");
}
