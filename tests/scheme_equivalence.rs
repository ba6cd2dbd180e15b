//! Cross-scheme integration tests: all protection schemes run on the same
//! substrate and must uphold the same safety contract, while exhibiting
//! the capability ordering the paper establishes. Every comparison is a
//! one-replicate sweep at one voltage, so each scheme sees replicate 0's
//! fault map and traces.

use killi_bench::experiments::FIGURE4;
use killi_bench::schemes::SchemeConfig;
use killi_bench::sweep::{run_sweep, SweepCell, SweepConfig, SweepReport};
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::GpuConfig;
use killi_repro::workloads::Workload;

/// A one-voltage, one-replicate sweep on a 2-CU GPU: root seed 12, a
/// 256 KiB L2 and 20,000 ops per CU (schemes and workloads left empty).
fn config(vdd: f64) -> SweepConfig {
    SweepConfig {
        root_seed: 12,
        replications: 1,
        vdds: vec![vdd],
        schemes: Vec::new(),
        fault_model: killi_bench::fault_models::stuck_at(),
        workloads: Vec::new(),
        ops_per_cu: 20_000,
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
        progress_every: 0,
        trace_capacity: None,
    }
}

/// The smaller substrate of the inverted-write-check runs: root seed 7,
/// a 128 KiB L2 with 4 banks, 100-cycle memory and 3000 ops per CU.
fn tiny(vdd: f64) -> SweepConfig {
    let base = config(vdd);
    SweepConfig {
        root_seed: 7,
        ops_per_cu: 3000,
        gpu: GpuConfig {
            l2: CacheGeometry {
                size_bytes: 128 * 1024,
                ..base.gpu.l2
            },
            l2_banks: 4,
            mem_latency: 100,
            ..base.gpu
        },
        ..base
    }
}

/// Runs `config` with `spellings` on `workloads`.
fn sweep(config: SweepConfig, workloads: &[Workload], spellings: &[&str]) -> SweepReport {
    run_sweep(&SweepConfig {
        schemes: spellings
            .iter()
            .map(|s| SchemeConfig::parse(s).unwrap())
            .collect(),
        workloads: workloads.to_vec(),
        ..config
    })
}

/// The protected cell of `label` (one workload per sweep).
fn cell<'a>(report: &'a SweepReport, label: &str) -> &'a SweepCell {
    report
        .cells
        .iter()
        .find(|c| c.scheme == label)
        .unwrap_or_else(|| panic!("no {label} cell"))
}

/// A metric of the one replicate of `label`'s cell.
fn value(report: &SweepReport, label: &str, metric: &str) -> f64 {
    cell(report, label).metric(metric).mean()
}

#[test]
fn no_scheme_silently_corrupts_at_operating_point() {
    let report = sweep(config(0.625), &[Workload::Xsbench, Workload::Fft], &FIGURE4);
    for c in &report.cells {
        // The bounded exception is plain Killi's masked-fault hazard.
        let allowed = if c.scheme.starts_with("killi") {
            10.0
        } else {
            0.0
        };
        let sdc = c.metric("sdc_events").mean();
        assert!(sdc <= allowed, "{}/{}: {sdc} SDCs", c.workload, c.scheme);
    }
}

#[test]
fn stronger_codes_disable_fewer_lines() {
    let report = sweep(
        config(0.575), // aggressive voltage separates the schemes
        &[Workload::Xsbench],
        &["flair", "dected", "ms-ecc"],
    );
    let disabled = |s: &str| value(&report, s, "disabled_lines");
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
    let report = sweep(config(0.625), &[Workload::Miniamr], &FIGURE4);
    for c in report.cells.iter().filter(|c| c.scheme != "baseline") {
        let norm = c.metric("norm_time").mean();
        assert!(norm < 1.10, "{} at {:.3}x baseline", c.scheme, norm);
    }
}

#[test]
fn killi_tracks_ecc_cache_size_monotonically_on_capacity_sensitive_load() {
    let report = sweep(
        config(0.625),
        &[Workload::Xsbench],
        &["killi:ratio=256", "killi:ratio=64", "killi:ratio=16"],
    );
    let mpki = |s: &str| value(&report, s, "mpki");
    assert!(mpki("killi-1:256") >= mpki("killi-1:64") * 0.999);
    assert!(mpki("killi-1:64") >= mpki("killi-1:16") * 0.999);
}

#[test]
fn flair_online_training_costs_performance() {
    // The overhead the paper excludes from its FLAIR runs: the online
    // DMR/MBIST phase sacrifices capacity and shows up as extra misses.
    let report = sweep(
        config(0.625),
        &[Workload::Xsbench],
        &["flair", "flair-online"],
    );
    let cycles = |s: &str| value(&report, s, "cycles");
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
    let report = sweep(
        config(0.6),
        &[Workload::Xsbench],
        &["killi:ratio=16", "killi-dected:ratio=16"],
    );
    let disabled = |s: &str| value(&report, s, "disabled_lines");
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
    let report = sweep(
        config(0.6),
        &[Workload::Xsbench],
        &["killi:ratio=16", "killi-invchk:ratio=16"],
    );
    let err = |s: &str| value(&report, s, "l2_error_misses");
    assert!(
        err("killi-invchk-1:16") < err("killi-1:16"),
        "inverted {} vs plain {}",
        err("killi-invchk-1:16"),
        err("killi-1:16")
    );
    // Write-verify classification is exact: no silent corruption here,
    // nor at the paper's 0.625 x VDD operating point, where verifying
    // both polarities at install time exposes every masked stuck-at fault
    // (on the smaller substrate).
    let operating_point = sweep(
        tiny(0.625),
        &[Workload::Xsbench, Workload::Fft, Workload::Hacc],
        &["killi-invchk:ratio=16", "flair", "killi:ratio=16"],
    );
    for c in &operating_point.cells {
        // Every cell ran. Plain Killi's masked-fault hazard (§5.6.2)
        // allows a tiny SDC rate at this voltage; beyond a handful would
        // be a protection bug.
        let (cycles, sdc) = (c.metric("cycles").mean(), c.metric("sdc_events").mean());
        assert!(cycles > 0.0, "{}/{} never ran", c.workload, c.scheme);
        assert!(sdc <= 5.0, "{}/{}: {sdc} SDCs", c.workload, c.scheme);
    }
    for report in [&report, &operating_point] {
        for c in report
            .cells
            .iter()
            .filter(|c| c.scheme == "killi-invchk-1:16")
        {
            let sdc = c.metric("sdc_events").mean();
            assert_eq!(sdc, 0.0, "{}/{} at {}", c.workload, c.scheme, c.vdd);
        }
    }
}

#[test]
fn inverted_write_check_reduces_sdcs_at_extreme_voltage() {
    // Far below the operating range, >= 3-fault lines can alias SECDED
    // into parity-consistent miscorrections (the paper's own coverage
    // analysis allows this: Figure 6 is < 100 % there). The inverted
    // check must still do no worse than plain Killi and keep the
    // residual rate tiny.
    let report = sweep(
        tiny(0.55),
        &[Workload::Fft],
        &["killi:ratio=16", "killi-invchk:ratio=16"],
    );
    let sdc = |s: &str| value(&report, s, "sdc_events");
    assert!(
        sdc("killi-invchk-1:16") <= sdc("killi-1:16"),
        "inverted check made things worse"
    );
    assert!(sdc("killi-invchk-1:16") <= 2.0);
}
