//! End-to-end integration tests spanning every crate: fault model ->
//! simulator -> Killi -> statistics.

use std::sync::Arc;

use killi_repro::core::scheme::{KilliConfig, KilliScheme};
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::map::FaultMap;
use killi_repro::fault::model::{default_registry, FaultModelConfig};
use killi_repro::fault::soft::SoftErrorInjector;
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::{GpuConfig, GpuSim};
use killi_repro::sim::protection::Unprotected;
use killi_repro::sim::stats::SimStats;
use killi_repro::workloads::{TraceParams, Workload};

fn small_gpu() -> GpuConfig {
    GpuConfig {
        cus: 2,
        l2: CacheGeometry {
            size_bytes: 256 * 1024,
            ways: 16,
            line_bytes: 64,
        },
        l2_banks: 8,
        mem_latency: 200,
        ..GpuConfig::default()
    }
}

fn lv_map(lines: usize, vdd: f64, seed: u64) -> Arc<FaultMap> {
    let model = default_registry()
        .build(&FaultModelConfig::default(), &())
        .expect("stuck-at always builds");
    Arc::new(model.map(lines, NormVdd(vdd), FreqGhz::PEAK, seed))
}

fn run_killi(vdd: f64, ratio: usize, workload: Workload, seed: u64) -> (SimStats, [u64; 4]) {
    let config = small_gpu();
    let map = lv_map(config.l2.lines(), vdd, seed);
    let killi = KilliScheme::new(
        KilliConfig::with_ratio(ratio),
        Arc::clone(&map),
        config.l2.lines(),
        config.l2.ways,
    );
    let mut sim = GpuSim::new(config, map, Box::new(killi), seed);
    let params = TraceParams {
        cus: config.cus,
        ops_per_cu: 30_000,
        seed,
        l2_bytes: config.l2.size_bytes,
    };
    let stats = sim.run(workload.trace(&params));
    let census = sim
        .l2()
        .protection()
        .metrics()
        .dfh_census
        .expect("killi census");
    (stats, census)
}

#[test]
fn killi_eliminates_nearly_all_corruption() {
    let config = small_gpu();
    let map = lv_map(config.l2.lines(), NormVdd::LV_0_625.0, 3);
    let params = TraceParams {
        cus: config.cus,
        ops_per_cu: 30_000,
        seed: 3,
        l2_bytes: config.l2.size_bytes,
    };
    let unprotected = {
        let mut sim = GpuSim::new(config, Arc::clone(&map), Box::new(Unprotected::new()), 3);
        sim.run(Workload::Xsbench.trace(&params))
    };
    let killi = {
        let scheme = KilliScheme::new(
            KilliConfig::with_ratio(64),
            Arc::clone(&map),
            config.l2.lines(),
            config.l2.ways,
        );
        let mut sim = GpuSim::new(config, map, Box::new(scheme), 3);
        sim.run(Workload::Xsbench.trace(&params))
    };
    assert!(unprotected.sdc_events > 100, "faults must actually bite");
    assert!(
        killi.sdc_events * 50 < unprotected.sdc_events,
        "killi {} vs unprotected {}",
        killi.sdc_events,
        unprotected.sdc_events
    );
}

#[test]
fn dfh_census_matches_fault_population_after_training() {
    // After a workload touches the whole cache, the learned census must
    // reflect reality: lines with 0 faults mostly b'00, multi-fault
    // resident lines disabled.
    let (_, census) = run_killi(0.625, 16, Workload::Xsbench, 11);
    let lines: u64 = census.iter().sum();
    assert_eq!(lines, 4096);
    assert!(
        census[0] > lines * 8 / 10,
        "most lines classified fault-free: {census:?}"
    );
    assert!(census[3] < lines / 20, "few disabled at 0.625: {census:?}");
}

#[test]
fn lower_voltage_disables_more_lines() {
    let (_, c625) = run_killi(0.625, 16, Workload::Xsbench, 11);
    let (_, c575) = run_killi(0.575, 16, Workload::Xsbench, 11);
    assert!(
        c575[3] > 4 * c625[3].max(1),
        "0.575 disabled {} vs 0.625 disabled {}",
        c575[3],
        c625[3]
    );
}

#[test]
fn smaller_ecc_cache_never_faster() {
    let (big, _) = run_killi(0.625, 16, Workload::Xsbench, 5);
    let (small, _) = run_killi(0.625, 256, Workload::Xsbench, 5);
    assert!(
        small.cycles as f64 >= big.cycles as f64 * 0.999,
        "1:256 ({}) should not beat 1:16 ({})",
        small.cycles,
        big.cycles
    );
    assert!(small.mpki() >= big.mpki() * 0.999);
}

#[test]
fn end_to_end_determinism() {
    let (a, ca) = run_killi(0.6, 64, Workload::Fft, 9);
    let (b, cb) = run_killi(0.6, 64, Workload::Fft, 9);
    assert_eq!(a, b);
    assert_eq!(ca, cb);
}

#[test]
fn nominal_voltage_killi_behaves_like_fault_free() {
    // At 1.0 x VDD the map is empty: every line trains to b'00 on first
    // touch and no error machinery should fire.
    let (stats, census) = run_killi(1.0, 64, Workload::Miniamr, 13);
    assert_eq!(stats.sdc_events, 0);
    assert_eq!(stats.l2_error_misses, 0);
    assert_eq!(stats.corrections, 0);
    assert_eq!(census[3], 0, "nothing disabled at nominal voltage");
}

#[test]
fn soft_errors_are_detected_not_silently_delivered() {
    // Inject transient upsets on top of a (nominal-voltage) fault-free
    // cache: parity must convert them into error-induced misses, not SDCs.
    let config = small_gpu();
    let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
    let killi = KilliScheme::new(
        KilliConfig::with_ratio(64),
        Arc::clone(&map),
        config.l2.lines(),
        config.l2.ways,
    );
    let mut sim = GpuSim::new(config, map, Box::new(killi), 21);
    // Bursts up to 4 adjacent bits: the silicon-observed multi-bit upset
    // sizes (Maiz et al.). The 4-way interleaved stable parity detects all
    // of them; wider bursts would need the 16-segment training parity.
    sim.l2_mut()
        .set_soft_errors(SoftErrorInjector::new(21, 0.001, 0.25, 4));
    let params = TraceParams {
        cus: config.cus,
        ops_per_cu: 30_000,
        seed: 21,
        l2_bytes: config.l2.size_bytes,
    };
    let stats = sim.run(Workload::Xsbench.trace(&params));
    assert!(
        stats.l2_error_misses + stats.corrections > 10,
        "injector must have fired: {stats:?}"
    );
    // Multi-bit bursts land in distinct interleaved segments, so parity
    // sees every one of them; the only exposure is a burst compounding
    // with an LV fault in the same residue class.
    assert!(
        stats.sdc_events <= 1,
        "soft errors slipped through: {}",
        stats.sdc_events
    );
}

#[test]
fn write_back_of_stats_is_complete() {
    // Every counter the experiments consume must be populated.
    let (stats, _) = run_killi(0.625, 64, Workload::Pennant, 17);
    assert!(stats.cycles > 0);
    assert!(stats.instructions > 0);
    assert!(stats.loads > 0);
    assert!(stats.stores > 0);
    assert!(stats.l1_hits + stats.l1_misses == stats.loads);
    assert!(stats.l2_tag_accesses > 0);
    assert!(stats.l2_data_accesses > 0);
    assert!(stats.ecc_cache_accesses > 0);
    assert!(stats.mem_reads > 0);
    assert!(stats.mem_writes > 0);
}

#[test]
fn recorded_trace_replays_identically() {
    // Record/replay (killi-sim::tracefile) must be simulation-transparent:
    // a round-tripped trace produces bit-identical statistics.
    let config = small_gpu();
    let params = TraceParams {
        cus: config.cus,
        ops_per_cu: 10_000,
        seed: 31,
        l2_bytes: config.l2.size_bytes,
    };
    let mut buf = Vec::new();
    killi_repro::sim::tracefile::save(&Workload::Fft.trace(&params), &mut buf)
        .expect("in-memory save");
    let replayed = killi_repro::sim::tracefile::load(&mut buf.as_slice()).expect("load");

    let map = lv_map(config.l2.lines(), NormVdd::LV_0_625.0, 31);
    let run = |trace: killi_repro::sim::trace::Trace| {
        let killi = KilliScheme::new(
            KilliConfig::with_ratio(64),
            Arc::clone(&map),
            config.l2.lines(),
            config.l2.ways,
        );
        let mut sim = GpuSim::new(config, Arc::clone(&map), Box::new(killi), 31);
        sim.run(trace)
    };
    let direct = run(Workload::Fft.trace(&params));
    let via_file = run(replayed);
    assert_eq!(direct, via_file);
}
