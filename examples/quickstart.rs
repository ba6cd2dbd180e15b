//! Quickstart: put a Killi-protected GPU L2 under low voltage and watch it
//! classify its fault population at runtime — no MBIST anywhere.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use killi_repro::core::scheme::{KilliConfig, KilliScheme};
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::model::{default_registry, FaultModelConfig};
use killi_repro::sim::gpu::{GpuConfig, GpuSim};
use killi_repro::sim::protection::Unprotected;
use killi_repro::workloads::{TraceParams, Workload};

fn main() {
    // The paper's GPU: 8 CUs, 2 MB 16-way L2 (Table 3), undervolted to
    // 0.625 x VDD while the rest of the chip stays at nominal.
    let config = GpuConfig::default();
    // The registry's default fault model is the paper's stuck-at curve;
    // try `FaultModelConfig::parse("clustered:rows=4,corr=0.8")` for the
    // row-correlated variant.
    let model = default_registry()
        .build(&FaultModelConfig::default(), &())
        .expect("stuck-at always builds");
    let map = Arc::new(model.map(config.l2.lines(), NormVdd::LV_0_625, FreqGhz::PEAK, 42));
    let faulty_lines = (0..map.lines())
        .filter(|&l| map.data_fault_count(l) > 0)
        .count();
    println!(
        "fault map @ 0.625 x VDD: {} of {} lines have at least one stuck-at cell",
        faulty_lines,
        map.lines()
    );

    // First, what happens with no protection at all?
    let params = TraceParams::paper(100_000, 42);
    let unprotected_sdc = {
        let mut sim = GpuSim::new(config, Arc::clone(&map), Box::new(Unprotected::new()), 42);
        sim.run(Workload::Xsbench.trace(&params)).sdc_events
    };
    println!("unprotected L2 at 0.625 x VDD: {unprotected_sdc} corrupted loads delivered");

    // Killi with the paper's mid-size ECC cache (one entry per 64 lines).
    let killi = KilliScheme::new(
        KilliConfig::with_ratio(64),
        Arc::clone(&map),
        config.l2.lines(),
        config.l2.ways,
    );
    let mut sim = GpuSim::new(config, Arc::clone(&map), Box::new(killi), 42);

    // Drive it with the XSBench-like workload (random table lookups).
    let stats = sim.run(Workload::Xsbench.trace(&params));

    println!("kernel finished in {} cycles", stats.cycles);
    println!(
        "L2: {} hits, {} misses ({} error-induced), MPKI {:.1}",
        stats.l2_hits,
        stats.l2_misses,
        stats.l2_error_misses,
        stats.mpki()
    );
    println!(
        "protection: {} corrections on delivered data, {} silent corruptions",
        stats.corrections, stats.sdc_events
    );
    // Killi cannot be perfect (the paper's §5.6.2 masked-fault hazard and
    // its Figure 6 coverage < 100 %), but it must eliminate virtually all
    // of the corruption an unprotected low-voltage cache would deliver.
    assert!(
        stats.sdc_events * 100 < unprotected_sdc,
        "Killi removed too little corruption: {} vs {}",
        stats.sdc_events,
        unprotected_sdc
    );
    println!(
        "Killi removed {:.3}% of silent corruptions (residual: the paper's\n\
         masked-fault hazard, eliminated entirely by the §5.6.2 inverted-write\n\
         check — see the docs for `KilliConfig::inverted_write_check`)",
        100.0 * (1.0 - stats.sdc_events as f64 / unprotected_sdc as f64)
    );
}
