//! Head-to-head: Killi against the paper's baselines (DECTED, FLAIR,
//! MS-ECC) on a capacity-sensitive workload, including the storage area
//! each scheme pays — the paper's core trade-off in one screen.
//!
//! Run with: `cargo run --release --example scheme_comparison`

use killi_repro::model::area::{checkbits, AreaModel};

use killi_bench::schemes::SchemeConfig;
use killi_bench::sweep::{run_sweep, SweepConfig};
use killi_repro::workloads::Workload;

fn main() {
    // Each scheme's registry spelling and the storage it adds.
    let area = AreaModel::paper();
    let schemes = [
        ("dected", area.per_line_bits(checkbits::DECTED)),
        ("flair", area.per_line_bits(checkbits::SECDED)),
        ("ms-ecc", area.per_line_bits(checkbits::OLSC_PAPER)),
        ("killi:ratio=256", area.killi_bits(256, checkbits::SECDED)),
        ("killi:ratio=16", area.killi_bits(16, checkbits::SECDED)),
    ];
    println!("simulating xsbench under 5 protection schemes at 0.625 x VDD ...");
    // One replicate at one voltage: every scheme on the same fault map
    // and trace, against a fault-free baseline.
    let report = run_sweep(&SweepConfig {
        vdds: vec![0.625],
        schemes: schemes
            .iter()
            .map(|(spelling, _)| SchemeConfig::parse(spelling).expect("a registry spelling"))
            .collect(),
        workloads: vec![Workload::Xsbench],
        ..SweepConfig::paper(60_000, 42, 1)
    });

    println!();
    println!("scheme        norm.time     MPKI   disabled   area (KiB)");
    println!("---------------------------------------------------------");
    // Protected cells follow the baseline, in scheme order.
    for (cell, (_, bits)) in report.cells[1..].iter().zip(schemes) {
        println!(
            "{:<12}  {:>9.4}  {:>7.2}  {:>9}  {:>11.2}",
            cell.scheme,
            cell.metric("norm_time").mean(),
            cell.metric("mpki").mean(),
            cell.metric("disabled_lines").mean(),
            AreaModel::kib(bits),
        );
    }
    println!();
    println!(
        "Killi's trade: half the area of per-line SECDED, baselines-class\n\
         performance — and unlike every baseline above, its disable map was\n\
         learned during this very run instead of by an MBIST pass."
    );
}
