//! Head-to-head: Killi against the paper's baselines (DECTED, FLAIR,
//! MS-ECC) on a capacity-sensitive workload, including the storage area
//! each scheme pays — the paper's core trade-off in one screen.
//!
//! Run with: `cargo run --release --example scheme_comparison`

use killi_repro::fault::cell_model::NormVdd;
use killi_repro::model::area::{checkbits, AreaModel};

use killi_bench::runner::{baseline_of, run_matrix, MatrixConfig};
use killi_bench::schemes::{scheme_label, SchemeConfig};
use killi_repro::workloads::Workload;

fn main() {
    let mut config = MatrixConfig::paper(60_000, 42);
    config.vdd = NormVdd::LV_0_625;
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
    let configs: Vec<SchemeConfig> = schemes
        .iter()
        .map(|(spelling, _)| SchemeConfig::parse(spelling).expect("a registry spelling"))
        .collect();
    let results = run_matrix(&[Workload::Xsbench], &configs, &config);
    let base = baseline_of(&results, "xsbench");

    println!();
    println!("scheme        norm.time     MPKI   disabled   area (KiB)");
    println!("---------------------------------------------------------");
    for (config, (_, bits)) in configs.iter().zip(schemes) {
        let label = scheme_label(config).expect("a registered scheme");
        let r = results.iter().find(|r| r.scheme == label).expect("result");
        println!(
            "{:<12}  {:>9.4}  {:>7.2}  {:>9}  {:>11.2}",
            r.scheme,
            r.stats.normalized_time(&base.stats),
            r.stats.mpki(),
            r.disabled_lines,
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
