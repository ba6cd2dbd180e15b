//! Every experiment of the reproduction in one table. [`EXPERIMENTS`] maps
//! each id (the stem of its `results/<id>.txt` report) to a function that
//! renders the experiment's artifacts; `killi repro` runs the table and
//! writes the artifacts, so nothing here touches the filesystem.
//!
//! Every scheme comparison is a sweep ([`crate::sweep::run_sweep`]); the
//! single-map ones are one-replicate sweeps at 0.625 x VDD, drawing die
//! `derive_seed(42, "die", [0])` and traces `derive_seed(42, "trace",
//! [w, 0])` like any sweep. Only `dvfs` (one simulator cold, then warm)
//! and `writeback` (the §5.6.1 escalation has no registry spelling) drive
//! the simulator themselves.

use std::sync::{Arc, OnceLock};

use killi::scheme::{KilliConfig, KilliScheme};
use killi_fault::cell_model::{FailureKind, FreqGhz, NormVdd};
use killi_fault::line_stats::LineFaultDistribution;
use killi_fault::map::FaultMap;
use killi_fault::rng::derive_seed;
use killi_model::area::{checkbits, AreaModel};
use killi_model::coverage::coverage_at;
use killi_model::power::{PowerModel, SchemePower};
use killi_model::vmin::yield_samples;
use killi_obs::Counter;
use killi_sim::cache::WritePolicy;
use killi_sim::gpu::{GpuConfig, GpuSim};
use killi_sim::protection::LineProtection;
use killi_workloads::Workload;

use crate::exec::{par_map, Progress};
use crate::fault_models::{build_fault_model, stuck_at, stuck_at_cell_model};
use crate::report::{pct, Table};
use crate::runner::trace_params;
use crate::schemes::{build_scheme, BuildCtx, SchemeConfig, BASELINE};
use crate::sweep::{json_array, run_sweep, Accumulator, SweepCell, SweepConfig, SweepReport};

/// Root seed of every experiment's fault maps and traces.
const SEED: u64 = 42;

/// The Figure 4/5 comparison set, as registry spellings.
pub const FIGURE4: [&str; 8] = [
    "dected",
    "flair",
    "ms-ecc",
    "killi:ratio=256",
    "killi:ratio=128",
    "killi:ratio=64",
    "killi:ratio=32",
    "killi:ratio=16",
];

/// The config of a built-in registry spelling.
fn scheme(spelling: &str) -> SchemeConfig {
    SchemeConfig::parse(spelling).expect("built-in spellings parse")
}

/// One `killi repro` invocation: the simulation scale, plus the Figure 4
/// sweep, which is run on first use and shared by fig4, fig5 and table6.
#[derive(Debug)]
pub struct Repro {
    /// Operations per CU stream of every simulation.
    ops_per_cu: usize,
    /// Replicate fault maps of the replicated experiments (§5.5, dvfs).
    replications: usize,
    /// Worker threads; results do not depend on it.
    threads: usize,
    figure4: OnceLock<SweepReport>,
}

impl Repro {
    /// A run at the given scale on every available core.
    pub fn new(ops_per_cu: usize, replications: usize) -> Self {
        Repro {
            ops_per_cu,
            replications,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            figure4: OnceLock::new(),
        }
    }

    /// A one-replicate sweep of `schemes` on `workloads` at 0.625 x VDD
    /// on the paper's GPU: every cell runs on replicate 0's die and
    /// traces, and the baselines on a fault-free L2.
    fn single_map(&self, workloads: &[Workload], schemes: &[SchemeConfig]) -> SweepReport {
        run_sweep(&SweepConfig {
            vdds: vec![NormVdd::LV_0_625.0],
            schemes: schemes.to_vec(),
            workloads: workloads.to_vec(),
            threads: self.threads,
            ..SweepConfig::paper(self.ops_per_cu, SEED, 1)
        })
    }

    /// The Figure 4 sweep (every workload under [`FIGURE4`]), run once
    /// per invocation.
    fn figure4(&self) -> &SweepReport {
        self.figure4
            .get_or_init(|| self.single_map(&Workload::ALL, &FIGURE4.map(scheme)))
    }
}

/// The cell of `label` (or [`BASELINE`]) on `workload` in a one-voltage
/// report.
fn cell<'a>(report: &'a SweepReport, label: &str, workload: Workload) -> &'a SweepCell {
    let vdd = if label == BASELINE {
        1.0
    } else {
        report.vdds[0]
    };
    report
        .cell(vdd, label, workload.name())
        .expect("a cell of the sweep")
}

/// One entry of the experiment table.
#[derive(Debug)]
pub struct Experiment {
    /// The `killi repro --only` id; `<id>.txt` is its first artifact.
    pub id: &'static str,
    /// Artifact file names under `results/`, in render order.
    pub artifacts: &'static [&'static str],
    /// Whether it runs the GPU simulator (and so scales with `--ops`).
    pub simulates: bool,
    render: fn(&Repro) -> Vec<String>,
}

impl Experiment {
    const fn analytic(
        id: &'static str,
        artifacts: &'static [&'static str],
        render: fn(&Repro) -> Vec<String>,
    ) -> Self {
        Experiment {
            id,
            artifacts,
            simulates: false,
            render,
        }
    }

    const fn simulated(
        id: &'static str,
        artifacts: &'static [&'static str],
        render: fn(&Repro) -> Vec<String>,
    ) -> Self {
        Experiment {
            simulates: true,
            ..Experiment::analytic(id, artifacts, render)
        }
    }

    /// Renders the experiment's artifacts as (file name, contents).
    ///
    /// # Panics
    ///
    /// Panics when the renderer returns a different artifact count than
    /// the table declares (a table bug, caught by the unit tests).
    pub fn run(&self, repro: &Repro) -> Vec<(&'static str, String)> {
        let contents = (self.render)(repro);
        assert_eq!(
            contents.len(),
            self.artifacts.len(),
            "{}: artifact count",
            self.id
        );
        self.artifacts.iter().copied().zip(contents).collect()
    }
}

/// The experiment table, in the order `killi repro` runs it.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::analytic("fig1", &["fig1.txt"], |_| vec![fig1()]),
    Experiment::analytic("fig2", &["fig2.txt"], |_| vec![fig2(SEED)]),
    Experiment::analytic("fig6", &["fig6.txt"], |_| vec![fig6()]),
    Experiment::analytic("table4", &["table4.txt"], |_| vec![table4()]),
    Experiment::analytic("table5", &["table5.txt"], |_| vec![table5()]),
    Experiment::analytic("table7", &["table7.txt"], |_| vec![table7()]),
    Experiment::simulated("fig4", &["fig4.txt"], |r| vec![fig4(r.figure4())]),
    Experiment::simulated("fig5", &["fig5.txt"], |r| vec![fig5(r.figure4())]),
    Experiment::simulated("table6", &["table6.txt"], |r| vec![table6(r.figure4())]),
    Experiment::simulated("ablation", &["ablation.txt"], |r| vec![ablations(r)]),
    Experiment::simulated("lowvmin", &["lowvmin.txt", "lowvmin.json"], lowvmin),
    Experiment::simulated("dvfs", &["dvfs.txt"], |r| vec![dvfs(r)]),
    Experiment::simulated("writeback", &["writeback.txt"], |r| {
        vec![writeback(r.ops_per_cu)]
    }),
    Experiment::analytic("yield", &["yield.txt"], |r| vec![fleet_yield(r.threads)]),
    Experiment::simulated("eccsweep", &["eccsweep.txt"], |r| vec![eccsweep(r)]),
];

/// The stuck-at fault map of an L2 with `lines` lines at 0.625 x VDD.
fn lv_map(lines: usize, seed: u64) -> Arc<FaultMap> {
    let model = build_fault_model(&stuck_at()).expect("stuck-at always builds");
    Arc::new(model.map(lines, NormVdd::LV_0_625, FreqGhz::PEAK, seed))
}

/// Figure 1: SRAM cell failure probability vs normalized VDD at 1 GHz.
pub fn fig1() -> String {
    let model = stuck_at_cell_model();
    let mut t = Table::new(vec![
        "vdd",
        "p_read_disturb",
        "p_writeability",
        "p_combined",
        "p_median_line",
    ]);
    let mut v = 0.50;
    while v <= 1.001 {
        let vdd = NormVdd(v);
        t.row(vec![
            format!("{v:.3}"),
            format!(
                "{:.3e}",
                model.p_cell_mean(vdd, FreqGhz::PEAK, FailureKind::ReadDisturb)
            ),
            format!(
                "{:.3e}",
                model.p_cell_mean(vdd, FreqGhz::PEAK, FailureKind::Writeability)
            ),
            format!(
                "{:.3e}",
                model.p_cell_mean(vdd, FreqGhz::PEAK, FailureKind::Combined)
            ),
            format!(
                "{:.3e}",
                model.p_cell_median(vdd, FreqGhz::PEAK, FailureKind::Combined)
            ),
        ]);
        v += 0.025;
    }
    format!(
        "Figure 1: SRAM cell failure probability vs normalized VDD (1 GHz)\n\
         (model calibrated to the paper's 14nm FinFET aggregates)\n\n{}",
        t.render()
    )
}

/// Figure 2: fraction of 64B lines with 0 / 1 / >= 2 failures vs VDD,
/// analytic and sampled from an actual fault map.
pub fn fig2(seed: u64) -> String {
    let model = stuck_at_cell_model();
    let fault_model = build_fault_model(&stuck_at()).expect("stuck-at always builds");
    let mut t = Table::new(vec![
        "vdd",
        "zero",
        "one",
        "two_plus",
        "zero(map)",
        "one(map)",
        "two_plus(map)",
    ]);
    for v in [0.70, 0.675, 0.65, 0.625, 0.60, 0.575, 0.55] {
        let vdd = NormVdd(v);
        let ana = LineFaultDistribution::at(&model, vdd, FreqGhz::PEAK);
        let map = fault_model.map(32768, vdd, FreqGhz::PEAK, seed);
        let meas = LineFaultDistribution::measured(&map);
        t.row(vec![
            format!("{v:.3}"),
            pct(ana.zero, 2),
            pct(ana.one, 2),
            pct(ana.two_plus, 2),
            pct(meas.zero, 2),
            pct(meas.one, 2),
            pct(meas.two_plus, 2),
        ]);
    }
    format!(
        "Figure 2: lines with 0, 1, and >= 2 failures (523-cell analytic /\n\
         512-data-cell sampled 2MB map)\n\n{}",
        t.render()
    )
}

/// Figure 4: kernel execution time normalized to the fault-free baseline.
pub fn fig4(report: &SweepReport) -> String {
    let schemes = &report.schemes;
    let mut header = vec!["workload".to_string()];
    header.extend(schemes.iter().cloned());
    let mut t = Table::new(header);
    let mut geo: Vec<f64> = vec![0.0; schemes.len()];
    for w in Workload::ALL {
        let mut row = vec![w.name().to_string()];
        for (i, s) in schemes.iter().enumerate() {
            let norm = cell(report, s, w).metric("norm_time").mean();
            geo[i] += norm.ln();
            row.push(format!("{norm:.4}"));
        }
        t.row(row);
    }
    let mut gm = vec!["geomean".to_string()];
    for g in &geo {
        gm.push(format!("{:.4}", (g / Workload::ALL.len() as f64).exp()));
    }
    t.row(gm);
    format!(
        "Figure 4: GPU kernel execution time at 0.625 x VDD, normalized to a\n\
         fault-free system at 1.0 x VDD (paper: Killi <= 1.008 except FFT/XSBench\n\
         at small ECC caches, max 1.05)\n\n{}",
        t.render()
    )
}

/// Figure 5: L2 MPKI per workload and scheme, split into the paper's
/// compute-bound (< 50) and memory-bound (> 100) plots.
pub fn fig5(report: &SweepReport) -> String {
    let schemes: Vec<&str> = std::iter::once(BASELINE)
        .chain(report.schemes.iter().map(String::as_str))
        .collect();
    let render_bucket = |memory_bound: bool| -> String {
        let mut header = vec!["workload".to_string()];
        header.extend(schemes.iter().map(|s| s.to_string()));
        let mut t = Table::new(header);
        for w in Workload::ALL {
            if w.is_memory_bound() != memory_bound {
                continue;
            }
            let mut row = vec![w.name().to_string()];
            for s in &schemes {
                row.push(format!("{:.2}", cell(report, s, w).metric("mpki").mean()));
            }
            t.row(row);
        }
        t.render()
    };
    format!(
        "Figure 5: L2 misses per kilo-instruction at 0.625 x VDD\n\n\
         Compute-bound workloads (paper bucket: MPKI < 50):\n{}\n\
         Memory-bound workloads (paper bucket: MPKI > 100):\n{}",
        render_bucket(false),
        render_bucket(true)
    )
}

/// Figure 6: percentage of lines whose fault count each technique
/// classifies correctly, across voltage. The analytic §5.3 columns are
/// cross-validated by Monte-Carlo runs of the *actual* codecs and Table 2
/// classifier (columns suffixed `(mc)`).
pub fn fig6() -> String {
    let model = stuck_at_cell_model();
    let mut t = Table::new(vec![
        "vdd",
        "parity16",
        "secded",
        "dected",
        "ms-ecc",
        "flair",
        "killi",
        "secded(mc)",
        "dected(mc)",
        "killi(mc)",
    ]);
    for v in [0.675, 0.65, 0.625, 0.60, 0.575, 0.55, 0.525, 0.50] {
        let c = coverage_at(&model, NormVdd(v));
        let mc = crate::empirical::measure(&model, NormVdd(v), 20_000, 42);
        t.row(vec![
            format!("{v:.3}"),
            pct(c.parity16, 4),
            pct(c.secded, 4),
            pct(c.dected, 4),
            pct(c.msecc, 4),
            pct(c.flair, 4),
            pct(c.killi, 4),
            pct(mc.secded, 2),
            pct(mc.dected, 2),
            pct(mc.killi, 2),
        ]);
    }
    format!(
        "Figure 6: correct fault-classification coverage without MBIST\n\
         (paper: all techniques 100% down to 0.6 x VDD; below that only Killi\n\
         and FLAIR stay near 100%; (mc) columns = Monte-Carlo over the real\n\
         codecs and Table 2 classifier, 20k lines each)\n\n{}",
        t.render()
    )
}

/// Table 4: Killi storage area with stronger ECC-cache codes, normalized
/// to per-line SECDED.
pub fn table4() -> String {
    let m = AreaModel::paper();
    let ratios = [256usize, 128, 64, 32, 16];
    let mut header = vec!["code".to_string()];
    header.extend(ratios.iter().map(|r| format!("1:{r}")));
    let mut t = Table::new(header);
    for (name, code) in [
        ("DECTED", checkbits::DECTED),
        ("TECQED", checkbits::TECQED),
        ("6EC7ED", checkbits::SIX_EC),
    ] {
        let mut row = vec![name.to_string()];
        for &r in &ratios {
            row.push(format!("{:.2}", m.ratio_to_secded(m.killi_bits(r, code))));
        }
        t.row(row);
    }
    format!(
        "Table 4: Killi storage area with DECTED/TECQED/6EC7ED ECC-cache codes,\n\
         normalized to per-line SECDED (paper row DECTED: 0.51..0.71, TECQED:\n\
         0.52..0.82, 6EC7ED: 0.53..0.97)\n\n{}",
        t.render()
    )
}

/// Table 5: area comparison across protection schemes.
pub fn table5() -> String {
    let m = AreaModel::paper();
    let mut t = Table::new(vec!["scheme", "added KiB", "ratio vs SECDED", "% over L2"]);
    let mut push = |name: &str, bits: usize| {
        t.row(vec![
            name.to_string(),
            format!("{:.2}", AreaModel::kib(bits)),
            format!("{:.2}", m.ratio_to_secded(bits)),
            pct(m.fraction_of_l2(bits), 2),
        ]);
    };
    push("DECTED", m.per_line_bits(checkbits::DECTED));
    push("MS-ECC (paper cfg)", m.per_line_bits(checkbits::OLSC_PAPER));
    push("MS-ECC (our OLSC)", m.per_line_bits(checkbits::OLSC_IMPL));
    push("SECDED", m.per_line_bits(checkbits::SECDED));
    for r in [256usize, 128, 64, 32, 16] {
        push(&format!("Killi 1:{r}"), m.killi_bits(r, checkbits::SECDED));
    }
    format!(
        "Table 5: error-protection area (paper: DECTED 1.9x / 4.3%, MS-ECC 18x /\n\
         38.6%, SECDED 1x / 2.3%, Killi 0.51x-0.71x / 1.2%-1.67%)\n\n{}",
        t.render()
    )
}

/// Table 6: L2 power normalized to the fault-free nominal-VDD baseline,
/// using measured access counts from the Figure 4 sweep.
pub fn table6(report: &SweepReport) -> String {
    let pm = PowerModel::paper();
    let entries = [
        ("dected", SchemePower::dected()),
        ("flair", SchemePower::flair()),
        ("ms-ecc", SchemePower::msecc()),
        ("killi-1:256", SchemePower::killi(256)),
        ("killi-1:128", SchemePower::killi(128)),
        ("killi-1:64", SchemePower::killi(64)),
        ("killi-1:32", SchemePower::killi(32)),
        ("killi-1:16", SchemePower::killi(16)),
    ];
    let mut t = Table::new(vec!["scheme", "normalized power"]);
    for (label, sp) in entries {
        // Average the model over every workload and replicate, each run
        // against its own replicate's baseline.
        let mut acc = 0.0;
        let mut n = 0usize;
        for w in Workload::ALL {
            let base = cell(report, BASELINE, w);
            for (run, base) in cell(report, label, w).runs.iter().zip(&base.runs) {
                acc += pm.normalized(sp, run, base);
                n += 1;
            }
        }
        t.row(vec![label.to_string(), pct(acc / n as f64, 1)]);
    }
    format!(
        "Table 6: L2 power at 0.625 x VDD, normalized to fault-free nominal\n\
         (paper: DECTED 43.7, MS-ECC 55.3, FLAIR 42.6, Killi 40.3..42.4)\n\n{}",
        t.render()
    )
}

/// Table 7: Killi-with-OLSC storage vs MS-ECC at matched capacity for
/// lower-Vmin operation.
pub fn table7() -> String {
    let model = stuck_at_cell_model();
    let m = AreaModel::paper();
    let mut t = Table::new(vec![
        "vdd",
        "L2 capacity target",
        "Killi ECC-cache ratio",
        "Killi area / MS-ECC",
    ]);
    for (v, ratio) in [(0.600, 8usize), (0.575, 2)] {
        let capacity =
            LineFaultDistribution::enabled_fraction_at(&model, NormVdd(v), FreqGhz::PEAK, 523, 11);
        t.row(vec![
            format!("{v:.3}"),
            pct(capacity, 1),
            format!("1:{ratio}"),
            pct(m.killi_olsc_vs_msecc(ratio), 1),
        ]);
    }
    format!(
        "Table 7: Killi (with OLSC in the ECC cache) vs MS-ECC at matched\n\
         capacity (paper: 99.8% target -> 17%, 69.6% target -> 65%)\n\n{}",
        t.render()
    )
}

/// Ablation study: the §4.4 optimizations plus the §5.2 / §5.6.2
/// extensions, on the capacity-sensitive workloads.
pub fn ablations(repro: &Repro) -> String {
    let workloads = [Workload::Xsbench, Workload::Fft, Workload::Pennant];
    let spellings = [
        "killi:ratio=64",
        "killi-no-victim-prio",
        "killi-no-evict-train",
        "killi-no-promotion",
        "killi-dected:ratio=64",
        "killi-invchk:ratio=64",
        "flair-online",
    ];
    let report = repro.single_map(&workloads, &spellings.map(scheme));
    let mut header = vec!["scheme".to_string()];
    for w in workloads {
        header.push(format!("{} time", w.name()));
        header.push(format!("{} mpki", w.name()));
    }
    let mut t = Table::new(header);
    for label in &report.schemes {
        let mut row = vec![label.clone()];
        for w in workloads {
            let c = cell(&report, label, w);
            row.push(format!("{:.4}", c.metric("norm_time").mean()));
            row.push(format!("{:.2}", c.metric("mpki").mean()));
        }
        t.row(row);
    }
    format!(
        "Ablations: Killi §4.4 optimizations, §5.2 DECTED upgrade, §5.6.2\n\
         inverted-write check, and FLAIR's online training (normalized time\n\
         and MPKI on the capacity-sensitive workloads)\n\n{}",
        t.render()
    )
}

/// §5.5: Killi-with-OLSC vs MS-ECC below 0.625 x VDD (the paper claims
/// matched capacity and performance at 17 % / 65 % of MS-ECC's area), on
/// the Monte-Carlo sweep engine: each operating point runs over replicate
/// fault maps, so the numbers carry 95 % confidence intervals. Renders the
/// text report and the paired sweep reports as a JSON array.
pub fn lowvmin(repro: &Repro) -> Vec<String> {
    let replications = repro.replications;
    let mut out = String::from(
        "Section 5.5: Killi with OLSC vs MS-ECC below 0.625 x VDD\n\
         (paper: same capacity and performance at 17% / 65% of the area)\n\n",
    );
    let mut reports = Vec::new();
    // The paper sizes the OLSC ECC cache 1:8 at 0.600 x VDD and 1:2 at
    // 0.575 x VDD, so each operating point is its own sweep.
    for (vdd, ratio) in [(0.600, 8usize), (0.575, 2)] {
        let config = SweepConfig {
            vdds: vec![vdd],
            schemes: vec![
                scheme("ms-ecc"),
                scheme(&format!("killi-olsc:ratio={ratio}")),
            ],
            workloads: vec![Workload::Xsbench, Workload::Pennant],
            gpu: GpuConfig::default(),
            progress_every: 8,
            ..SweepConfig::paper(repro.ops_per_cu, SEED, replications)
        };
        let report = run_sweep(&config);
        out.push_str(&format!(
            "VDD = {vdd} (Killi-OLSC at 1:{ratio}, {replications} replicate maps, \
             mean +- 95% CI):\n{}\n",
            report.summary_table().render()
        ));
        reports.push(report);
    }
    vec![out, json_array(&reports)]
}

/// Power-state-transition cost, the paper's core motivation ("additional
/// MBIST steps are time consuming, resulting in extended boot time or
/// delayed power state transitions"): Killi's online training overhead is
/// the cycle difference between a cold-DFH run and a warm rerun of the
/// same kernel, over replicate fault maps and traces (mean ± 95% CI),
/// set against a march-test MBIST estimate.
pub fn dvfs(repro: &Repro) -> String {
    const WORKLOADS: [Workload; 3] = [Workload::Xsbench, Workload::Fft, Workload::Hacc];
    let gpu = GpuConfig::default();
    let replications = repro.replications;

    // One job per (workload, replicate): each measures cold vs warm on
    // its own derived fault map and trace.
    let jobs: Vec<(usize, u64)> = (0..WORKLOADS.len())
        .flat_map(|w| (0..replications as u64).map(move |rep| (w, rep)))
        .collect();
    let progress = Progress::new("dvfs", jobs.len(), 3);
    let runs: Vec<(u64, u64)> = par_map(repro.threads, &jobs, Some(&progress), |_, &(w, rep)| {
        let map = lv_map(gpu.l2.lines(), derive_seed(SEED, "die", &[rep]));
        let killi = build_scheme(
            &scheme("killi:ratio=64"),
            &BuildCtx::new(Arc::clone(&map), gpu.l2),
        )
        .expect("killi builds on the paper's L2");
        let workload_id = Workload::ALL
            .iter()
            .position(|&x| x == WORKLOADS[w])
            .expect("workload in ALL") as u64;
        let trace_seed = derive_seed(SEED, "trace", &[workload_id, rep]);
        let mut sim = GpuSim::new(gpu, map, killi, trace_seed);
        let params = trace_params(&gpu, repro.ops_per_cu, trace_seed);
        // Cold: the DFH bits start in b'01 everywhere — this IS the power
        // state transition under Killi. No separate characterization phase
        // exists; the kernel simply runs.
        let cold = sim.run(WORKLOADS[w].trace(&params));
        // Warm: same kernel with the fault population already learned.
        sim.reset_counters();
        let warm = sim.run(WORKLOADS[w].trace(&params));
        (cold.cycles, warm.cycles)
    });

    let mut t = Table::new(vec![
        "workload",
        "cold cycles (mean)",
        "warm cycles (mean)",
        "training overhead % (95% CI)",
    ]);
    let mut out = String::from("Power-state-transition cost: Killi online training vs MBIST\n\n");
    for (w, workload) in WORKLOADS.iter().enumerate() {
        let mut cold_acc = Accumulator::default();
        let mut warm_acc = Accumulator::default();
        let mut overhead_acc = Accumulator::default();
        for &(cold, warm) in &runs[w * replications..(w + 1) * replications] {
            cold_acc.add(cold as f64);
            warm_acc.add(warm as f64);
            let overhead = cold.saturating_sub(warm);
            overhead_acc.add(100.0 * overhead as f64 / warm.max(1) as f64);
        }
        t.row(vec![
            workload.name().to_string(),
            format!("{:.0}", cold_acc.mean()),
            format!("{:.0}", warm_acc.mean()),
            overhead_acc.fmt_ci(3),
        ]);
    }
    out.push_str(&format!(
        "{replications} replicate fault maps per workload (root seed {SEED}):\n\n"
    ));
    out.push_str(&t.render());

    // MBIST estimate for the same 2 MB array at 1 GHz: a March C- class
    // test performs ~10 read/write sweeps of every line; with 16 banks and
    // ~4 cycles per line operation that is the *floor* — real LV
    // characterization adds per-pattern retention pauses (milliseconds
    // each) and must rerun at EVERY low-voltage operating point.
    let lines = 32768u64;
    let march_ops = 10 * lines * 4 / 16;
    out.push_str(&format!(
        "\nMBIST march-test floor for the same L2: ~{march_ops} cycles per \
         voltage point\n(plus millisecond-scale retention pauses, i.e. \
         >= 1,000,000 cycles at 1 GHz,\nre-run at every LV operating point; \
         Killi pays its training once, overlapped\nwith useful execution, \
         and needs no dedicated test mode at all).\n",
    ));
    out
}

/// §5.6.1 write-back experiment: dirty-data survival under low voltage.
/// In write-back mode a detected-uncorrectable error on a dirty line is
/// unrecoverable (memory is stale). The paper escalates dirty lines'
/// protection — SECDED for dirty b'00, DEC-TED for dirty b'10 — to match a
/// safe-voltage SECDED cache. Counts data-loss events for plain Killi,
/// Killi with §5.6.1 escalation, and per-line SECDED (FLAIR).
pub fn writeback(ops_per_cu: usize) -> String {
    let gpu = GpuConfig {
        write_policy: WritePolicy::WriteBack,
        ..GpuConfig::default()
    };
    let map = lv_map(gpu.l2.lines(), SEED);
    let ctx = BuildCtx::new(Arc::clone(&map), gpu.l2);
    let build = |spelling| build_scheme(&scheme(spelling), &ctx).expect("scheme builds");
    let mut t = Table::new(vec![
        "workload",
        "scheme",
        "writebacks",
        "dirty data loss",
        "SDC",
    ]);
    for w in [Workload::Fft, Workload::Lulesh] {
        // §5.6.1 escalation has no registry spelling, so it is built here.
        let escalated = KilliScheme::new(
            KilliConfig {
                write_back_protection: true,
                ..KilliConfig::with_ratio(64)
            },
            Arc::clone(&map),
            gpu.l2.lines(),
            gpu.l2.ways,
        );
        let schemes: [(&str, Box<dyn LineProtection>); 3] = [
            ("killi (plain)", build("killi:ratio=64")),
            ("killi + 5.6.1", Box::new(escalated)),
            ("flair (secded/line)", build("flair")),
        ];
        for (name, protection) in schemes {
            let mut sim = GpuSim::new(gpu, Arc::clone(&map), protection, SEED);
            let stats = sim.run(w.trace(&trace_params(&gpu, ops_per_cu, SEED)));
            t.row(vec![
                w.name().to_string(),
                name.to_string(),
                stats.writebacks.to_string(),
                stats.dirty_data_loss.to_string(),
                stats.sdc_events.to_string(),
            ]);
        }
    }
    format!(
        "Section 5.6.1: dirty-data protection in write-back mode at \
         0.625 x VDD\n\n{}",
        t.render()
    )
}

/// Per-die Vmin and fleet yield: how many chips can run at each
/// low-voltage point, per protection strength? Circuit-level LV techniques
/// (§2.1) need post-silicon tuning because failure curves vary die to die;
/// Killi needs none. Samples replicated die populations with lognormal
/// rate spread and reports the yield curve per correction strength
/// (1 = SECDED/Killi, 2 = DECTED, 11 = MS-ECC/Killi-OLSC) as mean ± 95% CI
/// over the replicates.
pub fn fleet_yield(threads: usize) -> String {
    const VDDS: [f64; 8] = [0.66, 0.65, 0.64, 0.625, 0.61, 0.60, 0.59, 0.575];
    const STRENGTHS: [u64; 3] = [1, 2, 11];
    let base = stuck_at_cell_model();
    let die_sigma = 0.5;
    let dies = 200;
    let replications = 8;
    let target = 0.98; // the paper tolerates ~1.1% disabled lines at 0.625 x VDD

    // One job per (voltage, strength): each draws `replications`
    // independent die populations and folds them into an accumulator.
    let jobs: Vec<(f64, u64)> = VDDS
        .iter()
        .flat_map(|&v| STRENGTHS.iter().map(move |&t| (v, t)))
        .collect();
    let progress = Progress::new("yield", jobs.len(), 6);
    let cells: Vec<Accumulator> = par_map(threads, &jobs, Some(&progress), |_, &(v, t)| {
        let mut acc = Accumulator::default();
        for y in yield_samples(
            &base,
            die_sigma,
            SEED,
            replications,
            dies,
            NormVdd(v),
            target,
            t,
        ) {
            acc.add(y * 100.0);
        }
        acc
    });

    let mut t = Table::new(vec![
        "vdd",
        "yield t=1 (Killi/SECDED)",
        "yield t=2 (DECTED)",
        "yield t=11 (MS-ECC / Killi-OLSC)",
    ]);
    for (i, &v) in VDDS.iter().enumerate() {
        let cell = |s: usize| cells[i * STRENGTHS.len() + s].fmt_ci(1);
        t.row(vec![format!("{v}"), cell(0), cell(1), cell(2)]);
    }
    format!(
        "Per-die Vmin / fleet yield ({replications} replicated populations x \
         {dies} dies,\nlognormal die spread sigma={die_sigma}, capacity target \
         {target}): % of dies whose cache\nkeeps >= 98% of lines usable at each \
         voltage, by correction strength\n(mean +- 95% CI over replicate \
         populations, root seed {SEED}).\n\n{}",
        t.render()
    )
}

/// ECC-cache design space, ratio x associativity, on xsbench at
/// 0.625 x VDD. Table 3 fixes the ECC cache at 4 ways; low associativity
/// suffers conflict displacement of live protections, while 8 ways buys
/// little once the coordinated LRU/promotion policy (§4.4) is in place.
/// Each geometry is spelled by its set count, so it gets its own label.
pub fn eccsweep(repro: &Repro) -> String {
    let lines = GpuConfig::default().l2.lines();
    let geometries: Vec<(usize, usize)> = [256usize, 64, 16]
        .into_iter()
        .flat_map(|ratio| [2usize, 4, 8].map(|ways| (ratio, ways)))
        .collect();
    let schemes: Vec<SchemeConfig> = geometries
        .iter()
        .map(|&(ratio, ways)| {
            let sets = lines / ratio / ways;
            scheme(&format!("killi:ecc_sets={sets},ecc_ways={ways}"))
        })
        .collect();
    let report = repro.single_map(&[Workload::Xsbench], &schemes);
    let mut t = Table::new(vec!["ratio", "ways", "norm.time", "mpki", "ecc evictions"]);
    for ((ratio, ways), label) in geometries.into_iter().zip(&report.schemes) {
        let c = cell(&report, label, Workload::Xsbench);
        t.row(vec![
            format!("1:{ratio}"),
            ways.to_string(),
            format!("{:.4}", c.metric("norm_time").mean()),
            format!("{:.2}", c.metric("mpki").mean()),
            c.obs.get(Counter::EccCacheDisplacements).to_string(),
        ]);
    }
    format!(
        "ECC-cache design space on xsbench at 0.625 x VDD\n\
         (Table 3 fixes 4 ways)\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_and_artifact_names_are_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        let mut names: Vec<&str> = EXPERIMENTS
            .iter()
            .flat_map(|e| e.artifacts)
            .copied()
            .collect();
        for e in EXPERIMENTS {
            assert_eq!(
                e.artifacts.first().copied(),
                Some(format!("{}.txt", e.id).as_str())
            );
        }
        let (id_count, name_count) = (ids.len(), names.len());
        ids.sort_unstable();
        ids.dedup();
        names.sort_unstable();
        names.dedup();
        assert_eq!(ids.len(), id_count, "duplicate experiment id");
        assert_eq!(names.len(), name_count, "duplicate artifact name");
    }

    #[test]
    fn analytic_reports_render() {
        let repro = Repro::new(1, 1);
        for e in EXPERIMENTS.iter().filter(|e| !e.simulates) {
            for (name, s) in e.run(&repro) {
                assert!(s.lines().count() > 5, "{name}: {s}");
            }
        }
    }

    #[test]
    fn fig2_renders_with_sampled_map() {
        let s = fig2(3);
        assert!(s.contains("0.625"));
    }
}
