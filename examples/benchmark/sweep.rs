//! The sweep workloads: `run_sweep` timed end to end, and, in the traced
//! run, the same sweep rebuilt from the public call of each layer (fault
//! model, trace generator, scheme registry, GPU simulator), folded with
//! the public `Accumulator` and checked bit for bit against the
//! engine's report.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use killi_repro::bench::fault_models::build_fault_model;
use killi_repro::bench::schemes::{build_scheme, BuildCtx, SchemeConfig};
use killi_repro::bench::sweep::{
    run_sweep, run_sweep_validated, Accumulator, SweepConfig, SweepReport, ValidatedSweepConfig,
};
use killi_repro::ecc::bch::dected;
use killi_repro::ecc::bch_t::bch_t;
use killi_repro::ecc::olsc::OlscLine;
use killi_repro::ecc::secded::secded;
use killi_repro::ecc::Line512;
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::map::FaultMap;
use killi_repro::fault::rng::{derive_seed, splitmix64};
use killi_repro::obs::{parse_json, Counter};
use killi_repro::sim::gpu::{GpuConfig, GpuSim};
use killi_repro::sim::trace::{Trace, TraceOp};
use killi_repro::workloads::{TraceParams, Workload};

use crate::stats::median;
use crate::trace::{subtree, total_s, Recorder};
use crate::{measure_ops, measure_rounds, Metrics, Outcome, RunOpts};

/// The shape of one sweep workload; the root seed comes from `--seed`.
pub struct SweepSpec {
    replications: usize,
    vdds: &'static [f64],
    schemes: &'static [&'static str],
    workloads: &'static [Workload],
    ops_per_cu: usize,
}

/// Killi at two ECC-cache ratios around the paper's operating points:
/// time goes to the simulator and the Killi driver, with only
/// parity/SECDED codecs.
pub const PAPER: SweepSpec = SweepSpec {
    replications: 2,
    vdds: &[0.65, 0.625, 0.6],
    schemes: &["killi", "killi:ratio=16"],
    workloads: &[
        Workload::Xsbench,
        Workload::Hacc,
        Workload::Pennant,
        Workload::Lulesh,
    ],
    ops_per_cu: 8_000,
};

/// The OLSC / BCH baselines below Killi's range: time goes to the `ecc`
/// decoders and the Killi driver is bypassed.
pub const CODECS: SweepSpec = SweepSpec {
    replications: 1,
    vdds: &[0.6, 0.575],
    schemes: &["ms-ecc", "dected", "flair-online"],
    workloads: &[Workload::Xsbench, Workload::Fft],
    ops_per_cu: 3_000,
};

fn config(spec: &SweepSpec, seed: u64, threads: usize) -> SweepConfig {
    SweepConfig {
        root_seed: seed,
        replications: spec.replications,
        vdds: spec.vdds.to_vec(),
        schemes: spec
            .schemes
            .iter()
            .map(|s| SchemeConfig::parse(s).expect("built-in scheme spellings parse"))
            .collect(),
        fault_model: Default::default(),
        workloads: spec.workloads.to_vec(),
        ops_per_cu: spec.ops_per_cu,
        gpu: GpuConfig::default(),
        threads,
        progress_every: 0,
        trace_capacity: None,
    }
}

/// Checks a `killi-sweep` report: it parses, names its schema, holds
/// `cells` cells and every cell folds `replications` samples.
pub fn check_report(json: &str, cells: usize, replications: usize) -> Result<(), String> {
    let v = parse_json(json).map_err(|e| format!("sweep report is not JSON: {e}"))?;
    let schema = v.get("schema").and_then(|s| s.as_str()).unwrap_or("");
    if !schema.starts_with("killi-sweep/") {
        return Err(format!("sweep report schema is `{schema}`"));
    }
    let got = v
        .get("cells")
        .and_then(|c| c.as_array())
        .ok_or("sweep report has no cells")?;
    if got.len() != cells {
        return Err(format!(
            "sweep report has {} cells, expected {cells}",
            got.len()
        ));
    }
    if got
        .iter()
        .any(|c| c.get("n").and_then(|n| n.as_u64()) != Some(replications as u64))
    {
        return Err(format!("a sweep cell does not hold n = {replications}"));
    }
    Ok(())
}

/// Runs one sweep workload (untraced or traced per `opts`).
pub fn run(spec: &SweepSpec, opts: &RunOpts, rec: &Recorder) -> Outcome {
    let mut out = Outcome::default();
    let setup = || {
        config(spec, opts.seed, opts.threads)
            .validated()
            .map_err(|e| format!("sweep config rejected: {e}"))
    };
    let c = config(spec, opts.seed, opts.threads);
    // One baseline cell per workload plus one per (vdd, scheme, workload).
    let cells = c.workloads.len() * (1 + c.vdds.len() * c.schemes.len());
    let check = |json: &str| check_report(json, cells, c.replications);
    if opts.trace {
        let round = || setup().and_then(|cfg| traced_round(cfg.config(), opts, rec));
        measure_rounds(opts, &mut out, round, check);
    } else {
        let op = |cfg: &ValidatedSweepConfig| Ok(run_sweep_validated(cfg).to_json());
        measure_ops(opts, &mut out, c.job_count(), setup, op, check);
    }
    out
}

/// What the per-layer rebuild of a sweep produced.
#[derive(Default)]
struct Decomposition {
    /// Mean `cycles` per report cell, in report order.
    cycles: Vec<Accumulator>,
    faulty_cells: u64,
    baseline_ops: u64,
    protected_ops: u64,
    l2_hits: u64,
    l2_accesses: u64,
    corrections: u64,
    ecc_induced_invalidations: u64,
    disabled_lines: u64,
}

/// One traced round: the engine at `opts.threads` and at one thread,
/// then the layer-by-layer rebuild, then the codec micro-benchmark.
fn traced_round(
    c: &SweepConfig,
    opts: &RunOpts,
    rec: &Recorder,
) -> Result<(Metrics, String), String> {
    let mut root_id = 0;
    let (d, json, ecc) = rec.span("sweep.round", None, |root| {
        root_id = root;
        let multi = SweepConfig {
            threads: opts.threads,
            ..c.clone()
        };
        let one = SweepConfig {
            threads: 1,
            ..c.clone()
        };
        let report_multi = rec.leaf("bench.sweep2", root, || run_sweep(&multi));
        let report = rec.leaf("bench.sweep1", root, || run_sweep(&one));
        let json = rec.leaf("bench.json", root, || report.to_json());
        // On a fresh thread, like the engine's worker: on the main
        // thread the same calls measured about 20% slower.
        let d = rec.span("sweep.decomposed", Some(root), |parent| {
            std::thread::scope(|s| {
                s.spawn(|| decompose(c, rec, parent))
                    .join()
                    .expect("the rebuild thread panicked")
            })
        })?;
        let ecc = rec.leaf("ecc.bench", root, || ecc_decode_ns(c.root_seed));
        rec.leaf("bench.check", root, || {
            if report_multi.to_json() != json {
                return Err(format!(
                    "{}-thread and 1-thread reports differ",
                    opts.threads
                ));
            }
            check_cycles(&d.cycles, &report)
        })?;
        Ok::<_, String>((d, json, ecc))
    })?;

    let spans = subtree(&rec.spans(), root_id);
    let t = |name: &str| total_s(&spans, name);
    let cells_per_baseline = (c.vdds.len() * c.schemes.len()) as f64;
    let overhead_s = t("protect.run") - cells_per_baseline * t("sim.run");
    let leaves_s = t("fault.die")
        + t("fault.map")
        + t("workloads.trace")
        + t("sim.run")
        + t("protect.build")
        + t("protect.run");
    let metrics = vec![
        ("fault.die_s", t("fault.die")),
        ("fault.map_s", t("fault.map")),
        ("fault.faulty_cells", d.faulty_cells as f64),
        ("workloads.trace_s", t("workloads.trace")),
        ("sim.run_s", t("sim.run")),
        ("sim.ops", d.baseline_ops as f64),
        ("sim.ns_per_op", t("sim.run") * 1e9 / d.baseline_ops as f64),
        ("sim.l2_hit_rate", d.l2_hits as f64 / d.l2_accesses as f64),
        ("protect.build_s", t("protect.build")),
        ("protect.overhead_s", overhead_s),
        (
            "protect.ns_per_op",
            overhead_s * 1e9 / d.protected_ops as f64,
        ),
        ("core.corrections", d.corrections as f64),
        (
            "core.ecc_induced_invalidations",
            d.ecc_induced_invalidations as f64,
        ),
        ("core.disabled_lines", d.disabled_lines as f64),
        ("ecc.secded_decode_ns", ecc[0]),
        ("ecc.dected_decode_ns", ecc[1]),
        ("ecc.bch_t_decode_ns", ecc[2]),
        ("ecc.olsc_decode_ns", ecc[3]),
        ("bench.sweep1_s", t("bench.sweep1")),
        ("bench.engine_self_s", t("bench.sweep1") - leaves_s),
        ("bench.json_s", t("bench.json")),
        ("bench.speedup_2t", t("bench.sweep1") / t("bench.sweep2")),
    ];
    Ok((metrics, json))
}

/// Rebuilds the sweep one public call at a time, one thread, in the
/// engine's job order, each call in a leaf span under `parent`.
fn decompose(c: &SweepConfig, rec: &Recorder, parent: usize) -> Result<Decomposition, String> {
    let lines = c.gpu.l2.lines();
    let reps = c.replications.max(1);
    let model = build_fault_model(&c.fault_model).map_err(|e| e.to_string())?;
    let die_seed = |rep: usize| derive_seed(c.root_seed, "die", &[rep as u64]);
    let trace_seed = |w: usize, rep: usize| {
        let id = Workload::ALL
            .iter()
            .position(|&x| x == c.workloads[w])
            .expect("every workload is in Workload::ALL") as u64;
        derive_seed(c.root_seed, "trace", &[id, rep as u64])
    };
    let mut d = Decomposition::default();

    // Fault side: one die per replicate, one map per (vdd, replicate).
    let cap_vdd = c.vdds.iter().copied().fold(f64::INFINITY, f64::min);
    let dies: Vec<_> = (0..reps)
        .map(|rep| {
            rec.leaf("fault.die", parent, || {
                model.die(lines, NormVdd(cap_vdd), FreqGhz::PEAK, die_seed(rep))
            })
        })
        .collect();
    let mut maps = Vec::with_capacity(c.vdds.len() * reps);
    for &vdd in &c.vdds {
        for (rep, die) in dies.iter().enumerate() {
            let map = rec.leaf("fault.map", parent, || match die {
                Some(die) => die.map_at(NormVdd(vdd)),
                None => model.map(lines, NormVdd(vdd), FreqGhz::PEAK, die_seed(rep)),
            });
            d.faulty_cells += (0..lines).map(|l| map.line(l).len() as u64).sum::<u64>();
            maps.push(Arc::new(map));
        }
    }

    // Traffic: one op buffer per (workload, replicate).
    let mut traces: Vec<Arc<Vec<Vec<TraceOp>>>> = Vec::new();
    for w in 0..c.workloads.len() {
        for rep in 0..reps {
            let params = TraceParams {
                cus: c.gpu.cus,
                ops_per_cu: c.ops_per_cu,
                seed: trace_seed(w, rep),
                l2_bytes: c.gpu.l2.size_bytes,
            };
            traces.push(rec.leaf("workloads.trace", parent, || {
                Arc::new(c.workloads[w].ops(&params))
            }));
        }
    }
    let ops_of =
        |w: usize, rep: usize| traces[w * reps + rep].iter().map(Vec::len).sum::<usize>() as u64;

    // Baselines: the unprotected simulator on a fault-free map.
    let free = Arc::new(FaultMap::fault_free(lines));
    let baseline = SchemeConfig::new("baseline");
    for w in 0..c.workloads.len() {
        let mut cell = Accumulator::default();
        for rep in 0..reps {
            let stats = rec.leaf("sim.run", parent, || {
                let protection =
                    build_scheme(&baseline, &BuildCtx::new(Arc::clone(&free), c.gpu.l2))
                        .map_err(|e| e.to_string())?;
                let mut sim = GpuSim::new(c.gpu, Arc::clone(&free), protection, trace_seed(w, rep));
                Ok::<_, String>(sim.run(Trace::from_shared(Arc::clone(&traces[w * reps + rep]))))
            })?;
            cell.add(stats.cycles as f64);
            d.baseline_ops += ops_of(w, rep);
            d.l2_hits += stats.l2_hits;
            d.l2_accesses += stats.l2_hits + stats.l2_misses;
        }
        d.cycles.push(cell);
    }

    // Protected cells: vdd-major, then scheme, then workload.
    for (v, _) in c.vdds.iter().enumerate() {
        for scheme in &c.schemes {
            for w in 0..c.workloads.len() {
                let mut cell = Accumulator::default();
                for rep in 0..reps {
                    let map = &maps[v * reps + rep];
                    let protection = rec
                        .leaf("protect.build", parent, || {
                            build_scheme(scheme, &BuildCtx::new(Arc::clone(map), c.gpu.l2))
                        })
                        .map_err(|e| e.to_string())?;
                    let (stats, disabled) = rec.leaf("protect.run", parent, || {
                        let mut sim =
                            GpuSim::new(c.gpu, Arc::clone(map), protection, trace_seed(w, rep));
                        let stats =
                            sim.run(Trace::from_shared(Arc::clone(&traces[w * reps + rep])));
                        let disabled = sim.l2().protection().metrics().get(Counter::DisabledLines);
                        (stats, disabled)
                    });
                    cell.add(stats.cycles as f64);
                    d.protected_ops += ops_of(w, rep);
                    d.corrections += stats.corrections;
                    d.ecc_induced_invalidations += stats.ecc_induced_invalidations;
                    d.disabled_lines += disabled;
                }
                d.cycles.push(cell);
            }
        }
    }
    Ok(d)
}

/// The rebuilt per-cell `cycles` means must equal the engine's bit for bit.
fn check_cycles(rebuilt: &[Accumulator], report: &SweepReport) -> Result<(), String> {
    if rebuilt.len() != report.cells.len() {
        return Err(format!(
            "rebuilt {} cells, the engine reported {}",
            rebuilt.len(),
            report.cells.len()
        ));
    }
    for (acc, cell) in rebuilt.iter().zip(&report.cells) {
        let engine = cell.metric("cycles");
        if acc.n() != engine.n() || acc.mean().to_bits() != engine.mean().to_bits() {
            return Err(format!(
                "cycles mean of {} {} @ {}: rebuilt {} (n={}), engine {} (n={})",
                cell.scheme,
                cell.workload,
                cell.vdd,
                acc.mean(),
                acc.n(),
                engine.mean(),
                engine.n()
            ));
        }
    }
    Ok(())
}

/// Median ns per public `decode` call of the SECDED, DEC-TED, TEC-QED
/// BCH and OLSC codecs, on seeded 512-bit lines carrying one or two
/// flipped data bits.
fn ecc_decode_ns(seed: u64) -> [f64; 4] {
    const LINES: usize = 64;
    let mut state = derive_seed(seed, "ecc-bench", &[]);
    let mut next = || {
        state = splitmix64(state);
        state
    };
    let clean: Vec<Line512> = (0..LINES).map(|_| Line512::from_seed(next())).collect();
    let received: Vec<Line512> = clean
        .iter()
        .enumerate()
        .map(|(i, line)| {
            let mut line = *line;
            let first = (next() % 512) as usize;
            line.flip_bit(first);
            if i % 2 == 1 {
                line.flip_bit((first + 1 + (next() % 511) as usize) % 512);
            }
            line
        })
        .collect();

    let secded_codes: Vec<_> = clean.iter().map(|l| secded().encode(l)).collect();
    let dected_codes: Vec<_> = clean.iter().map(|l| dected().encode(l)).collect();
    let bch = bch_t(3);
    let bch_codes: Vec<_> = clean.iter().map(|l| bch.encode(l)).collect();
    let olsc = OlscLine::new(8, 2);
    let olsc_codes: Vec<_> = clean.iter().map(|l| olsc.encode(l)).collect();
    [
        ns_per_call(LINES, || {
            for (l, c) in received.iter().zip(&secded_codes) {
                black_box(secded().decode(black_box(l), *c));
            }
        }),
        ns_per_call(LINES, || {
            for (l, c) in received.iter().zip(&dected_codes) {
                black_box(dected().decode(black_box(l), *c));
            }
        }),
        ns_per_call(LINES, || {
            for (l, c) in received.iter().zip(&bch_codes) {
                black_box(bch.decode(black_box(l), *c));
            }
        }),
        ns_per_call(LINES, || {
            for (l, c) in received.iter().zip(&olsc_codes) {
                let mut line = *l;
                black_box(olsc.decode(black_box(&mut line), c));
            }
        }),
    ]
}

/// Median over 5 timed batches of `pass` (which makes `calls` calls),
/// each batch running it 20 times; ns per call.
fn ns_per_call(calls: usize, mut pass: impl FnMut()) -> f64 {
    const PASSES: usize = 20;
    pass(); // warm caches and lazily built tables
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..PASSES {
                pass();
            }
            t.elapsed().as_nanos() as f64 / (PASSES * calls) as f64
        })
        .collect();
    median(&batches)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_check_rejects_wrong_shapes() {
        let cell = |n: u64| format!("{{\"n\": {n}}}");
        let report = |cells: &[String]| {
            format!(
                "{{\"schema\": \"killi-sweep/v2\", \"cells\": [{}]}}",
                cells.join(", ")
            )
        };
        assert!(check_report(&report(&[cell(2), cell(2)]), 2, 2).is_ok());
        assert!(check_report(&report(&[cell(2)]), 2, 2).is_err());
        assert!(check_report(&report(&[cell(2), cell(1)]), 2, 2).is_err());
        assert!(check_report("{\"schema\": \"killi-vmin/v1\", \"cells\": []}", 0, 1).is_err());
        assert!(check_report("not json", 0, 1).is_err());
    }

    #[test]
    fn decomposition_reproduces_the_engine_cycles_exactly() {
        let mut c = config(&CODECS, 3, 1);
        c.ops_per_cu = 300;
        c.gpu = GpuConfig::small_test();
        c.replications = 2;
        let rec = Recorder::new("unit".to_string());
        let d = rec
            .span("root", None, |root| decompose(&c, &rec, root))
            .unwrap();
        check_cycles(&d.cycles, &run_sweep(&c)).unwrap();
        assert!(d.baseline_ops > 0 && d.protected_ops == 6 * d.baseline_ops);
    }
}
