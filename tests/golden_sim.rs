//! Golden-bytes pin of single simulations: the full `SimStats` and the
//! scheme's `MetricSet` of every registered scheme, plus Killi with the
//! §5.6.1 write-back escalation, under every L2 write policy with soft
//! errors off and on, on store-carrying workloads at 0.6 x VDD.
//!
//! The sweep goldens run only the paper's write-through-update policy
//! without soft errors; this file pins the bypass and write-back store
//! paths and the soft-error read path exactly. To re-bless after an
//! *intentional* output change, run:
//!
//! ```sh
//! KILLI_BLESS=1 cargo test --test golden_sim
//! ```

use std::fmt::Write;
use std::sync::Arc;

use killi_repro::bench::schemes::{build_scheme, default_registry, BuildCtx, SchemeConfig};
use killi_repro::core::scheme::{KilliConfig, KilliScheme};
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::map::FaultMap;
use killi_repro::fault::model;
use killi_repro::fault::soft::SoftErrorInjector;
use killi_repro::sim::cache::WritePolicy;
use killi_repro::sim::gpu::{GpuConfig, GpuSim};
use killi_repro::sim::protection::LineProtection;
use killi_repro::sim::stats::SimStats;
use killi_repro::sim::trace::Trace;
use killi_repro::workloads::{TraceParams, Workload};

mod common;
use common::check_or_bless;

const POLICIES: [(&str, WritePolicy); 3] = [
    ("bypass", WritePolicy::BypassInvalidate),
    ("update", WritePolicy::WriteThroughUpdate),
    ("write-back", WritePolicy::WriteBack),
];

/// Workloads whose traces store into lines they also load, so every
/// store path meets resident lines.
const WORKLOADS: [Workload; 3] = [Workload::Fft, Workload::Lulesh, Workload::Snap];

const OPS_PER_CU: usize = 2_500;
const SEED: u64 = 2026;

/// Killi at its default ratio with the §5.6.1 escalation of dirty lines.
const ESCALATED: &str = "killi+write-back-protection";

/// Every registered scheme name, then [`ESCALATED`].
fn scheme_names() -> Vec<&'static str> {
    let mut names = default_registry().names();
    names.push(ESCALATED);
    names
}

/// A fresh instance of the pinned scheme `name`.
fn build(name: &str, map: &Arc<FaultMap>, gpu: &GpuConfig) -> Box<dyn LineProtection> {
    if name == ESCALATED {
        let config = KilliConfig {
            write_back_protection: true,
            ..KilliConfig::with_ratio(64)
        };
        return Box::new(KilliScheme::new(
            config,
            Arc::clone(map),
            gpu.l2.lines(),
            gpu.l2.ways,
        ));
    }
    let ctx = BuildCtx::new(Arc::clone(map), gpu.l2);
    build_scheme(&SchemeConfig::new(name), &ctx).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn stats_json(s: &SimStats) -> String {
    let fields = [
        ("cycles", s.cycles),
        ("instructions", s.instructions),
        ("loads", s.loads),
        ("stores", s.stores),
        ("l1_hits", s.l1_hits),
        ("l1_misses", s.l1_misses),
        ("l2_hits", s.l2_hits),
        ("l2_misses", s.l2_misses),
        ("l2_error_misses", s.l2_error_misses),
        ("ecc_induced_invalidations", s.ecc_induced_invalidations),
        ("l2_bypasses", s.l2_bypasses),
        ("sdc_events", s.sdc_events),
        ("corrections", s.corrections),
        ("mem_reads", s.mem_reads),
        ("mem_writes", s.mem_writes),
        ("l2_tag_accesses", s.l2_tag_accesses),
        ("l2_data_accesses", s.l2_data_accesses),
        ("ecc_cache_accesses", s.ecc_cache_accesses),
        ("writebacks", s.writebacks),
        ("dirty_data_loss", s.dirty_data_loss),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Sums over the pinned runs that show each pinned path was reached.
#[derive(Default)]
struct Reached {
    /// Write-backs of dirty lines under [`WritePolicy::WriteBack`].
    writebacks: u64,
    /// Runs whose statistics soft errors changed.
    soft_changed: usize,
    /// Error-induced misses under [`WritePolicy::BypassInvalidate`].
    bypass_error_misses: u64,
}

/// One JSON line per (scheme, policy, soft errors, workload) run.
fn pinned_runs() -> (String, Reached) {
    let gpu = GpuConfig::small_test();
    let fault_model = model::default_registry()
        .build(&model::FaultModelConfig::default(), &())
        .expect("stuck-at always builds");
    let map = Arc::new(fault_model.map(gpu.l2.lines(), NormVdd(0.6), FreqGhz::PEAK, SEED));
    let traces: Vec<_> = WORKLOADS
        .iter()
        .map(|w| {
            let params = TraceParams {
                cus: gpu.cus,
                ops_per_cu: OPS_PER_CU,
                seed: SEED,
                l2_bytes: gpu.l2.size_bytes,
            };
            Arc::new(w.ops(&params))
        })
        .collect();
    let mut out = String::new();
    let mut reached = Reached::default();
    for name in scheme_names() {
        for (policy_name, policy) in POLICIES {
            let mut quiet = Vec::new();
            for soft in [false, true] {
                for (w, workload) in WORKLOADS.iter().enumerate() {
                    let gpu = GpuConfig {
                        write_policy: policy,
                        ..gpu
                    };
                    let protection = build(name, &map, &gpu);
                    let mut sim = GpuSim::new(gpu, Arc::clone(&map), protection, SEED);
                    if soft {
                        sim.l2_mut()
                            .set_soft_errors(SoftErrorInjector::new(SEED, 0.01, 0.25, 4));
                    }
                    let stats = sim.run(Trace::from_shared(Arc::clone(&traces[w])));
                    let metrics = sim.l2().protection().metrics();
                    if soft {
                        reached.soft_changed += usize::from(quiet[w] != stats);
                    } else {
                        quiet.push(stats);
                    }
                    match policy {
                        WritePolicy::WriteBack => reached.writebacks += stats.writebacks,
                        WritePolicy::BypassInvalidate => {
                            reached.bypass_error_misses += stats.l2_error_misses;
                        }
                        WritePolicy::WriteThroughUpdate => {}
                    }
                    let _ = writeln!(
                        out,
                        "{{\"scheme\":\"{name}\",\"policy\":\"{policy_name}\",\"soft\":{soft},\
                         \"workload\":\"{}\",\"stats\":{},\"metrics\":{}}}",
                        workload.name(),
                        stats_json(&stats),
                        metrics.to_json()
                    );
                }
            }
        }
    }
    (out, reached)
}

#[test]
fn every_scheme_policy_and_soft_error_run_matches_golden_bytes() {
    let (runs, reached) = pinned_runs();
    // The pin must reach the paths it claims to.
    assert!(reached.writebacks > 0, "no dirty line was written back");
    assert!(
        reached.bypass_error_misses > 0,
        "no error miss under bypass"
    );
    let soft_runs = scheme_names().len() * POLICIES.len() * WORKLOADS.len();
    assert!(
        reached.soft_changed * 2 > soft_runs,
        "soft errors changed only {} of {soft_runs} runs",
        reached.soft_changed
    );
    check_or_bless("sim_policies.json", &runs);
}
