//! Oracle for the GPU driver loop (killi-check harness).
//!
//! The reference is the driver as first written, kept here and built
//! only from public parts: each turn filters the live CUs and takes the
//! one of smallest clock with `min_by_key`, every load waits in a
//! `BinaryHeap` window, and every CU runs its own `TagCache` L1 in the
//! loop. `GpuSim::run` must give the same `SimStats` for random traces,
//! CU counts, windows of 1 to 64 loads and L1 latencies, with its L1
//! outcomes shared by the trace or computed in the run, and, under a
//! recording sink, the same event trace: the events carry the op clock,
//! so they pin the order in which CUs issue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use killi_check::{check, Gen};
use killi_fault::map::FaultMap;
use killi_obs::Sink;
use killi_sim::cache::{CacheGeometry, L2Cache, TagCache, WritePolicy};
use killi_sim::gpu::{GpuConfig, GpuSim};
use killi_sim::mem::MainMemory;
use killi_sim::protection::Unprotected;
use killi_sim::stats::SimStats;
use killi_sim::trace::{Trace, TraceOp};

const MEM_SEED: u64 = 5;

/// The driver loop as first written, on a fresh L2 and memory.
fn reference_run(config: GpuConfig, per_cu: &[Vec<TraceOp>], sink: &Sink) -> SimStats {
    let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
    let mut l2 = L2Cache::new(
        config.l2,
        config.l2_banks,
        config.l2_tag_latency,
        config.l2_data_latency,
        map,
        Box::new(Unprotected::new()),
    );
    l2.set_write_policy(config.write_policy);
    l2.attach_sink(sink.clone());
    let mut mem = MainMemory::new(MEM_SEED, config.mem_latency);

    struct Cu {
        next: usize,
        time: u64,
        pending: BinaryHeap<Reverse<u64>>,
        done: bool,
    }
    let mut cus: Vec<Cu> = per_cu
        .iter()
        .map(|_| Cu {
            next: 0,
            time: 0,
            pending: BinaryHeap::new(),
            done: false,
        })
        .collect();
    let mut l1s: Vec<TagCache> = per_cu.iter().map(|_| TagCache::new(config.l1)).collect();
    let mut stats = SimStats::default();
    while let Some(cu) = (0..cus.len())
        .filter(|&i| !cus[i].done)
        .min_by_key(|&i| cus[i].time)
    {
        let Some(&op) = per_cu[cu].get(cus[cu].next) else {
            let drained = cus[cu].pending.iter().map(|Reverse(t)| *t).max();
            cus[cu].time = cus[cu].time.max(drained.unwrap_or(0));
            cus[cu].done = true;
            continue;
        };
        sink.tick();
        let state = &mut cus[cu];
        state.next += 1;
        match op {
            TraceOp::Compute(n) => {
                stats.instructions += u64::from(n);
                state.time += u64::from(n);
            }
            TraceOp::Load(addr) => {
                stats.instructions += 1;
                stats.loads += 1;
                if state.pending.len() >= config.max_outstanding {
                    let Reverse(t) = state.pending.pop().expect("window nonempty");
                    state.time = state.time.max(t);
                }
                let completion = if l1s[cu].access(addr) {
                    stats.l1_hits += 1;
                    state.time + u64::from(config.l1_latency)
                } else {
                    stats.l1_misses += 1;
                    let issue = state.time + u64::from(config.l1_latency);
                    let r = l2.access_load(addr, issue, &mut mem);
                    l1s[cu].fill(addr);
                    issue + u64::from(r.latency)
                };
                state.pending.push(Reverse(completion));
                state.time += 1;
            }
            TraceOp::Store(addr) => {
                stats.instructions += 1;
                stats.stores += 1;
                l1s[cu].invalidate(addr);
                let _ = l2.access_store(addr, state.time, &mut mem);
                state.time += 1;
            }
        }
    }
    stats.cycles = cus.iter().map(|c| c.time).max().unwrap_or(0);
    let l2_stats = l2.finalized_stats();
    SimStats {
        mem_reads: mem.reads(),
        mem_writes: mem.writes(),
        instructions: stats.instructions,
        loads: stats.loads,
        stores: stats.stores,
        l1_hits: stats.l1_hits,
        l1_misses: stats.l1_misses,
        cycles: stats.cycles,
        ..l2_stats
    }
}

/// Per-CU streams over a small address pool (L1 hits) and a larger one
/// (L2 traffic), some CUs short or empty, with bursts of loads that fill
/// the window.
fn random_trace(g: &mut Gen, cus: usize) -> Vec<Vec<TraceOp>> {
    let hot = g.u64_below(64) + 1;
    (0..cus)
        .map(|_| {
            let len = if g.u64_below(8) == 0 {
                0
            } else {
                g.usize_in(1, 400)
            };
            (0..len)
                .map(|_| match g.u64_below(8) {
                    0 => TraceOp::Compute(g.u64_below(40) as u32 + 1),
                    1 => TraceOp::Store(g.u64_below(2048) * 64),
                    2..=4 => TraceOp::Load(g.u64_below(hot) * 64),
                    _ => TraceOp::Load(g.u64_below(4096) * 64),
                })
                .collect()
        })
        .collect()
}

fn random_config(g: &mut Gen, cus: usize) -> GpuConfig {
    GpuConfig {
        cus,
        l1: CacheGeometry {
            size_bytes: 64 << g.usize_in(2, 9),
            ways: 1 << g.usize_in(0, 3),
            line_bytes: 64,
        },
        l1_latency: g.u64_below(8) as u32 + 1,
        l2: CacheGeometry {
            size_bytes: (16 * 64) << g.usize_in(2, 7),
            ways: 16,
            line_bytes: 64,
        },
        l2_banks: 1 << g.usize_in(0, 4),
        mem_latency: g.u64_below(300) as u32 + 10,
        max_outstanding: g.usize_in(1, 65),
        write_policy: *g.pick(&[
            WritePolicy::BypassInvalidate,
            WritePolicy::WriteThroughUpdate,
            WritePolicy::WriteBack,
        ]),
        ..GpuConfig::default()
    }
}

fn run(config: GpuConfig, trace: Trace, sink: &Sink) -> SimStats {
    let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
    let mut sim = GpuSim::new(config, map, Box::new(Unprotected::new()), MEM_SEED);
    sim.attach_sink(sink.clone());
    sim.run(trace)
}

#[test]
fn driver_matches_the_reference_loop() {
    check("driver_matches_the_reference_loop", |g| {
        let cus = g.usize_in(1, 9);
        let config = random_config(g, cus);
        let per_cu = random_trace(g, cus);
        let sink = Sink::recording(1 << 16);
        let expected = reference_run(config, &per_cu, &sink);
        let events = sink.export_jsonl(&[]);
        let trace = Trace::from_vecs(per_cu);
        for shared in [false, true] {
            let trace = if shared {
                trace.clone().with_l1(config.l1)
            } else {
                trace.clone()
            };
            let sink = Sink::recording(1 << 16);
            let stats = run(config, trace, &sink);
            assert_eq!(stats, expected, "{config:?}, shared L1 outcomes: {shared}");
            assert_eq!(
                sink.export_jsonl(&[]),
                events,
                "{config:?}, shared: {shared}"
            );
        }
        assert_eq!(run(config, trace, &Sink::none()), expected);
    });
}
