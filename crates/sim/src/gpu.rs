//! The 8-CU GPU timing model (Table 3 configuration).
//!
//! Each compute unit executes its trace in order with a bounded window of
//! outstanding loads (GPUs hide memory latency with massive thread-level
//! parallelism; the window is its aggregate stand-in). CUs share the banked
//! L2; the driver interleaves them in global-time order so bank contention
//! and ECC-cache contention are seen in a realistic order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use killi_fault::map::FaultMap;
use killi_obs::Sink;

use crate::cache::{CacheGeometry, L2Cache, TagCache, WritePolicy};
use crate::mem::MainMemory;
use crate::protection::LineProtection;
use crate::stats::SimStats;
use crate::trace::{Trace, TraceOp};

/// GPU hardware configuration (defaults reproduce the paper's Table 3).
#[derive(Debug, Clone, Copy)]
pub struct GpuConfig {
    /// Number of compute units.
    pub cus: usize,
    /// Per-CU L1 geometry.
    pub l1: CacheGeometry,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// Shared L2 geometry.
    pub l2: CacheGeometry,
    /// Number of L2 banks.
    pub l2_banks: usize,
    /// L2 tag latency in cycles.
    pub l2_tag_latency: u32,
    /// L2 data latency in cycles.
    pub l2_data_latency: u32,
    /// Main-memory latency in cycles.
    pub mem_latency: u32,
    /// Maximum outstanding loads per CU.
    pub max_outstanding: usize,
    /// Store policy of the L2.
    pub write_policy: WritePolicy,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            cus: 8,
            l1: CacheGeometry {
                size_bytes: 16 * 1024,
                ways: 4,
                line_bytes: 64,
            },
            l1_latency: 1,
            l2: CacheGeometry::PAPER_L2,
            l2_banks: 16,
            l2_tag_latency: 2,
            l2_data_latency: 2,
            mem_latency: 300,
            max_outstanding: 56,
            write_policy: WritePolicy::WriteThroughUpdate,
        }
    }
}

impl GpuConfig {
    /// Checks the hardware rules the simulator relies on: at least one
    /// CU, L1 and L2 geometries that [`CacheGeometry::try_sets`] accepts,
    /// and a power-of-two L2 bank count.
    pub fn validate(&self) -> Result<(), String> {
        if self.cus == 0 {
            return Err("a GPU needs at least one CU".to_string());
        }
        self.l1
            .try_sets()
            .map_err(|reason| format!("L1: {reason}"))?;
        self.l2
            .try_sets()
            .map_err(|reason| format!("L2: {reason}"))?;
        if !self.l2_banks.is_power_of_two() {
            return Err(format!(
                "L2 bank count {} is not a power of two",
                self.l2_banks
            ));
        }
        Ok(())
    }

    /// A scaled-down configuration for fast tests (64 KB L2, 2 CUs).
    pub fn small_test() -> Self {
        GpuConfig {
            cus: 2,
            l2: CacheGeometry {
                size_bytes: 64 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            l2_banks: 4,
            mem_latency: 100,
            ..GpuConfig::default()
        }
    }
}

struct CuState {
    time: u64,
    pending: BinaryHeap<Reverse<u64>>,
    done: bool,
}

/// The GPU simulator: drives a [`Trace`] through L1s, the protected L2 and
/// memory, producing [`SimStats`].
pub struct GpuSim {
    config: GpuConfig,
    l2: L2Cache,
    mem: MainMemory,
    sink: Sink,
}

impl GpuSim {
    /// Builds a simulator over a fault map and protection scheme.
    ///
    /// # Panics
    ///
    /// Panics if the fault map does not cover the L2's line count.
    pub fn new(
        config: GpuConfig,
        map: Arc<FaultMap>,
        protection: Box<dyn LineProtection>,
        mem_seed: u64,
    ) -> Self {
        let mut l2 = L2Cache::new(
            config.l2,
            config.l2_banks,
            config.l2_tag_latency,
            config.l2_data_latency,
            map,
            protection,
        );
        l2.set_write_policy(config.write_policy);
        GpuSim {
            config,
            l2,
            mem: MainMemory::new(mem_seed, config.mem_latency),
            sink: Sink::none(),
        }
    }

    /// Mutable access to the L2 (to enable soft errors, etc.) before a run.
    pub fn l2_mut(&mut self) -> &mut L2Cache {
        &mut self.l2
    }

    /// Attaches an observability sink for the whole hierarchy: the
    /// driver advances its op clock, and the L2 and protection scheme
    /// emit events into it. The default no-op sink costs one branch per
    /// op and changes no simulation behaviour.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.l2.attach_sink(sink.clone());
        self.sink = sink;
    }

    /// Runs the trace to completion and returns the merged statistics.
    ///
    /// # Panics
    ///
    /// Panics if the trace's CU count does not match the configuration.
    pub fn run(&mut self, trace: Trace) -> SimStats {
        assert_eq!(
            trace.cus(),
            self.config.cus,
            "trace CU count mismatches config"
        );
        let mut streams = trace.into_streams();
        let mut cus: Vec<CuState> = (0..self.config.cus)
            .map(|_| CuState {
                time: 0,
                pending: BinaryHeap::new(),
                done: false,
            })
            .collect();
        let mut stats = SimStats::default();
        let mut l1s: Vec<TagCache> = (0..self.config.cus)
            .map(|_| TagCache::new(self.config.l1))
            .collect();

        // Each turn services the live CU with the smallest local time.
        while let Some(cu) = (0..cus.len())
            .filter(|&i| !cus[i].done)
            .min_by_key(|&i| cus[i].time)
        {
            let Some(op) = streams[cu].next() else {
                // Drain outstanding loads, then retire the CU.
                let drained = cus[cu]
                    .pending
                    .iter()
                    .map(|Reverse(t)| *t)
                    .max()
                    .unwrap_or(0);
                cus[cu].time = cus[cu].time.max(drained);
                cus[cu].done = true;
                continue;
            };
            self.sink.tick();
            let state = &mut cus[cu];
            match op {
                TraceOp::Compute(n) => {
                    stats.instructions += u64::from(n);
                    state.time += u64::from(n);
                }
                TraceOp::Load(addr) => {
                    stats.instructions += 1;
                    stats.loads += 1;
                    if state.pending.len() >= self.config.max_outstanding {
                        let Reverse(t) = state.pending.pop().expect("window nonempty");
                        state.time = state.time.max(t);
                    }
                    let completion = if l1s[cu].access(addr) {
                        stats.l1_hits += 1;
                        state.time + u64::from(self.config.l1_latency)
                    } else {
                        stats.l1_misses += 1;
                        let issue = state.time + u64::from(self.config.l1_latency);
                        let r = self.l2.access_load(addr, issue, &mut self.mem);
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
                    // Posted store: latency absorbed by the write buffer.
                    let _ = self.l2.access_store(addr, state.time, &mut self.mem);
                    state.time += 1;
                }
            }
        }

        stats.cycles = cus.iter().map(|c| c.time).max().unwrap_or(0);
        let l2_stats = self.l2.finalized_stats();
        stats.l2_hits = l2_stats.l2_hits;
        stats.l2_misses = l2_stats.l2_misses;
        stats.l2_error_misses = l2_stats.l2_error_misses;
        stats.ecc_induced_invalidations = l2_stats.ecc_induced_invalidations;
        stats.l2_bypasses = l2_stats.l2_bypasses;
        stats.sdc_events = l2_stats.sdc_events;
        stats.corrections = l2_stats.corrections;
        stats.l2_tag_accesses = l2_stats.l2_tag_accesses;
        stats.l2_data_accesses = l2_stats.l2_data_accesses;
        stats.ecc_cache_accesses = l2_stats.ecc_cache_accesses;
        stats.writebacks = l2_stats.writebacks;
        stats.dirty_data_loss = l2_stats.dirty_data_loss;
        stats.mem_reads = self.mem.reads();
        stats.mem_writes = self.mem.writes();
        stats
    }

    /// The L2 after a run (protection state inspection in tests).
    pub fn l2(&self) -> &L2Cache {
        &self.l2
    }

    /// Clears all run counters so a follow-up `run` measures only itself;
    /// cache contents and learned protection state persist (warm restart).
    pub fn reset_counters(&mut self) {
        self.l2.reset_stats();
        self.mem.reset_counters();
    }
}

impl std::fmt::Debug for GpuSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuSim")
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::Unprotected;
    use crate::trace::TraceOp::*;

    fn run_small(per_cu: Vec<Vec<TraceOp>>) -> SimStats {
        let mut config = GpuConfig::small_test();
        config.cus = per_cu.len();
        let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
        let mut sim = GpuSim::new(config, map, Box::new(Unprotected::new()), 1);
        sim.run(Trace::from_vecs(per_cu))
    }

    #[test]
    fn compute_only_trace_costs_its_cycles() {
        let s = run_small(vec![vec![Compute(100), Compute(50)]]);
        assert_eq!(s.cycles, 150);
        assert_eq!(s.instructions, 150);
        assert_eq!(s.loads, 0);
    }

    #[test]
    fn repeated_loads_hit_the_l1() {
        let s = run_small(vec![vec![Load(0x40), Load(0x40), Load(0x40)]]);
        assert_eq!(s.loads, 3);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l1_hits, 2);
        assert_eq!(s.l2_misses, 1);
    }

    #[test]
    fn streaming_misses_compulsory() {
        let ops: Vec<TraceOp> = (0..100).map(|i| Load(i * 64)).collect();
        let s = run_small(vec![ops]);
        assert_eq!(s.l2_misses, 100);
        assert_eq!(s.l1_hits, 0);
        assert!(s.cycles > 100, "memory latency should show up");
    }

    #[test]
    fn window_hides_latency() {
        // 64 independent loads: with a 32-deep window the total time is far
        // below 64 * mem_latency.
        let ops: Vec<TraceOp> = (0..64).map(|i| Load(i * 64)).collect();
        let s = run_small(vec![ops]);
        assert!(s.cycles < 64 * 100, "cycles = {}", s.cycles);
        assert!(s.cycles >= 100, "at least one memory round trip");
    }

    #[test]
    fn two_cus_run_in_parallel() {
        let ops: Vec<TraceOp> = vec![Compute(1000)];
        let s = run_small(vec![ops.clone(), ops]);
        assert_eq!(s.cycles, 1000, "parallel CUs should overlap");
        assert_eq!(s.instructions, 2000);
    }

    #[test]
    fn stores_reach_memory() {
        let s = run_small(vec![vec![Store(0x40), Store(0x80), Load(0x40)]]);
        assert_eq!(s.mem_writes, 2);
        assert_eq!(s.stores, 2);
    }

    #[test]
    fn deterministic_runs() {
        let ops: Vec<TraceOp> = (0..500)
            .map(|i| {
                if i % 3 == 0 {
                    Load((i * 97) % 8192 * 64)
                } else {
                    Compute(2)
                }
            })
            .collect();
        let a = run_small(vec![ops.clone(), ops.clone()]);
        let b = run_small(vec![ops.clone(), ops]);
        assert_eq!(a, b);
    }

    #[test]
    fn mpki_reflects_misses() {
        let ops: Vec<TraceOp> = (0..1000).map(|i| Load(i * 64)).collect();
        let s = run_small(vec![ops]);
        assert!(s.mpki() > 500.0, "all-miss stream: mpki = {}", s.mpki());
    }

    #[test]
    fn write_back_mode_coalesces_store_traffic() {
        let mut config = GpuConfig::small_test();
        config.write_policy = WritePolicy::WriteBack;
        let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
        let mut sim = GpuSim::new(config, map, Box::new(Unprotected::new()), 5);
        // Hammer a small set of lines with stores, then spill them.
        let mut ops = Vec::new();
        for round in 0..20u64 {
            for line in 0..8u64 {
                ops.push(Store(line * 64));
            }
            let _ = round;
        }
        for i in 0..2000u64 {
            ops.push(Load(0x10_0000 + i * 64));
        }
        let stats = sim.run(Trace::from_vecs(vec![ops.clone(), ops]));
        assert!(stats.writebacks > 0, "dirty lines must spill");
        assert!(
            stats.mem_writes < stats.stores / 4,
            "coalescing: {} writes for {} stores",
            stats.mem_writes,
            stats.stores
        );
        assert_eq!(stats.sdc_events, 0);
        assert_eq!(stats.dirty_data_loss, 0);
    }

    #[test]
    fn reset_counters_gives_fresh_second_run() {
        let config = GpuConfig::small_test();
        let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
        let mut sim = GpuSim::new(config, map, Box::new(Unprotected::new()), 5);
        let ops: Vec<TraceOp> = (0..2000).map(|i| Load((i % 512) * 64)).collect();
        let cold = sim.run(Trace::from_vecs(vec![ops.clone(), ops.clone()]));
        sim.reset_counters();
        let warm = sim.run(Trace::from_vecs(vec![ops.clone(), ops]));
        assert!(warm.l2_misses < cold.l2_misses, "cache stays warm");
        assert!(warm.cycles <= cold.cycles, "warm run not slower");
    }

    #[test]
    #[should_panic(expected = "mismatches config")]
    fn trace_cu_count_checked() {
        let config = GpuConfig::small_test(); // 2 CUs
        let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
        let mut sim = GpuSim::new(config, map, Box::new(Unprotected::new()), 1);
        sim.run(Trace::from_vecs(vec![vec![Compute(1)]])); // 1 CU
    }
}
