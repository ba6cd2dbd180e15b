//! The 8-CU GPU timing model (Table 3 configuration).
//!
//! Each compute unit executes its trace in order with a bounded window of
//! outstanding loads (GPUs hide memory latency with massive thread-level
//! parallelism; the window is its aggregate stand-in). CUs share the banked
//! L2; the driver interleaves them in global-time order so bank contention
//! and ECC-cache contention are seen in a realistic order.
//!
//! The per-op path is kept cheap without changing a decision:
//!
//! - The private, tag-only L1s see only their own CU's ops, so their
//!   hit/miss outcomes are a function of the trace and the L1 geometry.
//!   A pre-pass computes them once per trace ([`Trace::with_l1`]), and
//!   the trace carries them to every simulation of it.
//! - A load window counts the completions already at or below its CU's
//!   clock, which can never delay the CU again, and keeps only the later
//!   ones, in completion order.
//! - The next CU is the minimum of a compact array of the live CUs'
//!   clocks.

use std::collections::VecDeque;
use std::sync::Arc;

use killi_fault::map::FaultMap;
use killi_obs::Sink;

use crate::cache::{CacheGeometry, L2Cache, TagCache, WritePolicy, MAX_L2_WAYS};
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

/// Why a [`GpuConfig`] cannot be simulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuConfigError {
    /// The GPU has no compute unit.
    NoCus,
    /// The L1 geometry breaks a rule of [`CacheGeometry::try_sets`].
    L1(String),
    /// The L2 geometry breaks a rule of [`CacheGeometry::try_sets`].
    L2(String),
    /// The L2 has more ways than a set's flag word holds
    /// ([`MAX_L2_WAYS`]).
    L2Ways(usize),
    /// The L2 bank count is not a power of two.
    Banks(usize),
    /// `max_outstanding` is 0, so no load could ever issue.
    NoLoadWindow,
}

impl std::fmt::Display for GpuConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuConfigError::NoCus => write!(f, "a GPU needs at least one CU"),
            GpuConfigError::L1(reason) => write!(f, "L1: {reason}"),
            GpuConfigError::L2(reason) => write!(f, "L2: {reason}"),
            GpuConfigError::L2Ways(ways) => {
                write!(f, "L2: {ways} ways exceed the {MAX_L2_WAYS} a set may have")
            }
            GpuConfigError::Banks(banks) => {
                write!(f, "L2 bank count {banks} is not a power of two")
            }
            GpuConfigError::NoLoadWindow => {
                write!(f, "`max_outstanding` must be at least 1, got 0")
            }
        }
    }
}

impl std::error::Error for GpuConfigError {}

impl GpuConfig {
    /// Checks the hardware rules the simulator relies on: at least one
    /// CU, L1 and L2 geometries that [`CacheGeometry::try_sets`] accepts,
    /// at most [`MAX_L2_WAYS`] L2 ways, a power-of-two L2 bank count and
    /// room for at least one outstanding load per CU.
    pub fn validate(&self) -> Result<(), GpuConfigError> {
        if self.cus == 0 {
            return Err(GpuConfigError::NoCus);
        }
        self.l1.try_sets().map_err(GpuConfigError::L1)?;
        self.l2.try_sets().map_err(GpuConfigError::L2)?;
        if self.l2.ways > MAX_L2_WAYS {
            return Err(GpuConfigError::L2Ways(self.l2.ways));
        }
        if !self.l2_banks.is_power_of_two() {
            return Err(GpuConfigError::Banks(self.l2_banks));
        }
        if self.max_outstanding == 0 {
            return Err(GpuConfigError::NoLoadWindow);
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

/// Each CU's private-L1 outcomes over its op stream under one L1
/// geometry: bit `i` of a CU's words is set when op `i` is a load that
/// hits. The L1s hold tags only and see only their own CU's ops, so the
/// outcomes depend on the trace and the geometry alone: this pre-pass
/// runs each CU's ops through a [`TagCache`] once, and every simulation
/// of the trace reads the bits. One bit per op.
#[derive(Debug)]
pub(crate) struct L1Outcomes {
    geom: CacheGeometry,
    hits: Vec<Vec<u64>>,
}

impl L1Outcomes {
    /// Runs every CU's stream through an empty L1 of geometry `geom`.
    pub(crate) fn compute(per_cu: &[Vec<TraceOp>], geom: CacheGeometry) -> Self {
        let hits = per_cu
            .iter()
            .map(|ops| {
                let mut l1 = TagCache::new(geom);
                let mut words = vec![0u64; ops.len().div_ceil(64)];
                for (i, &op) in ops.iter().enumerate() {
                    match op {
                        TraceOp::Load(addr) => {
                            if l1.access(addr) {
                                words[i >> 6] |= 1 << (i & 63);
                            } else {
                                l1.fill(addr);
                            }
                        }
                        TraceOp::Store(addr) => l1.invalidate(addr),
                        TraceOp::Compute(_) => {}
                    }
                }
                words
            })
            .collect();
        L1Outcomes { geom, hits }
    }

    /// The L1 geometry the outcomes hold for.
    pub(crate) fn geometry(&self) -> CacheGeometry {
        self.geom
    }
}

/// A CU's outstanding loads. A load keeps its slot until a later load
/// finds the window full and retires the earliest; the CU waits for that
/// load's completion if it is still ahead of the CU's clock. The clock
/// never goes back, so a completion at or below it can never delay the
/// CU again: such loads are only counted (`done`). The later ones wait in
/// completion order. They arrive nearly in that order already (an L2
/// miss completes after every earlier miss, an L2 hit before them), so
/// most inserts land at either end.
#[derive(Debug, Default)]
struct LoadWindow {
    done: usize,
    pending: VecDeque<u64>,
}

impl LoadWindow {
    /// Frees a slot for a load at clock `time` when all `capacity` are
    /// taken, retiring a completed load if there is one and else waiting
    /// for the earliest pending one. Returns the clock the load issues
    /// at.
    #[inline]
    fn admit(&mut self, capacity: usize, time: u64) -> u64 {
        if self.done + self.pending.len() < capacity {
            time
        } else if self.done > 0 {
            self.done -= 1;
            time
        } else {
            let t = self
                .pending
                .pop_front()
                .expect("a full window holds a load");
            time.max(t)
        }
    }

    /// Takes a slot for a load completing at `completion`, the CU's clock
    /// now being `time`.
    #[inline]
    fn issue(&mut self, completion: u64, time: u64) {
        if completion <= time {
            self.done += 1;
        } else if self.pending.back().is_none_or(|&last| last <= completion) {
            self.pending.push_back(completion);
        } else if self
            .pending
            .front()
            .is_some_and(|&first| completion <= first)
        {
            self.pending.push_front(completion);
        } else {
            let at = self.pending.partition_point(|&t| t <= completion);
            self.pending.insert(at, completion);
        }
    }

    /// The clock at which a CU at `time` has every load back.
    fn drain(&self, time: u64) -> u64 {
        self.pending.back().map_or(time, |&last| time.max(last))
    }
}

/// A live CU: the ops it has yet to issue, with their indices in its
/// stream, its L1 outcomes and its load window.
struct CuState<'t> {
    ops: std::iter::Enumerate<std::slice::Iter<'t, TraceOp>>,
    l1_hits: &'t [u64],
    window: LoadWindow,
}

impl CuState<'_> {
    /// Whether op `index`, a load, hits the CU's L1.
    #[inline]
    fn l1_hit(&self, index: usize) -> bool {
        self.l1_hits[index >> 6] >> (index & 63) & 1 != 0
    }
}

/// The GPU simulator: drives a [`Trace`] through L1s, the protected L2 and
/// memory, producing [`SimStats`].
///
/// The L1 outcomes come from the trace ([`Trace::with_l1`]) when it
/// carries them for this GPU's L1 geometry, and from a pre-pass at the
/// start of [`GpuSim::run`] otherwise; either way the run makes the same
/// decisions.
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
    /// Panics if the configuration fails [`GpuConfig::validate`] or the
    /// fault map does not cover the L2's line count.
    pub fn new(
        config: GpuConfig,
        map: Arc<FaultMap>,
        protection: Box<dyn LineProtection>,
        mem_seed: u64,
    ) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid GPU configuration: {e}");
        }
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
    /// emit events into it. The default no-op sink costs one inlined
    /// branch per op and changes no simulation behaviour.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.l2.attach_sink(sink.clone());
        self.sink = sink;
    }

    /// Runs the trace to completion and returns the merged statistics.
    ///
    /// Each turn services the live CU with the smallest clock (the lowest
    /// index on a tie); a CU retires, draining its window, with its last
    /// op.
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
        let l1 = trace.l1_outcomes(self.config.l1);
        let capacity = self.config.max_outstanding;
        let l1_latency = u64::from(self.config.l1_latency);
        let mut stats = SimStats::default();
        // The live CUs in index order, and their clocks.
        let mut live: Vec<CuState> = trace
            .per_cu()
            .iter()
            .zip(&l1.hits)
            .filter(|(ops, _)| !ops.is_empty())
            .map(|(ops, hits)| CuState {
                ops: ops.iter().enumerate(),
                l1_hits: hits,
                window: LoadWindow::default(),
            })
            .collect();
        let mut clocks = vec![0u64; live.len()];
        let mut cycles = 0;

        while !clocks.is_empty() {
            let mut slot = 0;
            for (i, &clock) in clocks.iter().enumerate().skip(1) {
                if clock < clocks[slot] {
                    slot = i;
                }
            }
            let state = &mut live[slot];
            let (index, &op) = state.ops.next().expect("a live CU has ops left");
            let mut time = clocks[slot];
            self.sink.tick();
            match op {
                TraceOp::Compute(n) => {
                    stats.instructions += u64::from(n);
                    time += u64::from(n);
                }
                TraceOp::Load(addr) => {
                    stats.instructions += 1;
                    stats.loads += 1;
                    time = state.window.admit(capacity, time);
                    let completion = if state.l1_hit(index) {
                        stats.l1_hits += 1;
                        time + l1_latency
                    } else {
                        stats.l1_misses += 1;
                        let issue = time + l1_latency;
                        let r = self.l2.access_load(addr, issue, &mut self.mem);
                        issue + u64::from(r.latency)
                    };
                    time += 1;
                    state.window.issue(completion, time);
                }
                TraceOp::Store(addr) => {
                    stats.instructions += 1;
                    stats.stores += 1;
                    // Posted store: latency absorbed by the write buffer.
                    let _ = self.l2.access_store(addr, time, &mut self.mem);
                    time += 1;
                }
            }
            if state.ops.len() == 0 {
                // Drain outstanding loads, then retire the CU.
                cycles = cycles.max(state.window.drain(time));
                live.remove(slot);
                clocks.remove(slot);
            } else {
                clocks[slot] = time;
            }
        }

        stats.cycles = cycles;
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
    fn validate_names_each_broken_rule() {
        let check = |edit: fn(&mut GpuConfig)| {
            let mut config = GpuConfig::small_test();
            edit(&mut config);
            config.validate()
        };
        assert_eq!(check(|_| {}), Ok(()));
        assert_eq!(check(|g| g.cus = 0), Err(GpuConfigError::NoCus));
        assert!(matches!(
            check(|g| g.l1.ways = 0),
            Err(GpuConfigError::L1(_))
        ));
        assert!(matches!(
            check(|g| g.l2.ways = 3),
            Err(GpuConfigError::L2(_))
        ));
        assert_eq!(
            check(|g| {
                g.l2.size_bytes = 128 * 64 * 16;
                g.l2.ways = 128;
            }),
            Err(GpuConfigError::L2Ways(128))
        );
        assert_eq!(check(|g| g.l2_banks = 3), Err(GpuConfigError::Banks(3)));
        let no_window = check(|g| g.max_outstanding = 0);
        assert_eq!(no_window, Err(GpuConfigError::NoLoadWindow));
        assert_eq!(
            no_window.unwrap_err().to_string(),
            "`max_outstanding` must be at least 1, got 0"
        );
    }

    #[test]
    #[should_panic(expected = "max_outstanding")]
    fn a_config_without_a_load_window_is_not_simulated() {
        let config = GpuConfig {
            max_outstanding: 0,
            ..GpuConfig::small_test()
        };
        let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
        GpuSim::new(config, map, Box::new(Unprotected::new()), 1);
    }

    #[test]
    fn shared_l1_outcomes_give_the_run_its_own_would() {
        let ops: Vec<TraceOp> = (0..3000u64)
            .map(|i| match i % 5 {
                0 => Store((i * 7919) % 600 * 64),
                1 | 2 => Load((i * 104_729) % 700 * 64),
                3 => Load((i % 40) * 64),
                _ => Compute((i % 3) as u32 + 1),
            })
            .collect();
        let config = GpuConfig::small_test();
        let trace = Trace::from_vecs(vec![ops.clone(), ops[1000..].to_vec()]);
        let run = |trace: Trace| {
            let map = Arc::new(FaultMap::fault_free(config.l2.lines()));
            GpuSim::new(config, map, Box::new(Unprotected::new()), 3).run(trace)
        };
        let in_run = run(trace.clone());
        let shared = trace.with_l1(config.l1);
        assert_eq!(run(shared.clone()), in_run);
        assert_eq!(run(shared), in_run);
        // Outcomes of another L1 geometry are recomputed, not misread.
        let other =
            Trace::from_vecs(vec![ops.clone(), ops[1000..].to_vec()]).with_l1(CacheGeometry {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
            });
        assert_eq!(run(other), in_run);
        assert!(in_run.l1_hits > 0 && in_run.l1_misses > 0);
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
