//! Cache structures: geometry, a tag-only L1, and the banked, protected,
//! write-through GPU L2 data cache.
//!
//! The L2 hands protection schemes exactly the 64-byte payloads the faulty
//! SRAM array holds, derived on read rather than stored: a valid line's
//! content is its memory line, corrupted by the fault map's stuck-at
//! cells, XOR any soft-error flips since its install. That equals what the
//! array would store because a resident line's architectural value never
//! changes under it: every store either re-installs the line or evicts it
//! before memory moves on. Reads hand the derived content to the scheme,
//! and the simulator compares delivered data against the architectural
//! value from memory to count silent data corruptions.

use std::sync::Arc;

use killi_ecc::bits::Line512;
use killi_fault::map::{FaultMap, LineId};
use killi_fault::soft::SoftErrorInjector;
use killi_obs::{Counter, KilliEvent, Sink};

use crate::mem::{IntMap, MainMemory};
use crate::protection::{LineProtection, ReadOutcome};
use crate::stats::SimStats;

/// Size/shape of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// The paper's GPU L2: 2 MB, 16-way, 64 B lines (Table 3).
    pub const PAPER_L2: CacheGeometry = CacheGeometry {
        size_bytes: 2 * 1024 * 1024,
        ways: 16,
        line_bytes: 64,
    };

    /// The bytes in `kib` KiB, or `None` when they overflow a `usize`:
    /// the one conversion of a user-given cache size, so a size past its
    /// type is an error rather than a panic or a wrapped, smaller cache.
    pub fn kib_bytes(kib: u64) -> Option<usize> {
        usize::try_from(kib).ok()?.checked_mul(1024)
    }

    /// Number of sets, or why the geometry cannot be simulated: the line
    /// size and the set count must be powers of two, and the capacity must
    /// divide into whole lines and the lines into whole sets.
    pub fn try_sets(&self) -> Result<usize, String> {
        let (size, ways, line) = (self.size_bytes, self.ways, self.line_bytes);
        if !line.is_power_of_two() {
            return Err(format!("line size {line} B is not a power of two"));
        }
        if ways == 0 {
            return Err("associativity must be at least 1".to_string());
        }
        let lines = size / line;
        if size % line != 0 || lines % ways != 0 {
            return Err(format!(
                "{size} B does not divide into {ways}-way sets of {line} B lines"
            ));
        }
        let sets = lines / ways;
        if !sets.is_power_of_two() {
            return Err(format!("{sets} sets is not a power of two"));
        }
        Ok(sets)
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; [`CacheGeometry::try_sets`]
    /// says why instead.
    pub fn sets(&self) -> usize {
        self.try_sets()
            .unwrap_or_else(|reason| panic!("invalid cache geometry: {reason}"))
    }

    /// Total physical lines.
    pub fn lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// Line-aligned address of `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes as u64 - 1)
    }

    /// Set index of `addr`.
    pub fn set_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes as u64) % self.sets() as u64) as usize
    }

    /// Tag of `addr`.
    pub fn tag_of(&self, addr: u64) -> u64 {
        addr / self.line_bytes as u64 / self.sets() as u64
    }

    /// Physical line id of (set, way).
    pub fn line_id(&self, set: usize, way: usize) -> LineId {
        set * self.ways + way
    }
}

/// Precomputed power-of-two address decomposition of a validated
/// [`CacheGeometry`]: shift/mask replacements for the division-based
/// `set_of`/`tag_of`, paid for once at cache construction instead of on
/// every access.
#[derive(Debug, Clone, Copy)]
struct AddrMap {
    sets: usize,
    line_shift: u32,
    tag_shift: u32,
}

impl AddrMap {
    /// Validates `geom` (via [`CacheGeometry::sets`]) and captures its
    /// decomposition constants.
    fn new(geom: &CacheGeometry) -> Self {
        let sets = geom.sets();
        let line_shift = geom.line_bytes.trailing_zeros();
        AddrMap {
            sets,
            line_shift,
            tag_shift: line_shift + sets.trailing_zeros(),
        }
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) as usize) & (self.sets - 1)
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.tag_shift
    }
}

/// Packed one-bit-per-line flags (valid/dirty): 64 lines per word, so the
/// flag sweep of a victim search stays within one metadata cache line.
#[derive(Debug, Clone)]
struct BitVec {
    words: Vec<u64>,
}

impl BitVec {
    fn zeroed(bits: usize) -> Self {
        BitVec {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    #[inline]
    fn get(&self, i: usize) -> bool {
        (self.words[i >> 6] >> (i & 63)) & 1 != 0
    }

    #[inline]
    fn set(&mut self, i: usize, v: bool) {
        let mask = 1u64 << (i & 63);
        if v {
            self.words[i >> 6] |= mask;
        } else {
            self.words[i >> 6] &= !mask;
        }
    }
}

/// A tag-only cache (the per-CU L1: it runs at nominal voltage, so no data
/// payload needs modelling).
#[derive(Debug, Clone)]
pub struct TagCache {
    geom: CacheGeometry,
    addr_map: AddrMap,
    tags: Vec<Option<u64>>,
    lru: Vec<u64>,
    clock: u64,
}

impl TagCache {
    /// Creates an empty tag cache.
    pub fn new(geom: CacheGeometry) -> Self {
        let lines = geom.lines();
        let addr_map = AddrMap::new(&geom); // validates
        TagCache {
            geom,
            addr_map,
            tags: vec![None; lines],
            lru: vec![0; lines],
            clock: 0,
        }
    }

    /// Looks up `addr`, updating LRU on hit. Returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let set = self.addr_map.set_of(addr);
        let tag = self.addr_map.tag_of(addr);
        self.clock += 1;
        for way in 0..self.geom.ways {
            let id = self.geom.line_id(set, way);
            if self.tags[id] == Some(tag) {
                self.lru[id] = self.clock;
                return true;
            }
        }
        false
    }

    /// Installs `addr`, evicting LRU.
    pub fn fill(&mut self, addr: u64) {
        let set = self.addr_map.set_of(addr);
        let tag = self.addr_map.tag_of(addr);
        self.clock += 1;
        let mut victim = self.geom.line_id(set, 0);
        for way in 0..self.geom.ways {
            let id = self.geom.line_id(set, way);
            if self.tags[id].is_none() {
                victim = id;
                break;
            }
            if self.lru[id] < self.lru[victim] {
                victim = id;
            }
        }
        self.tags[victim] = Some(tag);
        self.lru[victim] = self.clock;
    }

    /// Invalidates `addr` if present.
    pub fn invalidate(&mut self, addr: u64) {
        let set = self.addr_map.set_of(addr);
        let tag = self.addr_map.tag_of(addr);
        for way in 0..self.geom.ways {
            let id = self.geom.line_id(set, way);
            if self.tags[id] == Some(tag) {
                self.tags[id] = None;
            }
        }
    }
}

/// Result of an L2 load access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadResult {
    /// Total latency in cycles from request arrival.
    pub latency: u32,
    /// True when the access hit in the L2 (no memory fetch on the critical
    /// path).
    pub hit: bool,
}

/// How the L2 treats stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WritePolicy {
    /// Writes bypass the L2 (invalidating any stale copy) and go straight
    /// to memory — the paper's GPU coherence configuration (footnote 2).
    #[default]
    BypassInvalidate,
    /// Write-through with update: a store hit refreshes the cached line.
    WriteThroughUpdate,
    /// Write-back with write-allocate: stores coalesce in the L2 and reach
    /// memory on eviction. Detected-uncorrectable errors on dirty lines
    /// are data loss (the §5.6.1 scenario Killi's escalated protection
    /// addresses).
    WriteBack,
}

/// The banked, write-through, fault-injected GPU L2 cache.
///
/// Line metadata is struct-of-arrays: valid/dirty flags are bit-packed 64
/// lines to the word and tags/LRU stamps live in their own contiguous
/// arrays, so victim search and tag match sweep flat memory instead of
/// striding over per-line records. There is no payload array: a line's
/// content is derived from the [`MainMemory`] every access is handed, so
/// every access of one cache must be handed the same memory.
pub struct L2Cache {
    geom: CacheGeometry,
    addr_map: AddrMap,
    tag_latency: u32,
    data_latency: u32,
    banks: usize,
    write_policy: WritePolicy,
    valid: BitVec,
    dirty: BitVec,
    tags: Vec<u64>,
    /// Soft-error flips of a line since its install, XORed over its
    /// derived content. Sparse: only lines an upset struck have an entry.
    soft_flips: IntMap<LineId, Line512>,
    lru: Vec<u64>,
    clock: u64,
    bank_free: Vec<u64>,
    pending_writebacks: Vec<u64>,
    map: Arc<FaultMap>,
    protection: Box<dyn LineProtection>,
    soft: SoftErrorInjector,
    sink: Sink,
    /// L2-side counters (merged into the run's [`SimStats`]).
    pub stats: SimStats,
}

impl L2Cache {
    /// Builds an L2 over a fault map and a protection scheme.
    ///
    /// # Panics
    ///
    /// Panics if the fault map does not cover the geometry's line count or
    /// if `banks` is not a power of two.
    pub fn new(
        geom: CacheGeometry,
        banks: usize,
        tag_latency: u32,
        data_latency: u32,
        map: Arc<FaultMap>,
        protection: Box<dyn LineProtection>,
    ) -> Self {
        let lines = geom.lines();
        let addr_map = AddrMap::new(&geom); // validates geometry
        assert!(banks.is_power_of_two(), "banks must be a power of two");
        assert!(
            map.lines() >= lines,
            "fault map covers {} lines, cache has {}",
            map.lines(),
            lines
        );
        L2Cache {
            geom,
            addr_map,
            tag_latency,
            data_latency,
            banks,
            write_policy: WritePolicy::default(),
            valid: BitVec::zeroed(lines),
            dirty: BitVec::zeroed(lines),
            tags: vec![0; lines],
            soft_flips: IntMap::default(),
            lru: vec![0; lines],
            clock: 0,
            bank_free: vec![0; banks],
            pending_writebacks: Vec::new(),
            map,
            protection,
            soft: SoftErrorInjector::disabled(),
            sink: Sink::none(),
            stats: SimStats::default(),
        }
    }

    /// Routes cache-level events into `sink` and hands the protection
    /// scheme a clone so both layers share one trace/op-clock.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.protection.attach_sink(sink.clone());
        self.sink = sink;
    }

    /// Sets the store-handling policy.
    pub fn set_write_policy(&mut self, policy: WritePolicy) {
        self.write_policy = policy;
    }

    /// Enables transient-error injection on the read path.
    pub fn set_soft_errors(&mut self, injector: SoftErrorInjector) {
        self.soft = injector;
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// The protection scheme (for end-of-run stats).
    pub fn protection(&self) -> &dyn LineProtection {
        &*self.protection
    }

    /// Clears the run counters and bank-queue clocks (multi-phase
    /// experiments measure each phase separately, each starting at cycle
    /// zero); cache contents and learned protection state are untouched.
    pub fn reset_stats(&mut self) {
        self.stats = SimStats::default();
        for b in &mut self.bank_free {
            *b = 0;
        }
    }

    /// The fault map backing this cache.
    pub fn fault_map(&self) -> &Arc<FaultMap> {
        &self.map
    }

    fn bank_of(&self, line_addr: u64) -> usize {
        ((line_addr >> self.addr_map.line_shift) as usize) & (self.banks - 1)
    }

    /// Charges the bank queue and returns the queueing delay.
    fn bank_delay(&mut self, line_addr: u64, now: u64) -> u32 {
        let b = self.bank_of(line_addr);
        let start = now.max(self.bank_free[b]);
        self.bank_free[b] = start + 1;
        (start - now) as u32
    }

    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        (0..self.geom.ways).find(|&w| {
            let id = self.geom.line_id(set, w);
            self.valid.get(id) && self.tags[id] == tag
        })
    }

    /// Chooses a victim way for `set`: invalid usable ways first (ordered by
    /// the scheme's victim class), then LRU among usable valid ways.
    /// `None` when every way is disabled.
    fn pick_victim(&self, set: usize) -> Option<usize> {
        let mut best_invalid: Option<(u8, usize)> = None;
        let mut best_valid: Option<(u64, usize)> = None;
        for w in 0..self.geom.ways {
            let id = self.geom.line_id(set, w);
            let Some(class) = self.protection.victim_class(id) else {
                continue; // disabled
            };
            if !self.valid.get(id) {
                if best_invalid.is_none_or(|(c, _)| class < c) {
                    best_invalid = Some((class, w));
                }
            } else if best_valid.is_none_or(|(l, _)| self.lru[id] < l) {
                best_valid = Some((self.lru[id], w));
            }
        }
        best_invalid.map(|(_, w)| w).or(best_valid.map(|(_, w)| w))
    }

    /// Line-aligned address of the line valid line `id` holds.
    fn addr_of(&self, id: LineId) -> u64 {
        let set = (id / self.geom.ways) as u64;
        (self.tags[id] << self.addr_map.tag_shift) | (set << self.addr_map.line_shift)
    }

    /// What the array holds for valid line `id` whose intended content is
    /// `intended`: the stuck-at cells' values, then the soft flips.
    fn array_content(&self, id: LineId, intended: &Line512) -> Line512 {
        let mut stored = *intended;
        self.map.corrupt_data(id, &mut stored);
        if let Some(flips) = self.soft_flips.get(&id) {
            stored ^= *flips;
        }
        stored
    }

    /// What the array holds for valid line `id`.
    fn stored(&self, id: LineId, mem: &MainMemory) -> Line512 {
        self.array_content(id, &mem.line_data(self.addr_of(id)))
    }

    /// The array now holds line `id`'s intended content as its faulty
    /// cells store it: earlier soft flips are overwritten.
    fn installed(&mut self, id: LineId) {
        if !self.soft_flips.is_empty() {
            self.soft_flips.remove(&id);
        }
    }

    fn invalidate_line(&mut self, id: LineId, notify: bool, mem: &MainMemory) {
        if self.valid.get(id) {
            if notify {
                let stored = self.stored(id, mem);
                self.protection.on_evict(id, &stored);
            }
            self.retire_dirty(id);
            self.valid.set(id, false);
        }
    }

    /// Queues the write-back of a dirty line being removed; drained into
    /// memory by the access that triggered the eviction.
    fn retire_dirty(&mut self, id: LineId) {
        if self.dirty.get(id) {
            self.dirty.set(id, false);
            self.stats.writebacks += 1;
            let addr = self.addr_of(id);
            self.pending_writebacks.push(addr);
        }
    }

    fn drain_writebacks(&mut self, mem: &mut MainMemory) {
        for addr in self.pending_writebacks.drain(..) {
            mem.writeback(addr);
        }
    }

    /// A line lost its protection metadata: let the scheme try to
    /// reclassify it in place (an extra data-array read); invalidate it
    /// only if it cannot stand on its own.
    fn handle_displaced(&mut self, victim: LineId, mem: &MainMemory) {
        if self.valid.get(victim) {
            self.stats.l2_data_accesses += 1;
            let stored = self.stored(victim, mem);
            if self.protection.on_displaced(victim, &stored) {
                return; // salvaged: verified and re-protected in place
            }
            self.stats.ecc_induced_invalidations += 1;
            self.sink.emit(|| KilliEvent::EccInducedMiss {
                line: victim as u32,
            });
            self.retire_dirty(victim);
            self.valid.set(victim, false);
        }
    }

    /// Invalidates any copy of `addr` (store path / external request),
    /// notifying the scheme so eviction-time training still happens. Call
    /// it before `addr`'s memory value changes: training sees the bits the
    /// array held.
    pub fn invalidate_addr(&mut self, addr: u64, mem: &MainMemory) {
        let set = self.addr_map.set_of(addr);
        let tag = self.addr_map.tag_of(addr);
        if let Some(w) = self.find_way(set, tag) {
            self.invalidate_line(self.geom.line_id(set, w), true, mem);
        }
    }

    /// Fills `addr`, whose memory content is `intended`, into its set;
    /// returns extra fill latency and the line installed into (None when
    /// the set was unusable). Does not charge the memory latency (the
    /// caller accounts it).
    fn fill(&mut self, addr: u64, intended: &Line512, mem: &MainMemory) -> (u32, Option<LineId>) {
        let set = self.addr_map.set_of(addr);
        // Eviction-time training may reclassify the chosen victim as
        // disabled; re-pick until a usable way survives its own eviction.
        let id = loop {
            let Some(way) = self.pick_victim(set) else {
                self.stats.l2_bypasses += 1;
                return (0, None); // whole set disabled: serve from memory
            };
            let id = self.geom.line_id(set, way);
            let was_valid = self.valid.get(id);
            self.invalidate_line(id, true, mem); // train on eviction if it held data
            if let Some(class) = self.protection.victim_class(id) {
                self.sink.emit(|| KilliEvent::VictimDecision {
                    line: id as u32,
                    class,
                    valid: was_valid,
                });
                break id;
            }
        };
        let outcome = self.protection.on_fill(id, intended);
        if let Some(victim) = outcome.invalidate {
            debug_assert_ne!(victim, id, "scheme invalidated the line it filled");
            if victim != id {
                self.handle_displaced(victim, mem);
            }
        }
        if !outcome.accepted {
            self.stats.l2_bypasses += 1;
            self.sink
                .emit(|| KilliEvent::FillRejected { line: id as u32 });
            return (outcome.extra_cycles, None);
        }
        self.installed(id);
        self.tags[id] = self.addr_map.tag_of(addr);
        self.valid.set(id, true);
        self.dirty.set(id, false);
        self.clock += 1;
        self.lru[id] = self.clock;
        self.stats.l2_data_accesses += 1;
        (outcome.extra_cycles, Some(id))
    }

    /// Services a load at time `now`. Returns total latency and hit/miss.
    /// `mem` must be the memory every earlier access of this cache used.
    pub fn access_load(&mut self, addr: u64, now: u64, mem: &mut MainMemory) -> LoadResult {
        let line_addr = self.geom.line_addr(addr);
        let set = self.addr_map.set_of(addr);
        let tag = self.addr_map.tag_of(addr);
        let mut latency = self.bank_delay(line_addr, now) + self.tag_latency;
        self.stats.l2_tag_accesses += 1;

        if let Some(way) = self.find_way(set, tag) {
            let id = self.geom.line_id(set, way);
            self.clock += 1;
            self.lru[id] = self.clock;
            self.protection.on_promote(id);
            self.stats.l2_data_accesses += 1;
            let intended = mem.line_data(line_addr);
            let mut delivered = self.array_content(id, &intended);
            // Transient upsets strike the array content itself.
            let flipped = self.soft.maybe_upset(&mut delivered);
            if !flipped.is_empty() {
                let flips = self.soft_flips.entry(id).or_insert_with(Line512::zero);
                for bit in flipped {
                    flips.flip_bit(bit);
                }
            }
            match self.protection.on_read_hit(id, &mut delivered) {
                ReadOutcome::Clean {
                    extra_cycles,
                    corrected,
                } => {
                    latency +=
                        self.data_latency + self.protection.hit_latency_extra() + extra_cycles;
                    if corrected {
                        self.stats.corrections += 1;
                    }
                    if delivered != intended {
                        self.stats.sdc_events += 1;
                    }
                    self.stats.l2_hits += 1;
                    return LoadResult { latency, hit: true };
                }
                ReadOutcome::ErrorMiss { extra_cycles } => {
                    latency += self.data_latency + extra_cycles;
                    self.stats.l2_error_misses += 1;
                    self.sink.emit(|| KilliEvent::ErrorMiss { line: id as u32 });
                    if self.dirty.get(id) {
                        // The only valid copy was corrupt: real data loss.
                        // (The refetch below returns the architecturally
                        // correct value so the simulation can continue.)
                        self.stats.dirty_data_loss += 1;
                        self.dirty.set(id, false);
                    }
                    self.invalidate_line(id, false, mem); // scheme already updated
                }
            }
        }
        // Miss path (demand miss or error-induced refetch).
        self.stats.l2_misses += 1;
        self.stats.mem_reads += 1;
        let line = mem.read(line_addr);
        let (extra, _) = self.fill(addr, &line, mem);
        latency += mem.latency() + extra;
        self.drain_writebacks(mem);
        LoadResult {
            latency,
            hit: false,
        }
    }

    /// Services a store at time `now`. Returns the L2-side latency (stores
    /// are posted; CUs do not stall on them). `mem` must be the memory
    /// every earlier access of this cache used.
    pub fn access_store(&mut self, addr: u64, now: u64, mem: &mut MainMemory) -> u32 {
        let line_addr = self.geom.line_addr(addr);
        let latency = self.bank_delay(line_addr, now) + self.tag_latency;
        self.stats.l2_tag_accesses += 1;
        match self.write_policy {
            WritePolicy::BypassInvalidate => {
                // Evict first: the line's content derives from memory, so
                // eviction training must see it before the store lands.
                self.invalidate_addr(addr, mem);
                mem.write(line_addr);
                self.stats.mem_writes += 1;
            }
            WritePolicy::WriteThroughUpdate => {
                mem.write(line_addr);
                self.stats.mem_writes += 1;
                let set = self.addr_map.set_of(addr);
                let tag = self.addr_map.tag_of(addr);
                if let Some(way) = self.find_way(set, tag) {
                    let id = self.geom.line_id(set, way);
                    // Re-install the fresh value through the scheme.
                    let intended = mem.line_data(line_addr);
                    let outcome = self.protection.on_fill(id, &intended);
                    if let Some(victim) = outcome.invalidate {
                        if victim != id {
                            self.handle_displaced(victim, mem);
                        }
                    }
                    if outcome.accepted {
                        self.installed(id);
                        self.stats.l2_data_accesses += 1;
                    } else {
                        self.invalidate_line(id, false, mem);
                    }
                }
            }
            WritePolicy::WriteBack => {
                // The architectural value advances; traffic happens only
                // when the dirty line is eventually written back.
                mem.bump_version(line_addr);
                let set = self.addr_map.set_of(addr);
                let tag = self.addr_map.tag_of(addr);
                let (intended, id) = match self.find_way(set, tag) {
                    Some(way) => {
                        let id = self.geom.line_id(set, way);
                        self.clock += 1;
                        self.lru[id] = self.clock;
                        (mem.line_data(line_addr), Some(id))
                    }
                    None => {
                        // Write-allocate: fetch and install, then update.
                        self.stats.mem_reads += 1;
                        let line = mem.read(line_addr);
                        (line, self.fill(addr, &line, mem).1)
                    }
                };
                if let Some(id) = id {
                    let outcome = self.protection.on_write(id, &intended);
                    if let Some(victim) = outcome.invalidate {
                        if victim != id {
                            self.handle_displaced(victim, mem);
                        }
                    }
                    if outcome.accepted {
                        self.installed(id);
                        self.dirty.set(id, true);
                        self.stats.l2_data_accesses += 1;
                    } else {
                        // The scheme refuses to hold this dirty data: send
                        // it straight to memory instead.
                        self.invalidate_line(id, false, mem);
                        mem.writeback(line_addr);
                        self.stats.mem_writes += 1;
                    }
                } else {
                    // No usable way: the store goes through to memory.
                    mem.writeback(line_addr);
                    self.stats.mem_writes += 1;
                }
                self.drain_writebacks(mem);
            }
        }
        latency
    }

    /// Drains all valid lines through the eviction path (end-of-kernel or
    /// test introspection). In write-back mode any dirty lines are queued
    /// for write-back and drained by the next memory-carrying access.
    pub fn flush(&mut self, mem: &MainMemory) {
        for id in 0..self.geom.lines() {
            self.invalidate_line(id, true, mem);
        }
    }

    /// Merges protection-scheme counters into the L2 stats and returns a
    /// snapshot.
    pub fn finalized_stats(&mut self) -> SimStats {
        self.stats.ecc_cache_accesses = self.protection.metrics().get(Counter::EccCacheAccesses);
        self.stats
    }
}

impl std::fmt::Debug for L2Cache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("L2Cache")
            .field("geom", &self.geom)
            .field("banks", &self.banks)
            .field("scheme", &self.protection.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protection::Unprotected;
    use killi_fault::cell_model::{FreqGhz, NormVdd};
    use killi_fault::model::{default_registry, FaultModelConfig};

    fn small_geom() -> CacheGeometry {
        CacheGeometry {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        }
    }

    fn l2(geom: CacheGeometry) -> L2Cache {
        L2Cache::new(
            geom,
            4,
            2,
            2,
            Arc::new(FaultMap::fault_free(geom.lines())),
            Box::new(Unprotected::new()),
        )
    }

    #[test]
    fn try_sets_names_each_broken_rule() {
        let g = |size_bytes, ways, line_bytes| CacheGeometry {
            size_bytes,
            ways,
            line_bytes,
        };
        assert_eq!(CacheGeometry::PAPER_L2.try_sets(), Ok(2048));
        assert_eq!(g(1024, 16, 64).try_sets(), Ok(1));
        let err = |geom: CacheGeometry| geom.try_sets().unwrap_err();
        assert!(err(g(1024, 4, 0)).contains("not a power of two"));
        assert!(err(g(1536, 4, 48)).contains("not a power of two"));
        assert!(err(g(1024, 0, 64)).contains("associativity"));
        assert!(err(g(1000, 4, 64)).contains("does not divide"));
        assert!(err(g(1024, 3, 64)).contains("does not divide"));
        assert!(err(g(3072, 4, 64)).contains("12 sets"));
        assert!(err(g(0, 4, 64)).contains("0 sets"));
    }

    #[test]
    fn geometry_decomposition() {
        let g = CacheGeometry::PAPER_L2;
        assert_eq!(g.sets(), 2048);
        assert_eq!(g.lines(), 32768);
        let addr = 0xDEAD_BEEF;
        assert_eq!(g.line_addr(addr), addr & !63);
        assert!(g.set_of(addr) < g.sets());
        // Round-trip: tag + set + offset reconstruct the line address.
        let rebuilt =
            (g.tag_of(addr) * g.sets() as u64 + g.set_of(addr) as u64) * g.line_bytes as u64;
        assert_eq!(rebuilt, g.line_addr(addr));
    }

    #[test]
    fn load_miss_then_hit() {
        let mut c = l2(small_geom());
        let mut mem = MainMemory::new(1, 300);
        let r1 = c.access_load(0x1000, 0, &mut mem);
        assert!(!r1.hit);
        assert!(r1.latency >= 300);
        let r2 = c.access_load(0x1000, 400, &mut mem);
        assert!(r2.hit);
        assert!(r2.latency < 10);
        assert_eq!(c.stats.l2_hits, 1);
        assert_eq!(c.stats.l2_misses, 1);
        assert_eq!(c.stats.sdc_events, 0);
    }

    #[test]
    fn lru_replacement_within_set() {
        let g = small_geom(); // 4 ways, 64 sets
        let mut c = l2(g);
        let mut mem = MainMemory::new(1, 10);
        let sets = g.sets() as u64;
        let stride = 64 * sets; // same set
                                // Fill 4 ways, then touch first to make it MRU, then add a 5th line.
        for i in 0..4 {
            c.access_load(i * stride, i * 1000, &mut mem);
        }
        c.access_load(0, 5000, &mut mem); // promote way holding addr 0
        c.access_load(4 * stride, 6000, &mut mem); // evicts LRU = line 1
        assert!(c.access_load(0, 7000, &mut mem).hit, "MRU line survived");
        assert!(
            !c.access_load(stride, 8000, &mut mem).hit,
            "LRU line evicted"
        );
    }

    #[test]
    fn store_bypass_invalidates() {
        let mut c = l2(small_geom());
        let mut mem = MainMemory::new(1, 10);
        c.access_load(0x40, 0, &mut mem);
        assert!(c.access_load(0x40, 100, &mut mem).hit);
        c.access_store(0x40, 200, &mut mem);
        assert!(!c.access_load(0x40, 300, &mut mem).hit, "stale copy served");
        assert_eq!(c.stats.mem_writes, 1);
    }

    #[test]
    fn store_update_policy_keeps_line_fresh() {
        let mut c = l2(small_geom());
        c.set_write_policy(WritePolicy::WriteThroughUpdate);
        let mut mem = MainMemory::new(1, 10);
        c.access_load(0x40, 0, &mut mem);
        c.access_store(0x40, 100, &mut mem);
        let r = c.access_load(0x40, 200, &mut mem);
        assert!(r.hit, "updated line still resident");
        assert_eq!(c.stats.sdc_events, 0, "updated line content is fresh");
    }

    #[test]
    fn bank_contention_adds_delay() {
        let mut c = l2(small_geom());
        let mut mem = MainMemory::new(1, 10);
        // Two same-cycle misses to different lines of the same bank: the
        // second queues one cycle behind the first.
        let a = c.access_load(0x0, 0, &mut mem);
        let b = c.access_load(0x100, 0, &mut mem); // (0x100/64) % 4 banks == 0
        assert_eq!(b.latency, a.latency + 1);
    }

    #[test]
    fn corrupted_line_without_protection_is_sdc() {
        // With real faults and no protection, a faulty line read back is a
        // silent data corruption — this validates the SDC detector.
        let g = small_geom();
        let model = default_registry()
            .build(&FaultModelConfig::default(), &())
            .expect("stuck-at always builds");
        let map = model.map(g.lines(), NormVdd(0.55), FreqGhz::PEAK, 3);
        let faulty_line = (0..g.lines())
            .find(|&l| map.data_fault_count(l) > 0)
            .expect("a faulty line at 0.55 VDD");
        let set = faulty_line / g.ways;
        let way = faulty_line % g.ways;
        let mut c = L2Cache::new(g, 4, 2, 2, Arc::new(map), Box::new(Unprotected::new()));
        let mut mem = MainMemory::new(1, 10);
        // Fill every way of the target set; one of them lands on the faulty
        // physical line.
        let sets = g.sets() as u64;
        for i in 0..g.ways as u64 {
            let addr = (set as u64) * 64 + i * 64 * sets;
            c.access_load(addr, i * 1000, &mut mem);
        }
        let _ = way;
        // Read them all back.
        for i in 0..g.ways as u64 {
            let addr = (set as u64) * 64 + i * 64 * sets;
            c.access_load(addr, 100_000 + i * 1000, &mut mem);
        }
        assert!(c.stats.sdc_events > 0, "expected an SDC on the faulty way");
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = l2(small_geom());
        let mut mem = MainMemory::new(1, 10);
        c.access_load(0x40, 0, &mut mem);
        c.flush(&mem);
        assert!(!c.access_load(0x40, 100, &mut mem).hit);
    }

    #[test]
    fn tag_cache_hit_miss_and_invalidate() {
        let mut t = TagCache::new(CacheGeometry {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        });
        assert!(!t.access(0x40));
        t.fill(0x40);
        assert!(t.access(0x40));
        t.invalidate(0x40);
        assert!(!t.access(0x40));
    }

    #[test]
    fn tag_cache_lru() {
        let g = CacheGeometry {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        }; // 8 sets
        let mut t = TagCache::new(g);
        let stride = 64 * 8;
        t.fill(0);
        t.fill(stride);
        assert!(t.access(0)); // make 0 MRU
        t.fill(2 * stride); // evicts `stride`
        assert!(t.access(0));
        assert!(!t.access(stride));
        assert!(t.access(2 * stride));
    }
}

#[cfg(test)]
mod write_back_tests {
    use super::*;
    use crate::mem::MainMemory;
    use crate::protection::Unprotected;
    use killi_fault::map::FaultMap;

    fn wb_l2() -> L2Cache {
        let geom = CacheGeometry {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        };
        let mut c = L2Cache::new(
            geom,
            4,
            2,
            2,
            Arc::new(FaultMap::fault_free(geom.lines())),
            Box::new(Unprotected::new()),
        );
        c.set_write_policy(WritePolicy::WriteBack);
        c
    }

    #[test]
    fn stores_coalesce_until_eviction() {
        let mut c = wb_l2();
        let mut mem = MainMemory::new(1, 10);
        c.access_store(0x40, 0, &mut mem);
        c.access_store(0x40, 10, &mut mem);
        c.access_store(0x40, 20, &mut mem);
        assert_eq!(mem.writes(), 0, "dirty data coalesces in the cache");
        // Evict the set: fill 4 conflicting lines.
        let stride = 64 * c.geometry().sets() as u64;
        for i in 1..=4u64 {
            c.access_load(0x40 + i * stride, 100 * i, &mut mem);
        }
        assert_eq!(mem.writes(), 1, "one write-back on eviction");
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn dirty_line_reads_latest_value() {
        let mut c = wb_l2();
        let mut mem = MainMemory::new(1, 10);
        c.access_store(0x40, 0, &mut mem);
        let r = c.access_load(0x40, 100, &mut mem);
        assert!(r.hit);
        assert_eq!(c.stats.sdc_events, 0, "the dirty copy is architectural");
    }

    #[test]
    fn write_allocate_fetches_line() {
        let mut c = wb_l2();
        let mut mem = MainMemory::new(1, 10);
        c.access_store(0x80, 0, &mut mem);
        assert_eq!(mem.reads(), 1, "write-allocate fetch");
        assert!(c.access_load(0x80, 100, &mut mem).hit);
    }

    #[test]
    fn writeback_preserves_content_through_round_trip() {
        let mut c = wb_l2();
        let mut mem = MainMemory::new(1, 10);
        c.access_store(0x40, 0, &mut mem);
        let expected = mem.line_data(0x40);
        // Evict the dirty line, then reload it from memory.
        let stride = 64 * c.geometry().sets() as u64;
        for i in 1..=4u64 {
            c.access_load(0x40 + i * stride, 100 * i, &mut mem);
        }
        c.access_load(0x40, 10_000, &mut mem);
        assert_eq!(mem.line_data(0x40), expected);
        assert_eq!(c.stats.sdc_events, 0);
    }
}
