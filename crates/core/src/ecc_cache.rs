//! The ECC cache: a small set-associative structure holding the error
//! protection metadata of the subset of L2 lines that need it (§4.1).
//!
//! Entries are tagged by the (index, way) of the L2 line they protect — not
//! the physical address — which keeps tags small (the paper's 41-bit entry:
//! 11 SECDED checkbits + 12 parity bits + index/way tag). The structure is
//! indexed by the same physical address bits as the L2, so addresses from
//! disjoint L2 sets contend for the same ECC-cache set; an eviction here
//! forces the invalidation of the (unrelated) L2 line it protected — the
//! contention effect Figures 4/5 measure.

use killi_ecc::bch::DectedCode;
use killi_ecc::secded::SecdedCode;
use killi_fault::map::LineId;
use killi_obs::{Histogram, KilliEvent, Sink};

/// Protection metadata stored in one ECC-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EccPayload {
    /// SECDED checkbits plus the upper 12 of the 16 training-mode parity
    /// bits (the 23 payload bits of the paper's 41-bit entry).
    Secded {
        /// The 11 SECDED checkbits.
        code: SecdedCode,
        /// Parity bits 4..16 of the interleaved segment parity.
        parity_hi: u16,
    },
    /// DEC-TED checkbits (post-training upgrade, §5.2: the freed 12 parity
    /// bits plus the 11 SECDED bits hold a 21-bit DECTED code).
    Dected(DectedCode),
    /// Orthogonal-Latin-Square checkbits (the §5.5 low-Vmin variant:
    /// 256 bits of OLSC(8, 2) per protected line).
    Olsc([u64; 4]),
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    valid: bool,
    l2_line: LineId,
    payload: EccPayload,
    lru: u64,
}

const INVALID: Entry = Entry {
    valid: false,
    l2_line: 0,
    payload: EccPayload::Secded {
        code: SecdedCode(0),
        parity_hi: 0,
    },
    lru: 0,
};

/// ECC-cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccCacheConfig {
    /// One ECC-cache entry per `ratio` L2 lines (the paper sweeps
    /// 16..=256).
    pub ratio: usize,
    /// Associativity (Table 3: 4).
    pub ways: usize,
}

impl EccCacheConfig {
    /// The paper's configuration at a given ratio.
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is zero.
    pub fn with_ratio(ratio: usize) -> Self {
        assert!(ratio > 0, "ratio must be positive");
        EccCacheConfig { ratio, ways: 4 }
    }

    /// Checks whether this configuration can be built over an L2 with
    /// `l2_lines` lines, returning the message [`EccCache::new`] would
    /// panic with.
    pub fn validate(&self, l2_lines: usize) -> Result<(), String> {
        if self.ratio == 0 {
            return Err("ratio must be positive".to_string());
        }
        if self.ways == 0 {
            return Err("ways must be positive".to_string());
        }
        let entries = l2_lines / self.ratio;
        if entries < self.ways {
            return Err("ECC cache smaller than one set".to_string());
        }
        let sets = entries / self.ways;
        if !sets.is_power_of_two() {
            return Err("ECC cache sets must be a power of two".to_string());
        }
        Ok(())
    }
}

/// Result of a single-pass set scan ([`EccCache::probe`]): everything the
/// victim-selection check needs to know about an L2 line's ECC-cache set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SetProbe {
    /// The line currently owns an entry.
    pub has_entry: bool,
    /// The set has at least one invalid way.
    pub has_free_way: bool,
}

impl SetProbe {
    /// True when the line could hold checkbits without displacing another
    /// line's entry (it already has an entry, or an insert would land in a
    /// free way).
    pub fn protectable(self) -> bool {
        self.has_entry || self.has_free_way
    }
}

/// Result of a per-L2-set scan ([`EccCache::probe_l2_set`]): the
/// [`SetProbe`] of every line of one L2 set at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2SetProbe {
    /// Bit `w` is set when way `w` of the L2 set owns an entry.
    pub owners: u64,
    /// The ECC-cache set has at least one invalid way.
    pub has_free_way: bool,
}

impl L2SetProbe {
    /// The ways of `ways` that could hold checkbits without displacing
    /// another line's entry ([`SetProbe::protectable`] per way).
    pub fn protectable(self, ways: u64) -> u64 {
        if self.has_free_way {
            ways
        } else {
            ways & self.owners
        }
    }
}

/// The ECC cache.
#[derive(Debug, Clone)]
pub struct EccCache {
    /// `sets - 1`; the set count is asserted a power of two, so the set
    /// index is a mask rather than a modulo on the probe path.
    set_mask: usize,
    ways: usize,
    l2_ways: usize,
    entries: Vec<Entry>,
    clock: u64,
    accesses: u64,
    evictions: u64,
    /// Valid ways in the target set, sampled after every insert (always
    /// on: one bucket increment per insert).
    occupancy_hist: Histogram,
    sink: Sink,
}

impl EccCache {
    /// Builds an ECC cache protecting an L2 with `l2_lines` physical lines
    /// of `l2_ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics if the configuration yields zero sets or a non-power-of-two
    /// set count.
    pub fn new(config: EccCacheConfig, l2_lines: usize, l2_ways: usize) -> Self {
        if let Err(message) = config.validate(l2_lines) {
            panic!("{message}");
        }
        let entries = l2_lines / config.ratio;
        let sets = entries / config.ways;
        EccCache {
            set_mask: sets - 1,
            ways: config.ways,
            l2_ways,
            entries: vec![INVALID; entries],
            clock: 0,
            accesses: 0,
            evictions: 0,
            occupancy_hist: Histogram::new(),
            sink: Sink::none(),
        }
    }

    /// Routes insert/promote/displace/invalidate events into `sink`.
    pub fn attach_sink(&mut self, sink: Sink) {
        self.sink = sink;
    }

    /// Per-set occupancy distribution, one sample per insert.
    pub fn occupancy_histogram(&self) -> &Histogram {
        &self.occupancy_hist
    }

    /// Total entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Lookups + inserts performed (for the energy model).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Valid entries displaced by capacity (each forced an L2 line
    /// invalidation).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// ECC-cache set of an L2 line: indexed by the same physical address
    /// bits (the L2 set index) as the main cache.
    fn set_of(&self, l2_line: LineId) -> usize {
        (l2_line / self.l2_ways) & self.set_mask
    }

    fn set_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.ways..(set + 1) * self.ways
    }

    /// True when `l2_line` currently owns an entry (no LRU update).
    pub fn has_entry(&self, l2_line: LineId) -> bool {
        let range = self.set_range(self.set_of(l2_line));
        self.entries[range]
            .iter()
            .any(|e| e.valid && e.l2_line == l2_line)
    }

    /// True when the set `l2_line` maps to has an invalid way (an insert
    /// would not displace anything).
    pub fn set_has_free_way(&self, l2_line: LineId) -> bool {
        let range = self.set_range(self.set_of(l2_line));
        self.entries[range].iter().any(|e| !e.valid)
    }

    /// Answers [`has_entry`](Self::has_entry) and
    /// [`set_has_free_way`](Self::set_has_free_way) in one pass over the
    /// set, resolving the set index once. This is the victim-selection hot
    /// probe: it runs for every candidate way on every L2 fill.
    pub fn probe(&self, l2_line: LineId) -> SetProbe {
        let range = self.set_range(self.set_of(l2_line));
        let mut p = SetProbe {
            has_entry: false,
            has_free_way: false,
        };
        for e in &self.entries[range] {
            p.has_entry |= e.valid && e.l2_line == l2_line;
            p.has_free_way |= !e.valid;
        }
        p
    }

    /// One scan of the ECC-cache set that the lines of one L2 set,
    /// `first..first + ways` (at most 64 ways, the associativity the cache
    /// was built for), all map to: the lines among them that own an
    /// entry, as a way bitmask, and whether the set has a free way. The
    /// per-set form of [`probe`](Self::probe).
    pub fn probe_l2_set(&self, first: LineId, ways: usize) -> L2SetProbe {
        debug_assert!(first.is_multiple_of(self.l2_ways) && ways <= self.l2_ways.min(64));
        let range = self.set_range(self.set_of(first));
        let mut p = L2SetProbe {
            owners: 0,
            has_free_way: false,
        };
        for e in &self.entries[range] {
            if e.valid && (first..first + ways).contains(&e.l2_line) {
                p.owners |= 1 << (e.l2_line - first);
            }
            p.has_free_way |= !e.valid;
        }
        p
    }

    /// Reads the payload protecting `l2_line`, updating LRU. The set is
    /// resolved once up front; payloads are `Copy`, so a miss walks the
    /// ways without cloning anything.
    pub fn lookup(&mut self, l2_line: LineId) -> Option<EccPayload> {
        self.accesses += 1;
        self.clock += 1;
        let range = self.set_range(self.set_of(l2_line));
        for e in &mut self.entries[range] {
            if e.valid && e.l2_line == l2_line {
                e.lru = self.clock;
                return Some(e.payload);
            }
        }
        None
    }

    /// Updates the payload of an existing entry (e.g. SECDED -> DECTED
    /// upgrade). Returns false when the line has no entry.
    pub fn update(&mut self, l2_line: LineId, payload: EccPayload) -> bool {
        let range = self.set_range(self.set_of(l2_line));
        for e in &mut self.entries[range] {
            if e.valid && e.l2_line == l2_line {
                e.payload = payload;
                return true;
            }
        }
        false
    }

    /// Inserts (or replaces) the entry for `l2_line`. Returns the L2 line
    /// whose entry was evicted to make room, together with its payload (so
    /// the displaced line can still be trained on its way out), if any.
    pub fn insert(&mut self, l2_line: LineId, payload: EccPayload) -> Option<(LineId, EccPayload)> {
        self.accesses += 1;
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(l2_line);
        let range = self.set_range(set);
        let displaced = 'place: {
            // Replace an existing entry for the same line.
            if let Some(e) = self.entries[range.clone()]
                .iter_mut()
                .find(|e| e.valid && e.l2_line == l2_line)
            {
                e.payload = payload;
                e.lru = clock;
                break 'place None;
            }
            // Prefer an invalid way.
            if let Some(e) = self.entries[range.clone()].iter_mut().find(|e| !e.valid) {
                *e = Entry {
                    valid: true,
                    l2_line,
                    payload,
                    lru: clock,
                };
                break 'place None;
            }
            // Evict LRU; its L2 line loses protection.
            let victim_idx = range
                .clone()
                .min_by_key(|&i| self.entries[i].lru)
                .expect("nonempty set");
            let displaced = (
                self.entries[victim_idx].l2_line,
                self.entries[victim_idx].payload,
            );
            self.entries[victim_idx] = Entry {
                valid: true,
                l2_line,
                payload,
                lru: clock,
            };
            self.evictions += 1;
            Some(displaced)
        };
        let occupancy = self.entries[range].iter().filter(|e| e.valid).count();
        self.occupancy_hist.observe_linear(occupancy as u64);
        self.sink.emit(|| KilliEvent::EccInsert {
            line: l2_line as u32,
            set: set as u32,
        });
        if let Some((victim, _)) = displaced {
            self.sink.emit(|| KilliEvent::EccDisplace {
                line: l2_line as u32,
                victim: victim as u32,
            });
        }
        displaced
    }

    /// Removes the entry for `l2_line` (line classified `b'00` or evicted).
    pub fn invalidate(&mut self, l2_line: LineId) {
        let range = self.set_range(self.set_of(l2_line));
        let mut removed = false;
        for e in &mut self.entries[range] {
            if e.valid && e.l2_line == l2_line {
                e.valid = false;
                removed = true;
            }
        }
        if removed {
            self.sink.emit(|| KilliEvent::EccInvalidate {
                line: l2_line as u32,
            });
        }
    }

    /// Promotes the entry of `l2_line` to MRU (coordinated replacement,
    /// §4.4).
    pub fn promote(&mut self, l2_line: LineId) {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(self.set_of(l2_line));
        let mut promoted = false;
        for e in &mut self.entries[range] {
            if e.valid && e.l2_line == l2_line {
                e.lru = clock;
                promoted = true;
            }
        }
        if promoted {
            self.sink.emit(|| KilliEvent::EccPromote {
                line: l2_line as u32,
            });
        }
    }

    /// Clears every entry (DFH reset).
    pub fn clear(&mut self) {
        for e in &mut self.entries {
            e.valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(tag: u16) -> EccPayload {
        EccPayload::Secded {
            code: SecdedCode(tag),
            parity_hi: tag,
        }
    }

    fn cache(ratio: usize) -> EccCache {
        // A 1024-line, 16-way L2.
        EccCache::new(EccCacheConfig::with_ratio(ratio), 1024, 16)
    }

    #[test]
    fn capacity_follows_ratio() {
        assert_eq!(cache(16).capacity(), 64);
        assert_eq!(cache(64).capacity(), 16);
        // Paper: 2 MB L2 at 1:256 -> 128 entries.
        let paper = EccCache::new(EccCacheConfig::with_ratio(256), 32768, 16);
        assert_eq!(paper.capacity(), 128);
    }

    #[test]
    fn degenerate_geometry_is_an_error_not_a_division_by_zero() {
        let config = |ratio, ways| EccCacheConfig { ratio, ways };
        assert_eq!(
            config(4, 0).validate(1024),
            Err("ways must be positive".to_string())
        );
        assert_eq!(
            config(0, 4).validate(1024),
            Err("ratio must be positive".to_string())
        );
        assert!(config(usize::MAX, 4).validate(1024).is_err());
        assert_eq!(config(4, 4).validate(1024), Ok(()));
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c = cache(16);
        assert_eq!(c.insert(5, payload(7)), None);
        assert_eq!(c.lookup(5), Some(payload(7)));
        assert_eq!(c.lookup(6), None);
    }

    #[test]
    fn reinsert_replaces_payload() {
        let mut c = cache(16);
        c.insert(5, payload(1));
        assert_eq!(c.insert(5, payload(2)), None, "no eviction on replace");
        assert_eq!(c.lookup(5), Some(payload(2)));
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn update_requires_existing_entry() {
        let mut c = cache(16);
        assert!(!c.update(5, payload(1)));
        c.insert(5, payload(1));
        assert!(c.update(5, payload(9)));
        assert_eq!(c.lookup(5), Some(payload(9)));
    }

    #[test]
    fn capacity_eviction_reports_displaced_line() {
        let mut c = cache(64); // 16 entries, 4 ways -> 4 sets
                               // Lines mapping to the same ECC set: same (l2_line/16) % 4.
        let same_set: Vec<LineId> = (0..5).map(|i| i * 16 * 4).collect();
        for (i, &l) in same_set.iter().take(4).enumerate() {
            assert_eq!(c.insert(l, payload(i as u16)), None);
        }
        let displaced = c.insert(same_set[4], payload(99));
        assert_eq!(
            displaced,
            Some((same_set[0], payload(0))),
            "LRU entry displaced with its payload"
        );
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn lru_respects_lookups_and_promotion() {
        let mut c = cache(64);
        let lines: Vec<LineId> = (0..5).map(|i| i * 16 * 4).collect();
        for &l in &lines[..4] {
            c.insert(l, payload(0));
        }
        c.lookup(lines[0]); // MRU by lookup
        c.promote(lines[1]); // MRU by coordinated promotion
        let displaced = c.insert(lines[4], payload(0));
        assert_eq!(
            displaced.map(|(l, _)| l),
            Some(lines[2]),
            "oldest untouched entry goes"
        );
    }

    #[test]
    fn invalidate_frees_space() {
        let mut c = cache(64);
        let lines: Vec<LineId> = (0..5).map(|i| i * 16 * 4).collect();
        for &l in &lines[..4] {
            c.insert(l, payload(0));
        }
        c.invalidate(lines[2]);
        assert_eq!(c.occupancy(), 3);
        assert_eq!(c.insert(lines[4], payload(0)), None, "reused freed way");
    }

    #[test]
    fn disjoint_l2_sets_share_ecc_sets() {
        // The contention mechanism of §4.3: with 4 ECC sets, L2 sets 0 and 4
        // collide.
        let c = cache(64);
        assert_eq!(c.set_of(0), c.set_of(4 * 16));
        assert_ne!(c.set_of(0), c.set_of(16));
    }

    #[test]
    fn probe_matches_split_queries() {
        let mut c = cache(64);
        let lines: Vec<LineId> = (0..5).map(|i| i * 16 * 4).collect();
        // Empty set, filling set, full set, and a conflicting line that
        // maps to the full set but owns no entry.
        for &l in &lines[..4] {
            let p = c.probe(l);
            assert_eq!(p.has_entry, c.has_entry(l));
            assert_eq!(p.has_free_way, c.set_has_free_way(l));
            assert!(p.protectable());
            c.insert(l, payload(0));
        }
        let full = c.probe(lines[0]);
        assert!(full.has_entry && !full.has_free_way && full.protectable());
        let conflict = c.probe(lines[4]);
        assert!(!conflict.has_entry && !conflict.has_free_way);
        assert!(!conflict.protectable());
    }

    #[test]
    fn l2_set_probe_matches_the_per_line_probe() {
        // A 1024-line, 16-way L2 at 1:16: 16 ECC sets of 4 ways, each
        // shared by 4 L2 sets.
        killi_check::check_cases("ecc_l2_set_probe", 128, |g| {
            let mut c = cache(16);
            for _ in 0..g.usize_in(0, 64) {
                let line = g.usize_in(0, 1024);
                if g.bool() {
                    c.insert(line, payload(0));
                } else {
                    c.invalidate(line);
                }
            }
            for first in (0..1024).step_by(16) {
                let p = c.probe_l2_set(first, 16);
                for way in 0..16 {
                    let line = c.probe(first + way);
                    assert_eq!(p.owners >> way & 1 != 0, line.has_entry);
                    assert_eq!(p.has_free_way, line.has_free_way);
                    assert_eq!(p.protectable(1 << way) != 0, line.protectable());
                }
            }
        });
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = cache(16);
        c.insert(1, payload(1));
        c.insert(2, payload(2));
        c.clear();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.lookup(1), None);
    }

    #[test]
    fn dected_payload_roundtrip() {
        let mut c = cache(16);
        c.insert(3, EccPayload::Dected(DectedCode(0x1F_FFFF)));
        assert_eq!(c.lookup(3), Some(EccPayload::Dected(DectedCode(0x1F_FFFF))));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        EccCache::new(EccCacheConfig { ratio: 4, ways: 4 }, 48, 16);
    }
}
