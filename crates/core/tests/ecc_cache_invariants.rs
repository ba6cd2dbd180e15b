//! Invariant tests for the ECC cache and its coupling to the L2 (§4.1/§4.3).
//!
//! Two structural properties the performance figures silently rely on:
//!
//! 1. Only lines whose protection metadata lives in the ECC cache —
//!    DFH `b'01` (initial) and `b'10` (one fault) — ever own an entry,
//!    and while such a line holds data its entry is present. `b'00`
//!    lines run on in-array parity alone and `b'11` lines hold nothing,
//!    so an entry for either would be a capacity leak that inflates the
//!    contention Figures 4/5 measure.
//!
//! 2. Displacing an entry by capacity invalidates exactly the one L2
//!    line it protected (when the line cannot re-classify in place),
//!    and the simulator books it under `ecc_induced_invalidations`.
//!
//! The first property is checked under randomized operation sequences
//! that drive [`KilliScheme`] through the same `LineProtection` call
//! contract the simulator uses; the second end-to-end through the real
//! banked L2.

use std::sync::Arc;

use killi::dfh::Dfh;
use killi::ecc_cache::EccCacheConfig;
use killi::scheme::{KilliConfig, KilliScheme};
use killi_check::{check, Gen};
use killi_ecc::bits::Line512;
use killi_fault::map::{CellFault, FaultMap};
use killi_sim::cache::{CacheGeometry, L2Cache};
use killi_sim::mem::MainMemory;
use killi_sim::protection::{LineProtection, ReadOutcome};

const LINES: usize = 16;
const WAYS: usize = 4;

/// Drives a [`KilliScheme`] through the simulator's call contract while
/// mirroring which lines currently hold data, so invariants can relate
/// entry residency to line validity.
struct Harness {
    scheme: KilliScheme,
    map: Arc<FaultMap>,
    valid: [bool; LINES],
    data: [Line512; LINES],
}

impl Harness {
    fn new(g: &mut Gen) -> Self {
        // Sparse random stuck-at faults over the data cells so every DFH
        // class is reachable.
        let mut per_line = vec![Vec::new(); LINES];
        for faults in per_line.iter_mut() {
            for _ in 0..g.usize_in(0, 2) {
                faults.push(CellFault {
                    cell: g.usize_in(0, 511) as u16,
                    stuck: g.bool(),
                });
            }
            faults.sort_by_key(|f| f.cell);
            faults.dedup_by_key(|f| f.cell);
        }
        let map = Arc::new(FaultMap::from_faults(per_line));
        let config = KilliConfig {
            // 4 entries in one set: maximal contention.
            ecc_cache: EccCacheConfig { ratio: 4, ways: 4 },
            ..KilliConfig::with_ratio(4)
        };
        Harness {
            scheme: KilliScheme::new(config, Arc::clone(&map), LINES, WAYS),
            map,
            valid: [false; LINES],
            data: [Line512::zero(); LINES],
        }
    }

    fn stored(&self, line: usize) -> Line512 {
        let mut v = self.data[line];
        self.map.corrupt_data(line, &mut v);
        v
    }

    /// One random protection-interface call, following the L2's contract
    /// (fills only into usable ways, displacement handling, eviction
    /// notification).
    fn step(&mut self, g: &mut Gen) {
        let line = g.usize_in(0, LINES - 1);
        match g.usize_in(0, 3) {
            // Fill (demand miss or refetch).
            0 => {
                if self.scheme.victim_class(line).is_none() {
                    return; // disabled way: the L2 would pick another
                }
                if self.valid[line] {
                    let stored = self.stored(line);
                    self.scheme.on_evict(line, &stored);
                    self.valid[line] = false;
                }
                if self.scheme.victim_class(line).is_none() {
                    return; // eviction training disabled it
                }
                let intended = Line512::from_seed(g.u64());
                let outcome = self.scheme.on_fill(line, &intended);
                if let Some(victim) = outcome.invalidate {
                    assert_ne!(victim, line, "scheme invalidated the line it filled");
                    if self.valid[victim] {
                        let stored = self.stored(victim);
                        if !self.scheme.on_displaced(victim, &stored) {
                            self.valid[victim] = false;
                        }
                    }
                }
                if outcome.accepted {
                    self.valid[line] = true;
                    self.data[line] = intended;
                }
            }
            // Read hit.
            1 => {
                if !self.valid[line] {
                    return;
                }
                self.scheme.on_promote(line);
                let mut delivered = self.stored(line);
                if let ReadOutcome::ErrorMiss { .. } = self.scheme.on_read_hit(line, &mut delivered)
                {
                    // The L2 drops the line without re-notifying the
                    // scheme (it already updated itself).
                    self.valid[line] = false;
                }
            }
            // Eviction (capacity or external invalidation).
            2 => {
                if self.valid[line] {
                    let stored = self.stored(line);
                    self.scheme.on_evict(line, &stored);
                    self.valid[line] = false;
                }
            }
            // Promotion of an L2 hit.
            _ => {
                if self.valid[line] {
                    self.scheme.on_promote(line);
                }
            }
        }
    }

    fn assert_invariants(&self, step: usize) {
        let ecc = self.scheme.ecc_cache();
        assert!(ecc.occupancy() <= ecc.capacity());
        for line in 0..LINES {
            let dfh = self.scheme.dfh(line);
            if ecc.has_entry(line) {
                assert!(
                    dfh.needs_ecc_entry(),
                    "step {step}: line {line} in {dfh:?} owns an ECC entry",
                );
            }
            if self.valid[line] && dfh.needs_ecc_entry() {
                assert!(
                    ecc.has_entry(line),
                    "step {step}: valid line {line} in {dfh:?} lost its ECC entry",
                );
            }
        }
    }
}

#[test]
fn only_unknown_and_stable1_lines_own_entries() {
    check("only_unknown_and_stable1_lines_own_entries", |g| {
        let mut h = Harness::new(g);
        for step in 0..200 {
            h.step(g);
            h.assert_invariants(step);
        }
    });
}

#[test]
fn scrub_and_reset_preserve_entry_ownership() {
    check("scrub_and_reset_preserve_entry_ownership", |g| {
        let mut h = Harness::new(g);
        for _ in 0..60 {
            h.step(g);
        }
        // Scrubbing returns b'11 lines to b'01 without giving them
        // entries (they re-acquire one on their next fill).
        h.scheme.scrub_reclaim();
        h.assert_invariants(1000);
        for line in 0..LINES {
            assert_ne!(h.scheme.dfh(line), Dfh::Disabled, "scrub reclaims all");
        }
        for step in 0..60 {
            h.step(g);
            h.assert_invariants(2000 + step);
        }
        // A DFH reset wipes both the states and the entries.
        h.scheme.reset();
        h.valid = [false; LINES];
        assert_eq!(h.scheme.ecc_cache().occupancy(), 0);
        h.assert_invariants(3000);
    });
}

/// End-to-end: a capacity-displaced entry invalidates exactly the line it
/// protected, and the L2 books it as an ECC-induced invalidation.
#[test]
fn displacement_invalidates_exactly_the_protected_line() {
    // 16 KiB, 16-way L2 -> 256 lines, 16 sets. ECC cache 1:64 with 4 ways
    // -> 4 entries in a single set: every line contends for the same set.
    let geom = CacheGeometry {
        size_bytes: 16 * 1024,
        ways: 16,
        line_bytes: 64,
    };
    let lines = geom.lines();
    let mut mem = MainMemory::new(99, 100);

    // The first load to set 0 fills physical line 0 (all ways invalid and
    // equal priority -> way 0). Give that line one *unmasked* stuck-at
    // fault — polarity opposite the stored bit — so it classifies b'10
    // rather than salvaging itself when its entry is displaced.
    let mut per_line = vec![Vec::new(); lines];
    per_line[0] = vec![CellFault {
        cell: 11,
        stuck: !mem.line_data(0).bit(11),
    }];
    let map = Arc::new(FaultMap::from_faults(per_line));
    let config = KilliConfig {
        ecc_cache: EccCacheConfig { ratio: 64, ways: 4 },
        ..KilliConfig::with_ratio(64)
    };
    let scheme = KilliScheme::new(config, Arc::clone(&map), lines, geom.ways);
    let mut l2 = L2Cache::new(geom, 4, 1, 2, map, Box::new(scheme));

    // Five cold loads into five distinct L2 sets: each stays b'01 and
    // inserts an entry; the fifth displaces the LRU entry (line 0's).
    let addr_of_set = |set: u64| set * 64;
    for set in 0..4 {
        let r = l2.access_load(addr_of_set(set), 0, &mut mem);
        assert!(!r.hit, "cold load");
    }
    assert_eq!(l2.stats.ecc_induced_invalidations, 0);
    let r = l2.access_load(addr_of_set(4), 0, &mut mem);
    assert!(!r.hit);
    assert_eq!(
        l2.stats.ecc_induced_invalidations, 1,
        "displaced faulty line invalidated"
    );

    // Exactly line 0's copy is gone: sets 1..=4 still hit, set 0 misses.
    for set in 1..5 {
        let r = l2.access_load(addr_of_set(set), 100, &mut mem);
        assert!(r.hit, "set {set} must be untouched by the displacement");
    }
    let r = l2.access_load(addr_of_set(0), 100, &mut mem);
    assert!(!r.hit, "the displaced line lost its data");
    assert_eq!(
        l2.stats.ecc_induced_invalidations, 1,
        "no further collateral invalidations"
    );
}

/// Control for the previous test: a fault-free displaced line re-verifies
/// in place (b'01 -> b'00) and keeps its data — no invalidation.
#[test]
fn fault_free_displaced_line_is_salvaged_in_place() {
    let geom = CacheGeometry {
        size_bytes: 16 * 1024,
        ways: 16,
        line_bytes: 64,
    };
    let map = Arc::new(FaultMap::fault_free(geom.lines()));
    let config = KilliConfig {
        ecc_cache: EccCacheConfig { ratio: 64, ways: 4 },
        ..KilliConfig::with_ratio(64)
    };
    let scheme = KilliScheme::new(config, Arc::clone(&map), geom.lines(), geom.ways);
    let mut l2 = L2Cache::new(geom, 4, 1, 2, map, Box::new(scheme));
    let mut mem = MainMemory::new(7, 100);

    for set in 0..5u64 {
        let r = l2.access_load(set * 64, 0, &mut mem);
        assert!(!r.hit);
    }
    assert_eq!(l2.stats.ecc_induced_invalidations, 0, "clean line salvaged");
    for set in 0..5u64 {
        let r = l2.access_load(set * 64, 100, &mut mem);
        assert!(r.hit, "set {set}: every line keeps its data");
    }
}
