//! Oracle for the L2's replacement decisions (killi-check harness).
//!
//! The reference is a plain set-associative cache written from the
//! paper's §4.4 rules alone, one way at a time: a fill takes the invalid
//! usable way of lowest victim class (the lowest way on a tie), else the
//! least recently used valid usable way; disabled ways are never taken,
//! and when evicting the chosen victim disables it, the pick is made
//! again. It runs beside an [`L2Cache`] under a test scheme that draws
//! random classes, disables lines on eviction and refuses some fills.
//! Each side owns one copy of the scheme, seeded alike, so the copies stay
//! equal exactly as long as both caches make the same decisions: every
//! access compares the hit or miss and the hooks each copy received.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use killi_check::{check, Gen};
use killi_ecc::bits::Line512;
use killi_fault::map::{FaultMap, LineId};
use killi_sim::cache::{CacheGeometry, L2Cache, WritePolicy};
use killi_sim::mem::MainMemory;
use killi_sim::protection::{FillOutcome, LineProtection, ReadOutcome, VICTIM_CLASSES};

/// A scheme hook call, as a copy of the scheme received it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Hook {
    Fill(LineId),
    Hit(LineId),
    Evict(LineId),
    Promote(LineId),
}

/// Per-line victim classes that move at every fill and eviction.
struct Classes {
    class: Vec<Option<u8>>,
    draws: Gen,
    hooks: Vec<Hook>,
}

impl Classes {
    fn new(lines: usize, seed: u64) -> Self {
        let mut draws = Gen::new(seed);
        let class = (0..lines).map(|_| Self::draw(&mut draws)).collect();
        Classes {
            class,
            draws,
            hooks: Vec::new(),
        }
    }

    /// One line in five disabled, the rest spread over every class.
    fn draw(draws: &mut Gen) -> Option<u8> {
        (draws.u64_below(5) != 0).then(|| draws.u64_below(VICTIM_CLASSES as u64) as u8)
    }
}

/// The test scheme: its classes live behind a handle the test keeps.
struct RandomClasses(Rc<RefCell<Classes>>);

impl LineProtection for RandomClasses {
    fn name(&self) -> &str {
        "random-classes"
    }

    fn reset(&mut self) {}

    fn victim_class(&self, line: LineId) -> Option<u8> {
        self.0.borrow().class[line]
    }

    fn on_fill(&mut self, line: LineId, _data: &Line512) -> FillOutcome {
        let c = &mut *self.0.borrow_mut();
        c.hooks.push(Hook::Fill(line));
        // A fill reclassifies up to two lines anywhere in the cache.
        for _ in 0..c.draws.u64_below(3) {
            let other = c.draws.usize_in(0, c.class.len());
            c.class[other] = Classes::draw(&mut c.draws);
        }
        FillOutcome {
            accepted: c.draws.u64_below(8) != 0,
            ..FillOutcome::default()
        }
    }

    fn on_read_hit(&mut self, line: LineId, _stored: &mut Line512) -> ReadOutcome {
        self.0.borrow_mut().hooks.push(Hook::Hit(line));
        ReadOutcome::Clean {
            extra_cycles: 0,
            corrected: false,
        }
    }

    fn on_evict(&mut self, line: LineId, _stored: &Line512) {
        let c = &mut *self.0.borrow_mut();
        c.hooks.push(Hook::Evict(line));
        // Eviction-time training: a quarter of the victims are disabled.
        c.class[line] = if c.draws.u64_below(4) == 0 {
            None
        } else {
            Classes::draw(&mut c.draws)
        };
    }

    fn on_promote(&mut self, line: LineId) {
        self.0.borrow_mut().hooks.push(Hook::Promote(line));
    }
}

/// The reference: a plain set-associative cache over its own copy of the
/// scheme, with the §4.4 victim rules written out way by way.
struct PlainL2 {
    sets: u64,
    ways: usize,
    valid: Vec<bool>,
    tags: Vec<u64>,
    lru: Vec<u64>,
    clock: u64,
    scheme: RandomClasses,
    bypasses: u64,
}

impl PlainL2 {
    fn new(geom: CacheGeometry, scheme: RandomClasses) -> Self {
        PlainL2 {
            sets: geom.sets() as u64,
            ways: geom.ways,
            valid: vec![false; geom.lines()],
            tags: vec![0; geom.lines()],
            lru: vec![0; geom.lines()],
            clock: 0,
            scheme,
            bypasses: 0,
        }
    }

    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / 64;
        ((line % self.sets) as usize * self.ways, line / self.sets)
    }

    fn lookup(&self, first: usize, tag: u64) -> Option<LineId> {
        (first..first + self.ways).find(|&id| self.valid[id] && self.tags[id] == tag)
    }

    fn load(&mut self, addr: u64) -> bool {
        let (first, tag) = self.locate(addr);
        if let Some(id) = self.lookup(first, tag) {
            self.clock += 1;
            self.lru[id] = self.clock;
            self.scheme.on_promote(id);
            self.scheme.on_read_hit(id, &mut Line512::zero());
            return true;
        }
        self.fill(first, tag);
        false
    }

    fn fill(&mut self, first: usize, tag: u64) {
        let id = loop {
            let usable: Vec<(LineId, u8)> = (first..first + self.ways)
                .filter_map(|id| Some((id, self.scheme.victim_class(id)?)))
                .collect();
            let invalid = usable
                .iter()
                .filter(|&&(id, _)| !self.valid[id])
                .min_by_key(|&&(id, class)| (class, id));
            let lru = usable
                .iter()
                .filter(|&&(id, _)| self.valid[id])
                .min_by_key(|&&(id, _)| (self.lru[id], id));
            let Some(&(id, _)) = invalid.or(lru) else {
                self.bypasses += 1;
                return;
            };
            if self.valid[id] {
                self.scheme.on_evict(id, &Line512::zero());
                self.valid[id] = false;
                if self.scheme.victim_class(id).is_none() {
                    continue;
                }
            }
            break id;
        };
        if !self.scheme.on_fill(id, &Line512::zero()).accepted {
            self.bypasses += 1;
            return;
        }
        self.valid[id] = true;
        self.tags[id] = tag;
        self.clock += 1;
        self.lru[id] = self.clock;
    }

    fn store(&mut self, addr: u64, policy: WritePolicy) {
        let (first, tag) = self.locate(addr);
        let Some(id) = self.lookup(first, tag) else {
            return;
        };
        match policy {
            WritePolicy::BypassInvalidate => {
                self.scheme.on_evict(id, &Line512::zero());
                self.valid[id] = false;
            }
            WritePolicy::WriteThroughUpdate => {
                if !self.scheme.on_fill(id, &Line512::zero()).accepted {
                    self.valid[id] = false;
                }
            }
            WritePolicy::WriteBack => unreachable!("the oracle models no dirty data"),
        }
    }
}

#[test]
fn l2_victims_follow_the_plain_priority_rules() {
    // Hits and valid-victim evictions over all cases: a small cache whose
    // lines are all disabled has neither.
    let (hits, evictions) = (Cell::new(0), Cell::new(0));
    check("l2_victims_follow_the_plain_priority_rules", |g| {
        // Any associativity up to 64, so a set's flags may straddle two
        // words, over 1 to 8 sets.
        let sets = 1usize << g.usize_in(0, 4);
        let ways = g.usize_in(1, 65);
        let geom = CacheGeometry {
            size_bytes: sets * ways * 64,
            ways,
            line_bytes: 64,
        };
        let seed = g.u64();
        let real = Rc::new(RefCell::new(Classes::new(geom.lines(), seed)));
        let model = Rc::new(RefCell::new(Classes::new(geom.lines(), seed)));
        let map = Arc::new(FaultMap::fault_free(geom.lines()));
        let mut l2 = L2Cache::new(
            geom,
            1,
            1,
            1,
            map,
            Box::new(RandomClasses(Rc::clone(&real))),
        );
        let policy = *g.pick(&[
            WritePolicy::BypassInvalidate,
            WritePolicy::WriteThroughUpdate,
        ]);
        l2.set_write_policy(policy);
        let mut plain = PlainL2::new(geom, RandomClasses(Rc::clone(&model)));
        let mut mem = MainMemory::new(g.u64(), 10);
        let addrs = (2 * geom.lines()) as u64;
        for now in 0..4 * addrs + 200 {
            let addr = g.u64_below(addrs) * 64;
            let seen = real.borrow().hooks.len();
            let is_store = g.u64_below(5) == 0;
            if is_store {
                l2.access_store(addr, now, &mut mem);
                plain.store(addr, policy);
            } else {
                let hit = l2.access_load(addr, now, &mut mem).hit;
                assert_eq!(hit, plain.load(addr), "access {now}: load of {addr:#x}");
                hits.set(hits.get() + u64::from(hit));
            }
            let (real, model) = (real.borrow(), model.borrow());
            if !is_store {
                let evicted = real.hooks[seen..]
                    .iter()
                    .filter(|h| matches!(h, Hook::Evict(_)));
                evictions.set(evictions.get() + evicted.count());
            }
            assert_eq!(
                real.hooks[seen..],
                model.hooks[seen.min(model.hooks.len())..],
                "access {now} to {addr:#x} ({sets} sets of {ways} ways, {policy:?})"
            );
        }
        assert_eq!(l2.stats.l2_bypasses, plain.bypasses);
    });
    assert!(hits.get() > 0 && evictions.get() > 0);
}
