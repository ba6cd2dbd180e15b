//! Oracle for the L2's derived line content (killi-check harness).
//!
//! The L2 stores no payloads: it derives a valid line's array content on
//! read from memory, the fault map and a sparse overlay of soft-error
//! flips. The oracle is the payload array the L2 once kept, rebuilt here
//! beside the cache: the stuck-at corrupted intended line at every
//! accepted install, with the soft-error injector's flips replayed at
//! every read hit. A test scheme compares each line the L2 hands it (at
//! read hit, eviction and displacement) against that shadow copy, and now
//! and then displaces another line, rejects a fill or reports an
//! uncorrectable error, so every path that installs, reads or drops a
//! line is exercised.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use killi_check::{check, Gen};
use killi_ecc::bits::Line512;
use killi_fault::map::{layout, CellFault, FaultMap, LineId};
use killi_fault::soft::SoftErrorInjector;
use killi_sim::cache::{CacheGeometry, L2Cache, WritePolicy};
use killi_sim::mem::MainMemory;
use killi_sim::protection::{FillOutcome, LineProtection, ReadOutcome};

/// The payload array the L2 no longer keeps, and what the scheme saw.
struct Shadow {
    map: Arc<FaultMap>,
    /// A replica of the L2's injector: one draw per read hit, in order.
    soft: SoftErrorInjector,
    lines: Vec<Line512>,
    /// Draws for the scheme's own choices.
    choices: Gen,
    /// Lines compared at read hit, eviction and displacement.
    checked: [u64; 3],
    mismatches: Vec<String>,
}

impl Shadow {
    fn compare(&mut self, hook: usize, line: LineId, handed: &Line512) {
        self.checked[hook] += 1;
        if *handed != self.lines[line] {
            let hook = ["read hit", "eviction", "displacement"][hook];
            self.mismatches.push(format!(
                "line {line} at {hook}: {:x} != {:x}",
                handed, self.lines[line]
            ));
        }
    }
}

/// A scheme that checks every line it is handed against the shadow.
struct Recorder(Rc<RefCell<Shadow>>);

impl LineProtection for Recorder {
    fn name(&self) -> &str {
        "payload-oracle"
    }

    fn reset(&mut self) {}

    fn victim_class(&self, line: LineId) -> Option<u8> {
        Some((line % 3) as u8)
    }

    fn on_fill(&mut self, line: LineId, data: &Line512) -> FillOutcome {
        let shadow = &mut *self.0.borrow_mut();
        let accepted = shadow.choices.u64_below(8) != 0;
        let mut invalidate = None;
        if shadow.choices.u64_below(4) == 0 {
            let other = shadow.choices.usize_in(0, shadow.lines.len());
            if other != line {
                invalidate = Some(other);
            }
        }
        if accepted {
            let mut stored = *data;
            shadow.map.corrupt_data(line, &mut stored);
            shadow.lines[line] = stored;
        }
        FillOutcome {
            accepted,
            invalidate,
            extra_cycles: 0,
        }
    }

    fn on_read_hit(&mut self, line: LineId, stored: &mut Line512) -> ReadOutcome {
        let shadow = &mut *self.0.borrow_mut();
        shadow.soft.maybe_upset(&mut shadow.lines[line]);
        shadow.compare(0, line, stored);
        if shadow.choices.u64_below(8) == 0 {
            ReadOutcome::ErrorMiss { extra_cycles: 0 }
        } else {
            ReadOutcome::Clean {
                extra_cycles: 0,
                corrected: false,
            }
        }
    }

    fn on_evict(&mut self, line: LineId, stored: &Line512) {
        self.0.borrow_mut().compare(1, line, stored);
    }

    fn on_displaced(&mut self, line: LineId, stored: &Line512) -> bool {
        let shadow = &mut *self.0.borrow_mut();
        shadow.compare(2, line, stored);
        shadow.choices.bool()
    }
}

/// A map where about half the lines carry up to four stuck-at cells.
fn random_map(g: &mut Gen, lines: usize) -> FaultMap {
    let per_line = (0..lines)
        .map(|_| {
            if g.bool() {
                return Vec::new();
            }
            g.distinct(usize::from(layout::CELLS_PER_LINE), 1, 4)
                .into_iter()
                .map(|cell| CellFault {
                    cell: cell as u16,
                    stuck: g.bool(),
                })
                .collect()
        })
        .collect();
    FaultMap::from_faults(per_line)
}

#[test]
fn l2_hands_schemes_the_bits_its_array_would_hold() {
    check("l2_hands_schemes_the_bits_its_array_would_hold", |g| {
        // 8 sets of 4 ways, driven over 96 line addresses.
        let geom = CacheGeometry {
            size_bytes: 2048,
            ways: 4,
            line_bytes: 64,
        };
        let map = Arc::new(random_map(g, geom.lines()));
        let soft = SoftErrorInjector::new(g.u64(), 0.25, 0.5, 4);
        let shadow = Rc::new(RefCell::new(Shadow {
            map: Arc::clone(&map),
            soft: soft.clone(),
            lines: vec![Line512::zero(); geom.lines()],
            choices: Gen::new(g.u64()),
            checked: [0; 3],
            mismatches: Vec::new(),
        }));
        let scheme = Recorder(Rc::clone(&shadow));
        let mut l2 = L2Cache::new(geom, 2, 1, 1, map, Box::new(scheme));
        let policy = *g.pick(&[
            WritePolicy::BypassInvalidate,
            WritePolicy::WriteThroughUpdate,
            WritePolicy::WriteBack,
        ]);
        l2.set_write_policy(policy);
        l2.set_soft_errors(soft);
        let mut mem = MainMemory::new(g.u64(), 10);
        for now in 0..400 {
            let addr = g.u64_below(96) * 64;
            if g.u64_below(3) == 0 {
                l2.access_store(addr, now, &mut mem);
            } else {
                l2.access_load(addr, now, &mut mem);
            }
        }
        l2.flush(&mem);
        let shadow = shadow.borrow();
        assert!(
            shadow.mismatches.is_empty(),
            "{policy:?}: {} of {:?} lines differ, first: {}",
            shadow.mismatches.len(),
            shadow.checked,
            shadow.mismatches[0]
        );
        assert!(
            shadow.checked.iter().all(|&n| n > 0),
            "{policy:?}: a hook was never reached: {:?}",
            shadow.checked
        );
        assert!(shadow.soft.injected_events() > 0, "no soft error struck");
    });
}
