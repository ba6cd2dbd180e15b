//! In-memory span recorder for the traced run (`--trace 1`).
//!
//! The benchmark wraps each call into a crate's public API in a span
//! that records its name, start and end (ns since the recorder was
//! made), parent span and run id. Spans stay in memory and are written
//! as JSON lines (`--spans FILE`) when the run ends. A span's *self
//! time* is its duration minus the part its children cover; the share
//! of root time that no leaf covers is `trace.unattributed_pct`.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Ids are indices into the recorder's span list, so
/// a parent's id is always smaller than its children's.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span.
    pub id: usize,
    /// The span that caused it (`None` for a root).
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns since the recorder was made.
    pub start_ns: u64,
    /// End, ns since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
pub struct Recorder {
    run: String,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder for the run named `run`.
    pub fn new(run: String) -> Self {
        Recorder {
            run,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Runs `f` inside a span, handing it the new span's id so it can
    /// open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let id = {
            let mut spans = self.lock();
            let id = spans.len();
            let start_ns = self.now_ns();
            spans.push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
            });
            id
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.lock()[id].end_ns = end_ns;
        out
    }

    /// Runs `f` inside a childless span under `parent`.
    pub fn leaf<R>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> R) -> R {
        self.span(name, Some(parent), |_| f())
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Writes every span, with its self time, as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans();
        for (s, self_ns) in spans.iter().zip(self_times(&spans)) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                self.run, s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered_ns(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span (indexed by id): its duration minus the part
/// of it that its direct children cover. Overlapping children (spans
/// from several threads) are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = covered_ns(children[s.id].iter().copied(), s.start_ns, s.end_ns);
            s.dur_ns() - covered
        })
        .collect()
}

/// The spans of the tree rooted at `root` (the root included).
pub fn subtree(spans: &[Span], root: usize) -> Vec<Span> {
    let mut inside = vec![false; spans.len()];
    let mut out = Vec::new();
    // Parents precede children, so one forward pass marks the tree.
    for s in spans {
        inside[s.id] = s.id == root || s.parent.is_some_and(|p| inside[p]);
        if inside[s.id] {
            out.push(s.clone());
        }
    }
    out
}

/// Summed duration of every span named `name`, in seconds.
pub fn total_s(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum()
}

/// Percentage of root-span time that no leaf below the root covers: the
/// part of a traced run the per-layer spans do not explain.
pub fn unattributed_pct(spans: &[Span]) -> f64 {
    let mut has_children = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_children[p] = true;
        }
    }
    // Parents precede children, so one forward pass finds every root.
    let mut root = vec![0; spans.len()];
    let mut leaves: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        root[s.id] = s.parent.map_or(s.id, |p| root[p]);
        if !has_children[s.id] {
            leaves[root[s.id]].push((s.start_ns, s.end_ns));
        }
    }
    let (mut total, mut unexplained) = (0u64, 0u64);
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        total += s.dur_ns();
        unexplained += s.dur_ns() - covered_ns(leaves[s.id].iter().copied(), s.start_ns, s.end_ns);
    }
    if total == 0 {
        0.0
    } else {
        100.0 * unexplained as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children_once() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover [10, 50) together.
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            // A grandchild only counts against its own parent.
            span(3, Some(2), 25, 45),
            // A child running past its parent's end is clipped to it.
            span(4, Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 20);
        assert_eq!(selfs[3], 20);
        assert_eq!(selfs[4], 30);
    }

    #[test]
    fn unattributed_counts_root_time_no_leaf_covers() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 0, 60),
            // Span 2 has a child, so only its leaf [70, 80) counts.
            span(2, Some(0), 65, 95),
            span(3, Some(2), 70, 80),
            // A childless root explains itself.
            span(4, None, 200, 300),
        ];
        // Root 0: 100 ns, leaves cover 60 + 10 -> 30 unexplained.
        assert_eq!(unattributed_pct(&spans), 100.0 * 30.0 / 200.0);
        assert_eq!(unattributed_pct(&[]), 0.0);
    }

    #[test]
    fn recorder_nests_spans_and_writes_json_lines() {
        let rec = Recorder::new("unit/1".to_string());
        let sum = rec.span("root", None, |root| {
            rec.leaf("a", root, || 1) + rec.span("b", Some(root), |b| rec.leaf("c", b, || 2))
        });
        assert_eq!(sum, 3);
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("root", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
        assert!(spans[0].end_ns >= spans[3].end_ns);
        let b_tree: Vec<_> = subtree(&spans, 2).iter().map(|s| s.name).collect();
        assert_eq!(b_tree, ["b", "c"]);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let v = killi_repro::obs::parse_json(line).unwrap();
            assert_eq!(v.get("run").and_then(|r| r.as_str()), Some("unit/1"));
        }
    }
}
