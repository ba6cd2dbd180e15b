//! Bounded ring-buffer event trace with JSON-lines export.
//!
//! The buffer keeps the *last* `capacity` events (oldest are dropped
//! first, with a drop counter so truncation is visible in the header).
//! Export is deterministic: one header line under the `killi-obs/v1`
//! schema, then one line per retained event, all fields in fixed order.

use std::collections::VecDeque;

use crate::event::KilliEvent;
use crate::json::escape;
use crate::OBS_SCHEMA;

/// One retained trace entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEntry {
    /// Monotonic sequence number over *all* emitted events (including
    /// ones later dropped from the ring).
    pub seq: u64,
    /// Op-clock timestamp at emission.
    pub at: u64,
    pub event: KilliEvent,
}

/// A fixed-capacity ring of trace entries.
#[derive(Clone, Debug)]
pub struct TraceBuffer {
    capacity: usize,
    entries: VecDeque<TraceEntry>,
    next_seq: u64,
    dropped: u64,
}

impl TraceBuffer {
    /// A buffer retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            next_seq: 0,
            dropped: 0,
        }
    }

    /// Records an event at op-clock `at`, evicting the oldest retained
    /// entry when full.
    pub fn push(&mut self, at: u64, event: KilliEvent) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry {
            seq: self.next_seq,
            at,
            event,
        });
        self.next_seq += 1;
    }

    /// Serialises the trace as JSON-lines: a header object carrying the
    /// schema tag, capacity/volume bookkeeping, and the caller's
    /// `context` key/value pairs (cell identity, seeds, …), followed by
    /// one object per retained event. Byte-deterministic for equal
    /// contents.
    pub fn export_jsonl(&self, context: &[(&str, String)]) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":\"{OBS_SCHEMA}\"");
        for (key, value) in context {
            let _ = write!(out, ",\"{}\":{}", escape(key), value);
        }
        let _ = writeln!(
            out,
            ",\"capacity\":{},\"events\":{},\"dropped\":{}}}",
            self.capacity, self.next_seq, self.dropped
        );
        for entry in &self.entries {
            let _ = write!(
                out,
                "{{\"seq\":{},\"at\":{},\"type\":\"{}\",\"line\":{}",
                entry.seq,
                entry.at,
                entry.event.kind(),
                entry.event.line()
            );
            entry.event.write_json_fields(&mut out);
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn ring_keeps_last_capacity_events() {
        let mut t = TraceBuffer::new(3);
        for i in 0..5u32 {
            t.push(i as u64, KilliEvent::ErrorMiss { line: i });
        }
        let text = t.export_jsonl(&[]);
        let mut lines = text.lines().map(|line| parse(line).expect("line parses"));
        let header = lines.next().expect("a header");
        assert_eq!(header.get("events").and_then(|v| v.as_u64()), Some(5));
        assert_eq!(header.get("dropped").and_then(|v| v.as_u64()), Some(2));
        let seqs: Vec<u64> = lines
            .map(|e| e.get("seq").and_then(|v| v.as_u64()).unwrap())
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn export_lines_are_valid_json_with_schema_header() {
        let mut t = TraceBuffer::new(8);
        t.push(
            10,
            KilliEvent::DfhTransition {
                line: 4,
                from: 1,
                to: 2,
            },
        );
        t.push(11, KilliEvent::EccDisplace { line: 4, victim: 9 });
        let text = t.export_jsonl(&[("vdd", "0.55".to_string()), ("scheme", "\"killi\"".into())]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        let header = parse(lines[0]).expect("header parses");
        assert_eq!(
            header.get("schema").and_then(|v| v.as_str()),
            Some("killi-obs/v1")
        );
        assert_eq!(header.get("events").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(header.get("scheme").and_then(|v| v.as_str()), Some("killi"));
        let ev = parse(lines[1]).expect("event parses");
        assert_eq!(
            ev.get("type").and_then(|v| v.as_str()),
            Some("dfh_transition")
        );
        assert_eq!(ev.get("from").and_then(|v| v.as_u64()), Some(1));
        let ev2 = parse(lines[2]).expect("event parses");
        assert_eq!(ev2.get("victim").and_then(|v| v.as_u64()), Some(9));
    }
}
