//! The `Sink` handle the simulator stack emits events through.
//!
//! A sink is a cheap-to-clone handle: either no-op (`Sink::none()`, the
//! default — a single `Option` check per emission, no allocation, no
//! event construction thanks to the closure-based API) or recording
//! (`Sink::recording(capacity)`, which owns an op clock and a bounded
//! [`TraceBuffer`]). The recorder sits behind `Arc<Mutex<_>>` so
//! schemes holding a sink stay `Send + Sync` (the workspace's API
//! contract tests require it); each simulation runs single-threaded, so
//! the lock is uncontended in practice.

use std::sync::{Arc, Mutex};

use crate::event::KilliEvent;
use crate::trace::TraceBuffer;

#[derive(Debug)]
struct Recorder {
    now: u64,
    trace: TraceBuffer,
}

/// A shared emission handle (see module docs).
#[derive(Clone, Debug, Default)]
pub struct Sink {
    inner: Option<Arc<Mutex<Recorder>>>,
}

impl Sink {
    /// The no-op sink: every operation is a branch on `None`.
    pub fn none() -> Self {
        Sink { inner: None }
    }

    /// A recording sink whose trace retains the last `capacity` events.
    pub fn recording(capacity: usize) -> Self {
        Sink {
            inner: Some(Arc::new(Mutex::new(Recorder {
                now: 0,
                trace: TraceBuffer::new(capacity),
            }))),
        }
    }

    /// Advances the op clock by one (the simulator calls this once per
    /// serviced trace op, giving every event a timestamp). Inlined, the
    /// no-op sink's tick is one branch; the recording path stays out of
    /// line.
    #[inline]
    pub fn tick(&self) {
        if let Some(inner) = &self.inner {
            Self::advance(inner);
        }
    }

    #[inline(never)]
    fn advance(inner: &Mutex<Recorder>) {
        inner.lock().unwrap().now += 1;
    }

    /// Emits an event. The closure only runs when recording, so the
    /// no-op path never constructs the event; inlined, it is one branch.
    #[inline]
    pub fn emit<F: FnOnce() -> KilliEvent>(&self, make: F) {
        if let Some(inner) = &self.inner {
            Self::record(inner, make());
        }
    }

    #[inline(never)]
    fn record(inner: &Mutex<Recorder>, event: KilliEvent) {
        let mut rec = inner.lock().unwrap();
        let at = rec.now;
        rec.trace.push(at, event);
    }

    /// Exports the trace as `killi-obs/v1` JSON-lines, with `context`
    /// key/value pairs (values must already be JSON-encoded) folded
    /// into the header. `None` for the no-op sink.
    pub fn export_jsonl(&self, context: &[(&str, String)]) -> Option<String> {
        self.inner
            .as_ref()
            .map(|inner| inner.lock().unwrap().trace.export_jsonl(context))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// The `events` and `dropped` counts of the sink's exported header.
    fn header_counts(sink: &Sink) -> (u64, u64) {
        let text = sink.export_jsonl(&[]).expect("a recording sink");
        let header = parse(text.lines().next().expect("a header")).expect("header parses");
        let count = |key| header.get(key).and_then(|v| v.as_u64()).expect(key);
        (count("events"), count("dropped"))
    }

    #[test]
    fn noop_sink_skips_event_construction() {
        let sink = Sink::none();
        sink.emit(|| unreachable!("no-op sink must not build events"));
        sink.tick();
        assert_eq!(sink.export_jsonl(&[]), None);
    }

    #[test]
    fn recording_sink_timestamps_with_op_clock() {
        let sink = Sink::recording(16);
        sink.emit(|| KilliEvent::ErrorMiss { line: 1 });
        sink.tick();
        sink.tick();
        sink.emit(|| KilliEvent::ErrorMiss { line: 2 });
        assert_eq!(header_counts(&sink), (2, 0));
        let text = sink.export_jsonl(&[]).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("\"at\":0"));
        assert!(lines[2].contains("\"at\":2"));
    }

    #[test]
    fn clones_share_one_recorder() {
        let sink = Sink::recording(16);
        let clone = sink.clone();
        clone.emit(|| KilliEvent::ErrorMiss { line: 3 });
        assert_eq!(header_counts(&sink), (1, 0));
    }

    #[test]
    fn sink_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sink>();
    }
}
