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
    /// serviced trace op, giving every event a timestamp).
    pub fn tick(&self) {
        if let Some(inner) = &self.inner {
            inner.lock().unwrap().now += 1;
        }
    }

    /// Emits an event. The closure only runs when recording, so the
    /// no-op path never constructs the event.
    pub fn emit<F: FnOnce() -> KilliEvent>(&self, make: F) {
        if let Some(inner) = &self.inner {
            let mut rec = inner.lock().unwrap();
            let at = rec.now;
            rec.trace.push(at, make());
        }
    }

    /// Total events emitted into this sink (`None` when no-op).
    pub fn events_emitted(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|inner| inner.lock().unwrap().trace.total_events())
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

    #[test]
    fn noop_sink_skips_event_construction() {
        let sink = Sink::none();
        sink.emit(|| unreachable!("no-op sink must not build events"));
        sink.tick();
        assert_eq!(sink.events_emitted(), None);
        assert_eq!(sink.export_jsonl(&[]), None);
    }

    #[test]
    fn recording_sink_timestamps_with_op_clock() {
        let sink = Sink::recording(16);
        sink.emit(|| KilliEvent::ErrorMiss { line: 1 });
        sink.tick();
        sink.tick();
        sink.emit(|| KilliEvent::ErrorMiss { line: 2 });
        assert_eq!(sink.events_emitted(), Some(2));
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
        assert_eq!(sink.events_emitted(), Some(1));
    }

    #[test]
    fn sink_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Sink>();
    }
}
