//! Observability for the `killi-serve` daemon.
//!
//! The sweep service has its own event taxonomy and counter registry,
//! deliberately separate from the simulator-side [`crate::KilliEvent`] /
//! [`crate::MetricSet`] pair: the simulator counters are part of the
//! byte-stable `killi-sweep/v2` report schema and cannot grow without
//! invalidating golden files, while the service counters describe the
//! daemon's lifecycle (accepts, queue churn, cache behaviour) and are
//! free to evolve with it.
//!
//! [`ServeMetrics`] follows the same design rules as `MetricSet`: plain
//! data, element-wise [`ServeMetrics::merge`], fixed JSON field order so
//! equal snapshots serialise to identical bytes, and a single
//! [`ServeMetrics::apply`] routing point so every event increments its
//! counters in exactly one place.

use crate::counters::counter_registry;

/// Job identifiers are 128-bit content hashes, rendered as 32 hex chars.
pub type JobId = u128;

/// Formats a [`JobId`] the way the service spells it on the wire.
pub fn format_job_id(id: JobId) -> String {
    format!("{id:032x}")
}

/// Parses a 32-hex-char job id as produced by [`format_job_id`].
pub fn parse_job_id(text: &str) -> Option<JobId> {
    if text.len() != 32 || !text.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    JobId::from_str_radix(text, 16).ok()
}

/// Everything observable that happens inside the sweep service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeEvent {
    /// A syntactically valid job was accepted (new or duplicate).
    JobAccepted { job: JobId },
    /// A new job entered the FIFO queue; `depth` is the queue length
    /// after the push.
    JobEnqueued { job: JobId, depth: usize },
    /// A worker pulled the job off the queue and started executing it.
    JobDequeued { job: JobId, worker: usize },
    /// The sweep finished and its report was stored.
    JobCompleted { job: JobId },
    /// The sweep panicked or was otherwise lost; the job is terminal.
    JobFailed { job: JobId },
    /// A submission matched an already-known job (any state) and was
    /// answered from the content-addressed store without re-running.
    CacheHit { job: JobId },
    /// A completed report was inserted into the result cache.
    CacheInsert { job: JobId },
    /// A completed report was evicted to honour the cache capacity.
    CacheEvict { job: JobId },
    /// A submission was rejected with 429 because the queue was full.
    QueueFull { depth: usize },
    /// A submission was rejected with 503 because shutdown has begun
    /// and the service no longer accepts new jobs.
    Draining,
    /// A request failed validation (bad JSON, bad config, oversize...).
    BadRequest,
}

impl ServeEvent {
    /// Stable event-kind label (used in logs and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            ServeEvent::JobAccepted { .. } => "job_accepted",
            ServeEvent::JobEnqueued { .. } => "job_enqueued",
            ServeEvent::JobDequeued { .. } => "job_dequeued",
            ServeEvent::JobCompleted { .. } => "job_completed",
            ServeEvent::JobFailed { .. } => "job_failed",
            ServeEvent::CacheHit { .. } => "cache_hit",
            ServeEvent::CacheInsert { .. } => "cache_insert",
            ServeEvent::CacheEvict { .. } => "cache_evict",
            ServeEvent::QueueFull { .. } => "queue_full",
            ServeEvent::Draining => "draining",
            ServeEvent::BadRequest => "bad_request",
        }
    }
}

counter_registry! {
    /// Every monotonic counter the service taxonomy can increment.
    ///
    /// The discriminant doubles as the index into [`ServeMetrics`], and
    /// [`ServeCounter::NAMES`] carries the stable JSON names in the same
    /// order.
    pub enum ServeCounter;
    /// Aggregate counter state for the daemon.
    pub struct ServeMetrics;
    JobsAccepted => "jobs_accepted",
    JobsEnqueued => "jobs_enqueued",
    JobsDequeued => "jobs_dequeued",
    JobsCompleted => "jobs_completed",
    JobsFailed => "jobs_failed",
    SweepExecutions => "sweep_executions",
    CacheHits => "cache_hits",
    CacheInserts => "cache_inserts",
    CacheEvictions => "cache_evictions",
    RejectedQueueFull => "rejected_queue_full",
    RejectedDraining => "rejected_draining",
    BadRequests => "bad_requests",
}

impl ServeMetrics {
    /// Routes an event to the counters it implies — the single place
    /// the service taxonomy maps onto the registry.
    pub fn apply(&mut self, event: &ServeEvent) {
        match event {
            ServeEvent::JobAccepted { .. } => self.add(ServeCounter::JobsAccepted, 1),
            ServeEvent::JobEnqueued { .. } => self.add(ServeCounter::JobsEnqueued, 1),
            ServeEvent::JobDequeued { .. } => {
                self.add(ServeCounter::JobsDequeued, 1);
                self.add(ServeCounter::SweepExecutions, 1);
            }
            ServeEvent::JobCompleted { .. } => self.add(ServeCounter::JobsCompleted, 1),
            ServeEvent::JobFailed { .. } => self.add(ServeCounter::JobsFailed, 1),
            ServeEvent::CacheHit { .. } => self.add(ServeCounter::CacheHits, 1),
            ServeEvent::CacheInsert { .. } => self.add(ServeCounter::CacheInserts, 1),
            ServeEvent::CacheEvict { .. } => self.add(ServeCounter::CacheEvictions, 1),
            ServeEvent::QueueFull { .. } => self.add(ServeCounter::RejectedQueueFull, 1),
            ServeEvent::Draining => self.add(ServeCounter::RejectedDraining, 1),
            ServeEvent::BadRequest => self.add(ServeCounter::BadRequests, 1),
        }
    }

    /// Serialises the set as a compact JSON object. Field order is
    /// fixed, so equal snapshots produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"killi-serve-metrics/v1\",\"counters\":");
        self.write_json(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_round_trips_through_hex() {
        for id in [0u128, 1, u128::MAX, 0xdead_beef_cafe] {
            let text = format_job_id(id);
            assert_eq!(text.len(), 32);
            assert_eq!(parse_job_id(&text), Some(id));
        }
        assert_eq!(parse_job_id("xyz"), None);
        assert_eq!(parse_job_id(&"f".repeat(33)), None);
        assert_eq!(parse_job_id("00000000000000000000000000000g00"), None);
    }

    #[test]
    fn apply_routes_every_event_kind() {
        let mut m = ServeMetrics::new();
        let events = [
            ServeEvent::JobAccepted { job: 1 },
            ServeEvent::JobEnqueued { job: 1, depth: 1 },
            ServeEvent::JobDequeued { job: 1, worker: 0 },
            ServeEvent::JobCompleted { job: 1 },
            ServeEvent::JobFailed { job: 2 },
            ServeEvent::CacheHit { job: 1 },
            ServeEvent::CacheInsert { job: 1 },
            ServeEvent::CacheEvict { job: 1 },
            ServeEvent::QueueFull { depth: 4 },
            ServeEvent::Draining,
            ServeEvent::BadRequest,
        ];
        for e in &events {
            m.apply(e);
        }
        for c in ServeCounter::ALL {
            assert!(m.get(c) >= 1, "counter {} untouched", c.name());
        }
        // JobDequeued implies one sweep execution.
        assert_eq!(m.get(ServeCounter::SweepExecutions), 1);
    }

    #[test]
    fn merge_is_elementwise_with_identity() {
        let mut a = ServeMetrics::new();
        a.add(ServeCounter::CacheHits, 3);
        let mut b = ServeMetrics::new();
        b.add(ServeCounter::CacheHits, 4);
        b.add(ServeCounter::JobsFailed, 1);
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab.get(ServeCounter::CacheHits), 7);
        assert_eq!(ab.get(ServeCounter::JobsFailed), 1);
        let mut with_id = ab;
        with_id.merge(&ServeMetrics::new());
        assert_eq!(with_id, ab);
    }

    #[test]
    fn json_shape_is_stable_and_parses() {
        let mut m = ServeMetrics::new();
        m.add(ServeCounter::JobsAccepted, 5);
        let text = m.to_json();
        let v = crate::json::parse(&text).expect("serve metrics JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("killi-serve-metrics/v1")
        );
        let counters = v.get("counters").expect("counters object");
        for name in ServeCounter::NAMES {
            assert!(counters.get(name).is_some(), "missing counter {name}");
        }
        assert_eq!(
            counters.get("jobs_accepted").and_then(|c| c.as_u64()),
            Some(5)
        );
    }

    #[test]
    fn json_bytes_are_pinned() {
        let mut m = ServeMetrics::new();
        m.add(ServeCounter::JobsAccepted, 5);
        m.add(ServeCounter::BadRequests, 2);
        assert_eq!(
            m.to_json(),
            "{\"schema\":\"killi-serve-metrics/v1\",\"counters\":{\"jobs_accepted\":5,\
             \"jobs_enqueued\":0,\"jobs_dequeued\":0,\"jobs_completed\":0,\"jobs_failed\":0,\
             \"sweep_executions\":0,\"cache_hits\":0,\"cache_inserts\":0,\
             \"cache_evictions\":0,\"rejected_queue_full\":0,\"rejected_draining\":0,\
             \"bad_requests\":2}}"
        );
    }

    #[test]
    fn event_kinds_are_distinct() {
        let kinds = [
            ServeEvent::JobAccepted { job: 0 }.kind(),
            ServeEvent::JobEnqueued { job: 0, depth: 0 }.kind(),
            ServeEvent::JobDequeued { job: 0, worker: 0 }.kind(),
            ServeEvent::JobCompleted { job: 0 }.kind(),
            ServeEvent::JobFailed { job: 0 }.kind(),
            ServeEvent::CacheHit { job: 0 }.kind(),
            ServeEvent::CacheInsert { job: 0 }.kind(),
            ServeEvent::CacheEvict { job: 0 }.kind(),
            ServeEvent::QueueFull { depth: 0 }.kind(),
            ServeEvent::Draining.kind(),
            ServeEvent::BadRequest.kind(),
        ];
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            assert!(seen.insert(k), "duplicate event kind {k}");
        }
    }
}
