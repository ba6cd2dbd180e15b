//! Observability for the `killi-serve` daemon.
//!
//! The sweep service has its own counter registry, deliberately
//! separate from the simulator-side [`crate::MetricSet`]: the simulator
//! counters are part of the byte-stable `killi-sweep/v3` report schema
//! and cannot grow without invalidating golden files, while the service
//! counters describe the daemon's lifecycle (accepts, queue churn,
//! cache behaviour) and are free to evolve with it.
//!
//! [`ServeMetrics`] follows the same design rules as `MetricSet`: plain
//! data, element-wise [`ServeMetrics::merge`], and fixed JSON field
//! order so equal snapshots serialise to identical bytes. The server
//! adds to each counter where the work it counts happens.

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

counter_registry! {
    /// Every monotonic counter the service keeps.
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
}
