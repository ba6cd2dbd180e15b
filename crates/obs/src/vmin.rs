//! Observability for the `killi vmin` campaign subsystem.
//!
//! The Vmin campaign gets its own counter registry, separate from the
//! simulator-side [`crate::KilliEvent`] / [`crate::MetricSet`] pair for
//! the same reason the serve daemon does ([`crate::serve`]): the
//! simulator counters are part of the byte-stable `killi-sweep/v2` schema
//! and cannot grow without invalidating golden files, while campaign
//! counters (dies streamed, search probes, store traffic) describe a
//! different machine and are free to evolve with it.
//!
//! [`VminMetrics`] follows the same design rules: plain data,
//! element-wise [`VminMetrics::merge`], and fixed JSON field order so equal
//! snapshots serialise to identical bytes. The campaign adds to its
//! counters where the work happens. Campaign search paths are fully
//! deterministic, so a campaign's aggregated `VminMetrics` snapshot is
//! itself deterministic and may be embedded in the `killi-vmin/v1`
//! report.

use crate::counters::counter_registry;

counter_registry! {
    /// Every monotonic counter a campaign can increment.
    ///
    /// The discriminant doubles as the index into [`VminMetrics`], and
    /// [`VminCounter::NAMES`] carries the stable JSON names in the same
    /// order.
    pub enum VminCounter;
    /// Aggregate counter state for a campaign (or a whole process).
    pub struct VminMetrics;
    CampaignsStarted => "campaigns_started",
    CampaignsCompleted => "campaigns_completed",
    DiesEvaluated => "dies_evaluated",
    VoltageProbes => "voltage_probes",
    BinarySearches => "binary_searches",
    LinearScans => "linear_scans",
    StoresOpened => "stores_opened",
    StoreDiesWritten => "store_dies_written",
    StoreBytesWritten => "store_bytes_written",
    StoreDiesRead => "store_dies_read",
}

impl VminMetrics {
    /// Serialises the set as a compact JSON object. Field order is
    /// fixed, so equal snapshots produce identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"killi-vmin-metrics/v1\",\"counters\":");
        self.write_json(&mut out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_is_elementwise_with_identity() {
        let mut a = VminMetrics::new();
        a.add(VminCounter::VoltageProbes, 3);
        let mut b = VminMetrics::new();
        b.add(VminCounter::VoltageProbes, 4);
        b.add(VminCounter::LinearScans, 1);
        let mut ab = a;
        ab.merge(&b);
        assert_eq!(ab.get(VminCounter::VoltageProbes), 7);
        assert_eq!(ab.get(VminCounter::LinearScans), 1);
        let mut with_id = ab;
        with_id.merge(&VminMetrics::new());
        assert_eq!(with_id, ab);
    }

    #[test]
    fn json_shape_is_stable_and_parses() {
        let mut m = VminMetrics::new();
        m.add(VminCounter::DiesEvaluated, 64);
        let text = m.to_json();
        let v = crate::json::parse(&text).expect("vmin metrics JSON parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("killi-vmin-metrics/v1")
        );
        let counters = v.get("counters").expect("counters object");
        for name in VminCounter::NAMES {
            assert!(counters.get(name).is_some(), "missing counter {name}");
        }
        assert_eq!(
            counters.get("dies_evaluated").and_then(|c| c.as_u64()),
            Some(64)
        );
    }

    #[test]
    fn json_bytes_are_pinned() {
        let mut m = VminMetrics::new();
        m.add(VminCounter::DiesEvaluated, 64);
        m.add(VminCounter::StoreDiesRead, 3);
        assert_eq!(
            m.to_json(),
            "{\"schema\":\"killi-vmin-metrics/v1\",\"counters\":{\"campaigns_started\":0,\
             \"campaigns_completed\":0,\"dies_evaluated\":64,\"voltage_probes\":0,\
             \"binary_searches\":0,\"linear_scans\":0,\"stores_opened\":0,\
             \"store_dies_written\":0,\"store_bytes_written\":0,\"store_dies_read\":3}}"
        );
    }
}
