//! Observability for the `killi vmin` campaign subsystem.
//!
//! The Vmin campaign gets its own event taxonomy and counter registry,
//! separate from the simulator-side [`crate::KilliEvent`] /
//! [`crate::MetricSet`] pair for the same reason the serve daemon does
//! ([`crate::serve`]): the simulator counters are part of the
//! byte-stable `killi-sweep/v2` schema and cannot grow without
//! invalidating golden files, while campaign counters (dies streamed,
//! search probes, store traffic) describe a different machine and are
//! free to evolve with it.
//!
//! [`VminMetrics`] follows the same design rules: plain data,
//! element-wise [`VminMetrics::merge`], fixed JSON field order so equal
//! snapshots serialise to identical bytes, and a single
//! [`VminMetrics::apply`] routing point. Campaign search paths are fully
//! deterministic, so a campaign's aggregated `VminMetrics` snapshot is
//! itself deterministic and may be embedded in the `killi-vmin/v1`
//! report.

use crate::counters::counter_registry;

/// Everything observable that happens inside a Vmin campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VminEvent {
    /// A campaign began over `dies` dies and `schemes` schemes.
    CampaignStarted { dies: u64, schemes: u64 },
    /// One die's per-scheme Vmin search finished. The probe counters
    /// describe the search work: `probes` grid-point evaluations split
    /// across `binary_searches` bisections (nested models) and
    /// `linear_scans` exhaustive fallbacks (non-nested models).
    DieEvaluated {
        die: u64,
        probes: u64,
        binary_searches: u64,
        linear_scans: u64,
    },
    /// A die store finished building: `dies` records, `bytes` on disk.
    StoreBuilt { dies: u64, bytes: u64 },
    /// An existing die store was opened and its index validated.
    StoreOpened { dies: u64 },
    /// One die record was streamed out of the store.
    DieStreamed { die: u64 },
    /// The campaign finished and its report was assembled.
    CampaignCompleted { dies: u64 },
}

impl VminEvent {
    /// Stable event-kind label (used in logs and tests).
    pub fn kind(&self) -> &'static str {
        match self {
            VminEvent::CampaignStarted { .. } => "campaign_started",
            VminEvent::DieEvaluated { .. } => "die_evaluated",
            VminEvent::StoreBuilt { .. } => "store_built",
            VminEvent::StoreOpened { .. } => "store_opened",
            VminEvent::DieStreamed { .. } => "die_streamed",
            VminEvent::CampaignCompleted { .. } => "campaign_completed",
        }
    }
}

counter_registry! {
    /// Every monotonic counter the campaign taxonomy can increment.
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
    /// Routes an event to the counters it implies — the single place
    /// the campaign taxonomy maps onto the registry.
    pub fn apply(&mut self, event: &VminEvent) {
        match event {
            VminEvent::CampaignStarted { .. } => self.add(VminCounter::CampaignsStarted, 1),
            VminEvent::DieEvaluated {
                probes,
                binary_searches,
                linear_scans,
                ..
            } => {
                self.add(VminCounter::DiesEvaluated, 1);
                self.add(VminCounter::VoltageProbes, *probes);
                self.add(VminCounter::BinarySearches, *binary_searches);
                self.add(VminCounter::LinearScans, *linear_scans);
            }
            VminEvent::StoreBuilt { dies, bytes } => {
                self.add(VminCounter::StoreDiesWritten, *dies);
                self.add(VminCounter::StoreBytesWritten, *bytes);
            }
            VminEvent::StoreOpened { .. } => self.add(VminCounter::StoresOpened, 1),
            VminEvent::DieStreamed { .. } => self.add(VminCounter::StoreDiesRead, 1),
            VminEvent::CampaignCompleted { .. } => self.add(VminCounter::CampaignsCompleted, 1),
        }
    }

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
    fn apply_routes_every_event_kind() {
        let mut m = VminMetrics::new();
        let events = [
            VminEvent::CampaignStarted {
                dies: 4,
                schemes: 2,
            },
            VminEvent::DieEvaluated {
                die: 0,
                probes: 6,
                binary_searches: 1,
                linear_scans: 1,
            },
            VminEvent::StoreBuilt {
                dies: 4,
                bytes: 512,
            },
            VminEvent::StoreOpened { dies: 4 },
            VminEvent::DieStreamed { die: 0 },
            VminEvent::CampaignCompleted { dies: 4 },
        ];
        for e in &events {
            m.apply(e);
        }
        for c in VminCounter::ALL {
            assert!(m.get(c) >= 1, "counter {} untouched", c.name());
        }
        assert_eq!(m.get(VminCounter::VoltageProbes), 6);
        assert_eq!(m.get(VminCounter::StoreBytesWritten), 512);
    }

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

    #[test]
    fn event_kinds_are_distinct() {
        let kinds = [
            VminEvent::CampaignStarted {
                dies: 0,
                schemes: 0,
            }
            .kind(),
            VminEvent::DieEvaluated {
                die: 0,
                probes: 0,
                binary_searches: 0,
                linear_scans: 0,
            }
            .kind(),
            VminEvent::StoreBuilt { dies: 0, bytes: 0 }.kind(),
            VminEvent::StoreOpened { dies: 0 }.kind(),
            VminEvent::DieStreamed { die: 0 }.kind(),
            VminEvent::CampaignCompleted { dies: 0 }.kind(),
        ];
        let mut seen = std::collections::HashSet::new();
        for k in kinds {
            assert!(seen.insert(k), "duplicate event kind {k}");
        }
    }
}
