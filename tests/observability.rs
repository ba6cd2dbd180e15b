//! Cross-crate contract tests for the observability layer: recording a
//! trace must never perturb the simulation, the exported trace must be
//! well-formed `killi-obs/v1`, and the metrics surfaced by `run_cell`
//! must agree with the simulator's own counters.

use std::sync::Arc;

use killi_repro::bench::runner::{run_cell, trace_params, ObsConfig};
use killi_repro::bench::schemes::{self, SchemeConfig};
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::map::FaultMap;
use killi_repro::fault::model::{default_registry, FaultModelConfig};
use killi_repro::obs::{parse_json, Counter, OBS_SCHEMA};
use killi_repro::sim::gpu::GpuConfig;
use killi_repro::workloads::Workload;

fn small_gpu() -> GpuConfig {
    GpuConfig {
        cus: 2,
        l2: killi_repro::sim::cache::CacheGeometry {
            size_bytes: 128 * 1024,
            ways: 16,
            line_bytes: 64,
        },
        ..GpuConfig::default()
    }
}

fn lv_map(gpu: &GpuConfig) -> Arc<FaultMap> {
    let model = default_registry()
        .build(&FaultModelConfig::default(), &())
        .expect("stuck-at always builds");
    Arc::new(model.map(gpu.l2.lines(), NormVdd(0.625), FreqGhz::PEAK, 7))
}

/// The observer effect must be zero: for every registered scheme, a
/// recording sink may not change a single counter relative to the default
/// no-op sink.
#[test]
fn recording_sink_does_not_perturb_simulation() {
    let gpu = small_gpu();
    let map = lv_map(&gpu);
    for name in schemes::default_registry().names() {
        let scheme = SchemeConfig::new(name);
        let quiet = run_cell(
            Workload::Fft,
            &scheme,
            &gpu,
            Workload::Fft.trace(&trace_params(&gpu, 3_000, 11)),
            &map,
            11,
            &ObsConfig::default(),
        );
        let traced = run_cell(
            Workload::Fft,
            &scheme,
            &gpu,
            Workload::Fft.trace(&trace_params(&gpu, 3_000, 11)),
            &map,
            11,
            &ObsConfig::traced(1024),
        );
        assert_eq!(
            quiet.stats, traced.stats,
            "{name}: tracing changed the simulation outcome"
        );
        assert_eq!(quiet.disabled_lines, traced.disabled_lines);
        assert_eq!(
            quiet.metrics.to_json(),
            traced.metrics.to_json(),
            "{name}: tracing changed the metrics"
        );
        assert!(quiet.trace.is_none(), "no-op sink must not export a trace");
        assert!(traced.trace.is_some(), "recording sink must export a trace");
    }
}

/// Every line of the exported trace parses as JSON; the header carries
/// the schema and the cell context written by `run_cell`.
#[test]
fn exported_trace_is_well_formed_jsonl() {
    let gpu = small_gpu();
    let map = lv_map(&gpu);
    let obs = ObsConfig {
        trace_capacity: Some(512),
        context: vec![("vdd", "0.625".to_string())],
    };
    let r = run_cell(
        Workload::Xsbench,
        &SchemeConfig::parse("killi:ratio=16").unwrap(),
        &gpu,
        Workload::Xsbench.trace(&trace_params(&gpu, 3_000, 11)),
        &map,
        11,
        &obs,
    );
    let trace = r.trace.expect("tracing was on");
    let mut lines = trace.lines();
    let header = parse_json(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        header.get("schema").and_then(|v| v.as_str()),
        Some(OBS_SCHEMA)
    );
    assert_eq!(
        header.get("workload").and_then(|v| v.as_str()),
        Some("xsbench")
    );
    assert_eq!(header.get("vdd").and_then(|v| v.as_str()), Some("0.625"));
    let mut events = 0usize;
    for line in lines {
        let v = parse_json(line).unwrap_or_else(|e| panic!("bad event line {line:?}: {e}"));
        assert!(v.get("seq").and_then(|s| s.as_u64()).is_some());
        assert!(v.get("type").and_then(|s| s.as_str()).is_some());
        events += 1;
    }
    assert!(events > 0, "a faulty Killi run must emit events");
}

/// The metrics block handed back by `run_cell` must agree with the
/// simulator's own L2 miss split — the acceptance criterion for the
/// error-induced vs ECC-cache-induced decomposition.
#[test]
fn run_cell_metrics_agree_with_sim_stats() {
    let gpu = small_gpu();
    let map = lv_map(&gpu);
    let r = run_cell(
        Workload::Fft,
        &SchemeConfig::parse("killi:ratio=16").unwrap(),
        &gpu,
        Workload::Fft.trace(&trace_params(&gpu, 3_000, 11)),
        &map,
        11,
        &ObsConfig::default(),
    );
    assert_eq!(
        r.metrics.get(Counter::ErrorInducedMisses),
        r.stats.l2_error_misses,
        "error-induced miss counter must mirror SimStats"
    );
    assert_eq!(
        r.metrics.get(Counter::EccInducedMisses),
        r.stats.ecc_induced_invalidations,
        "ECC-cache-induced miss counter must mirror SimStats"
    );
    assert!(
        r.metrics.get(Counter::DfhTransitions) > 0,
        "a faulty Killi run must reclassify lines"
    );
}

/// Every counter that has an event kind of its own equals the number of
/// those events in a trace that dropped none, for every registered
/// scheme under every registered fault model. `corrections` and
/// `detections` are left out: the `syndrome_observation` event is
/// Killi's training observation, not a count of delivered corrections.
#[test]
fn counters_equal_their_events_in_a_full_trace() {
    let gpu = small_gpu();
    let pairs = [
        (Counter::DfhTransitions, "dfh_transition"),
        (Counter::EccCacheDisplacements, "ecc_displace"),
        (Counter::ErrorInducedMisses, "error_miss"),
        (Counter::EccInducedMisses, "ecc_induced_miss"),
    ];
    for model_name in default_registry().names() {
        let model = default_registry()
            .build(&FaultModelConfig::new(model_name), &())
            .unwrap_or_else(|e| panic!("{model_name} default config must build: {e}"));
        let map = Arc::new(model.map(gpu.l2.lines(), NormVdd(0.6), FreqGhz::PEAK, 7));
        for scheme_name in schemes::default_registry().names() {
            let r = run_cell(
                Workload::Xsbench,
                &SchemeConfig::new(scheme_name),
                &gpu,
                Workload::Xsbench.trace(&trace_params(&gpu, 2_000, 11)),
                &map,
                11,
                &ObsConfig::traced(1 << 18),
            );
            let text = r.trace.expect("tracing was on");
            let mut lines = text.lines();
            let header = parse_json(lines.next().expect("header line")).expect("header parses");
            let at = format!("{scheme_name} under {model_name}");
            assert_eq!(
                header.get("dropped").and_then(|v| v.as_u64()),
                Some(0),
                "{at}: the trace dropped events"
            );
            let mut counts = [0u64; 4];
            for line in lines {
                let event = parse_json(line).expect("event line parses");
                let kind = event.get("type").and_then(|v| v.as_str());
                if let Some(i) = pairs.iter().position(|&(_, k)| Some(k) == kind) {
                    counts[i] += 1;
                }
            }
            for (&(counter, kind), &events) in pairs.iter().zip(&counts) {
                assert_eq!(
                    r.metrics.get(counter),
                    events,
                    "{at}: `{}` is not the count of `{kind}` events",
                    counter.name()
                );
            }
        }
    }
}
