//! Scheme factory shared by every experiment.
//!
//! Every scheme is built through the process-wide [`SchemeRegistry`]
//! ([`default_registry`]): the Killi variants declared by
//! `killi::registry::register_killi_schemes` plus the baselines from
//! `killi_baselines::register_baselines`. Experiments, tests, the CLI and
//! job payloads all name a scheme by its registry spelling
//! (`killi:ratio=16`, `flair`; see [`SchemeConfig::parse`]), so the
//! registry is the single point of construction and label formatting.

use std::sync::{Arc, OnceLock};

use killi::registry::{admissibility, register_killi_schemes, SchemeRegistry};
use killi_baselines::register_baselines;
use killi_fault::map::FaultMap;
use killi_sim::cache::CacheGeometry;
use killi_sim::protection::LineProtection;

pub use killi::registry::{
    BuildCtx, BuildError, CellSpan, LineRule, ParamValue, SchemeConfig, BASELINE,
};

/// The process-wide registry with every built-in scheme declared
/// (Killi variants + baselines).
pub fn default_registry() -> &'static SchemeRegistry {
    static REGISTRY: OnceLock<SchemeRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut registry = SchemeRegistry::new();
        register_killi_schemes(&mut registry);
        register_baselines(&mut registry);
        registry
    })
}

/// Builds a scheme from its declarative config via [`default_registry`].
pub fn build_scheme(
    config: &SchemeConfig,
    ctx: &BuildCtx,
) -> Result<Box<dyn LineProtection>, BuildError> {
    default_registry().build(config, ctx)
}

/// Test-builds every scheme against a fault-free map of `l2`, so a
/// config the registry accepts but that cannot run on this cache (an
/// OLSC code wider than the ECC-cache payload, an ECC cache the L2
/// cannot index) fails with a typed error before any simulation runs.
pub fn check_builds(schemes: &[SchemeConfig], l2: CacheGeometry) -> Result<(), BuildError> {
    let ctx = BuildCtx::new(Arc::new(FaultMap::fault_free(l2.lines())), l2);
    for scheme in schemes {
        build_scheme(scheme, &ctx)?;
    }
    Ok(())
}

/// Rejects a scheme list in which two configs share a display label
/// (`killi:ratio=16` and `killi:ratio=16,ecc_ways=8` are both
/// `killi-1:16`): sweep reports and Vmin campaigns key their results by
/// label. The error names the label and both spellings. Every config
/// must already resolve.
pub fn check_distinct_labels(schemes: &[SchemeConfig]) -> Result<(), BuildError> {
    // Registered defaults carry distinct labels (a unit test pins it), so
    // in a list of defaults only a repeated name repeats a label and no
    // label is formatted: a label costs about a microsecond on a cold
    // cache, and formatting all 13 made validating a campaign over every
    // registered scheme half again as slow.
    let labels = if schemes.iter().all(|s| s.params.is_empty()) {
        None
    } else {
        Some(
            schemes
                .iter()
                .map(scheme_label)
                .collect::<Result<Vec<_>, _>>()?,
        )
    };
    for j in 1..schemes.len() {
        let same = |i: usize| match &labels {
            None => schemes[i].name == schemes[j].name,
            Some(labels) => labels[i] == labels[j],
        };
        if let Some(i) = (0..j).find(|&i| same(i)) {
            return Err(BuildError::DuplicateLabel {
                label: scheme_label(&schemes[j])?,
                first: schemes[i].to_string(),
                second: schemes[j].to_string(),
            });
        }
    }
    Ok(())
}

/// The display label of a declarative config via [`default_registry`].
pub fn scheme_label(config: &SchemeConfig) -> Result<String, BuildError> {
    default_registry().label(config)
}

/// The static line-admissibility rule of a declarative config via
/// [`default_registry`] (the Vmin campaign's binning predicate).
pub fn scheme_admissibility(config: &SchemeConfig) -> Result<LineRule, BuildError> {
    admissibility(default_registry(), config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use killi_fault::map::FaultMap;
    use killi_obs::Sink;
    use killi_sim::cache::CacheGeometry;

    #[test]
    fn every_registered_scheme_builds_from_defaults() {
        let geometry = CacheGeometry {
            size_bytes: 1024 * 64,
            ways: 16,
            line_bytes: 64,
        };
        let ctx = BuildCtx::new(Arc::new(FaultMap::fault_free(geometry.lines())), geometry);
        let mut labels = Vec::new();
        for name in default_registry().names() {
            let config = SchemeConfig::new(name);
            let scheme = build_scheme(&config, &ctx)
                .unwrap_or_else(|e| panic!("{name} default config must build: {e}"));
            assert!(!scheme.name().is_empty(), "{name}");
            labels.push(scheme_label(&config).unwrap());
        }
        // `check_distinct_labels` compares a list of defaults by name.
        let count = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), count, "two registered defaults share a label");
    }

    #[test]
    fn build_wires_the_sink_through() {
        use killi_ecc::bits::Line512;

        let geometry = CacheGeometry {
            size_bytes: 1024 * 64,
            ways: 16,
            line_bytes: 64,
        };
        let sink = Sink::recording(64);
        let ctx = BuildCtx::new(Arc::new(FaultMap::fault_free(geometry.lines())), geometry);
        let killi = SchemeConfig::parse("killi:ratio=16").unwrap();
        let mut killi = build_scheme(&killi, &ctx).unwrap();
        killi.attach_sink(sink.clone());
        let data = Line512::from_seed(1);
        killi.on_fill(0, &data);
        let mut stored = data;
        let _ = killi.on_read_hit(0, &mut stored);
        killi.on_evict(0, &stored);
        assert!(
            sink.events_emitted().unwrap_or(0) > 0,
            "a built scheme must emit into the sink attached to it"
        );
    }
}
