//! Scheme factory shared by every experiment binary.
//!
//! Every scheme is built through the process-wide [`SchemeRegistry`]
//! ([`default_registry`]): the Killi variants declared by
//! `killi::registry::register_killi_schemes` plus the baselines from
//! `killi_baselines::register_baselines`. [`SchemeSpec`] survives as a
//! `Copy` convenience enum for the fixed experiment sets (Figure 4,
//! ablations, lowvmin); it lowers to a declarative [`SchemeConfig`] via
//! [`SchemeSpec::config`], so the registry remains the single point of
//! construction and label formatting.

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

/// The display label of a declarative config via [`default_registry`].
pub fn scheme_label(config: &SchemeConfig) -> Result<String, BuildError> {
    default_registry().label(config)
}

/// The static line-admissibility rule of a declarative config via
/// [`default_registry`] (the Vmin campaign's binning predicate).
pub fn scheme_admissibility(config: &SchemeConfig) -> Result<LineRule, BuildError> {
    admissibility(default_registry(), config)
}

/// Every protection configuration the experiments compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeSpec {
    /// Fault-free cache at nominal VDD.
    Baseline,
    /// DEC-TED per line (pre-characterized).
    Dected,
    /// FLAIR steady state: SECDED per line (pre-characterized).
    Flair,
    /// FLAIR with its online DMR/MBIST training phase (ablation).
    FlairOnline,
    /// MS-ECC (OLSC per line).
    MsEcc,
    /// Killi at an ECC-cache ratio of 1:N.
    Killi(usize),
    /// Killi with a §4.4 optimization disabled (ablations).
    KilliAblation(KilliAblation),
    /// Killi with the §5.2 DEC-TED upgrade enabled (ratio 1:N).
    KilliDected(usize),
    /// Killi with the §5.6.2 inverted-write check enabled (ratio 1:N).
    KilliInverted(usize),
    /// Killi with OLSC in its ECC cache (§5.5 low-Vmin variant, ratio 1:N).
    KilliOlsc(usize),
}

/// Which §4.4 optimization an ablation run disables (all at ratio 1:64).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KilliAblation {
    /// Plain LRU victim selection instead of `b'01 > b'00 > b'10`.
    NoVictimPriority,
    /// No classification on eviction.
    NoEvictionTraining,
    /// No coordinated ECC-cache promotion.
    NoPromotion,
}

impl SchemeSpec {
    /// The Figure 4/5 comparison set.
    pub fn figure4_set() -> Vec<SchemeSpec> {
        vec![
            SchemeSpec::Dected,
            SchemeSpec::Flair,
            SchemeSpec::MsEcc,
            SchemeSpec::Killi(256),
            SchemeSpec::Killi(128),
            SchemeSpec::Killi(64),
            SchemeSpec::Killi(32),
            SchemeSpec::Killi(16),
        ]
    }

    /// Lowers the spec to its declarative registry config.
    pub fn config(&self) -> SchemeConfig {
        let ratio =
            |name: &str, r: usize| SchemeConfig::new(name).with("ratio", ParamValue::U64(r as u64));
        match *self {
            SchemeSpec::Baseline => SchemeConfig::new(BASELINE),
            SchemeSpec::Dected => SchemeConfig::new("dected"),
            SchemeSpec::Flair => SchemeConfig::new("flair"),
            SchemeSpec::FlairOnline => SchemeConfig::new("flair-online"),
            SchemeSpec::MsEcc => SchemeConfig::new("ms-ecc"),
            SchemeSpec::Killi(r) => ratio("killi", r),
            SchemeSpec::KilliAblation(a) => SchemeConfig::new(match a {
                KilliAblation::NoVictimPriority => "killi-no-victim-prio",
                KilliAblation::NoEvictionTraining => "killi-no-evict-train",
                KilliAblation::NoPromotion => "killi-no-promotion",
            }),
            SchemeSpec::KilliDected(r) => ratio("killi-dected", r),
            SchemeSpec::KilliInverted(r) => ratio("killi-invchk", r),
            SchemeSpec::KilliOlsc(r) => ratio("killi-olsc", r),
        }
    }

    /// Display label matching the paper's figures (registry-formatted).
    pub fn label(&self) -> String {
        scheme_label(&self.config()).expect("built-in spec is registered")
    }

    /// True when the scheme runs on the fault-free nominal-VDD map.
    pub fn is_baseline(&self) -> bool {
        matches!(self, SchemeSpec::Baseline)
    }

    /// Builds the protection scheme for the L2 described by `ctx`, with
    /// `ctx.sink` attached.
    ///
    /// # Panics
    ///
    /// Panics if the geometry cannot host the scheme; use [`build_scheme`]
    /// with [`SchemeSpec::config`] for a fallible build.
    pub fn build(&self, ctx: &BuildCtx) -> Box<dyn LineProtection> {
        match build_scheme(&self.config(), ctx) {
            Ok(scheme) => scheme,
            Err(e) => panic!("{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use killi_fault::map::FaultMap;
    use killi_obs::Sink;
    use killi_sim::cache::CacheGeometry;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<String> = SchemeSpec::figure4_set()
            .iter()
            .map(SchemeSpec::label)
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), SchemeSpec::figure4_set().len());
    }

    #[test]
    fn labels_match_the_paper_figures() {
        assert_eq!(SchemeSpec::Killi(64).label(), "killi-1:64");
        assert_eq!(SchemeSpec::KilliInverted(16).label(), "killi-invchk-1:16");
        assert_eq!(SchemeSpec::KilliDected(32).label(), "killi-dected-1:32");
        assert_eq!(SchemeSpec::KilliOlsc(8).label(), "killi-olsc-1:8");
        assert_eq!(
            SchemeSpec::KilliAblation(KilliAblation::NoPromotion).label(),
            "killi-no-promotion"
        );
        assert_eq!(SchemeSpec::FlairOnline.label(), "flair-online");
    }

    #[test]
    fn every_spec_builds() {
        let geometry = CacheGeometry {
            size_bytes: 1024 * 64,
            ways: 16,
            line_bytes: 64,
        };
        let ctx = BuildCtx::new(Arc::new(FaultMap::fault_free(geometry.lines())), geometry);
        for spec in [
            SchemeSpec::Baseline,
            SchemeSpec::Dected,
            SchemeSpec::Flair,
            SchemeSpec::FlairOnline,
            SchemeSpec::MsEcc,
            SchemeSpec::Killi(16),
            SchemeSpec::KilliAblation(KilliAblation::NoVictimPriority),
            SchemeSpec::KilliDected(16),
            SchemeSpec::KilliInverted(16),
            SchemeSpec::KilliOlsc(16),
        ] {
            let s = spec.build(&ctx);
            assert!(!s.name().is_empty(), "{spec:?}");
        }
    }

    #[test]
    fn every_registered_scheme_builds_from_defaults() {
        let geometry = CacheGeometry {
            size_bytes: 1024 * 64,
            ways: 16,
            line_bytes: 64,
        };
        let ctx = BuildCtx::new(Arc::new(FaultMap::fault_free(geometry.lines())), geometry);
        for name in default_registry().names() {
            let config = SchemeConfig::new(name);
            let scheme = build_scheme(&config, &ctx)
                .unwrap_or_else(|e| panic!("{name} default config must build: {e}"));
            assert!(!scheme.name().is_empty(), "{name}");
        }
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
        let ctx = BuildCtx::new(Arc::new(FaultMap::fault_free(geometry.lines())), geometry)
            .with_sink(sink.clone());
        let mut killi = SchemeSpec::Killi(16).build(&ctx);
        let data = Line512::from_seed(1);
        killi.on_fill(0, &data);
        let mut stored = data;
        let _ = killi.on_read_hit(0, &mut stored);
        killi.on_evict(0, &stored);
        assert!(
            sink.events_emitted().unwrap_or(0) > 0,
            "scheme built via BuildCtx must emit into the provided sink"
        );
    }
}
