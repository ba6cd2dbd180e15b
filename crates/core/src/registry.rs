//! Data-driven scheme construction: declarative [`SchemeConfig`]s resolved
//! against a [`SchemeRegistry`] of [`SchemeDescriptor`]s.
//!
//! The registry is the single place scheme names, parameters and defaults
//! live. Everything that used to hard-code scheme enums — the CLI's
//! `--scheme` parser, the bench matrix, the sweep engine — goes through
//! [`SchemeRegistry::build`], so a new protection variant (or a new axis of
//! an existing one, like ECC-cache geometry) is one descriptor, zero new
//! plumbing.
//!
//! The configs, errors, parameter resolution and canonical spellings are
//! the shared [`killi_obs::registry`] machinery, instantiated for schemes:
//! this module adds the scheme descriptors, their build context and the
//! [`LineRule`] each one implies. Configs have three interchangeable
//! spellings:
//!
//! - CLI shorthand: `killi:ratio=16,ecc_ways=8` ([`SchemeConfig::parse`])
//! - JSON (via the in-repo `killi-obs` parser):
//!   `{"name": "killi", "params": {"ratio": 16, "ecc_ways": 8}}`
//! - programmatic: [`SchemeConfig::new`] + [`SchemeConfig::with`]
//!
//! All failure modes are typed [`BuildError`]s — unknown schemes, unknown
//! or ill-typed parameters, and geometry that cannot be built (e.g. an ECC
//! cache smaller than one set) — never panics.

use std::sync::Arc;

use killi_fault::map::{layout, CellFault, FaultMap};
use killi_obs::registry::{self, Descriptor, Kind};
use killi_sim::cache::CacheGeometry;
use killi_sim::protection::{LineProtection, Unprotected};

use crate::scheme::{KilliConfig, KilliScheme};

/// The typed parameter value, declared parameter and resolved parameters
/// shared with the fault-model registry; see [`killi_obs::registry`].
pub use killi_obs::registry::{ParamSpec, ResolvedParams};
pub use killi_obs::ParamValue;

/// Everything a scheme needs at construction time: the die's fault map
/// and the L2 geometry it protects. A built scheme gets its sink from
/// `GpuSim::attach_sink`.
#[derive(Debug, Clone)]
pub struct BuildCtx {
    /// Fault map of the die at the operating point.
    pub fault_map: Arc<FaultMap>,
    /// Geometry of the protected L2.
    pub geometry: CacheGeometry,
}

impl BuildCtx {
    /// The context of a scheme protecting `geometry` over `fault_map`.
    pub fn new(fault_map: Arc<FaultMap>, geometry: CacheGeometry) -> Self {
        BuildCtx {
            fault_map,
            geometry,
        }
    }
}

/// The scheme registry's [`Kind`]: its messages name a `scheme`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchemeKind;

impl Kind for SchemeKind {
    const NOUN: &'static str = "scheme";
    const MODIFIER: &'static str = "scheme";
    const BUILD_PREFIX: &'static str = "";
}

/// A declarative scheme instantiation: a registered name plus parameter
/// overrides (unset parameters take the descriptor's defaults).
pub type SchemeConfig = registry::Config<SchemeKind>;

/// Why a [`SchemeConfig`] could not be parsed, resolved or built.
pub type BuildError = registry::BuildError<SchemeKind>;

/// The ordered collection of registered schemes.
pub type SchemeRegistry = registry::Registry<SchemeDescriptor>;

/// Name of the unprotected baseline, which matrix and sweep runs put on a
/// fault-free map.
pub const BASELINE: &str = "baseline";

/// Which cells of a line count against a scheme's fault budget (see
/// [`killi_fault::map::layout`]): always the data payload, plus the
/// in-array metadata cells the scheme actually stores there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellSpan {
    /// Data payload only (no in-array metadata).
    Data,
    /// Data plus the 4 stable-mode segmented-parity cells.
    DataParity4,
    /// Data plus the 16 training-mode segmented-parity cells.
    DataParity16,
    /// Data plus the SECDED checkbit cells.
    DataSecded,
    /// Data plus the DEC-TED checkbit cells.
    DataDected,
}

impl CellSpan {
    /// Whether `cell` falls inside the span.
    pub fn contains(self, cell: u16) -> bool {
        if layout::DATA.contains(&cell) {
            return true;
        }
        match self {
            CellSpan::Data => false,
            CellSpan::DataParity4 => layout::PARITY4.contains(&cell),
            CellSpan::DataParity16 => layout::PARITY16.contains(&cell),
            CellSpan::DataSecded => layout::SECDED.contains(&cell),
            CellSpan::DataDected => layout::DECTED.contains(&cell),
        }
    }
}

/// The static line-admissibility rule a resolved scheme implies: given
/// only a line's fault population, can the scheme keep the line in
/// service? This is the MBIST-oracle binning predicate — what the paper's
/// offline characterization (or Killi's converged runtime classification)
/// would decide — and what the `killi vmin` campaign probes per grid
/// voltage. It deliberately ignores runtime policy knobs (victim
/// priority, training cadence): those shape *when* a line is learned,
/// not *whether* it is ultimately usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineRule {
    /// Admissible when at most `max_faults` cells across `span` are
    /// faulty (per-line codes: parity classification, SECDED, DEC-TED).
    Total {
        /// Cells counting against the budget.
        span: CellSpan,
        /// Maximum tolerable faulty cells in the span.
        max_faults: u32,
    },
    /// The data payload divides into `block_cells`-cell blocks, each
    /// independently correcting up to `max_faults` faults (OLSC codes).
    PerBlock {
        /// Data cells per code block.
        block_cells: u32,
        /// Maximum tolerable faulty cells per block.
        max_faults: u32,
    },
}

impl LineRule {
    /// Whether a line with this fault population stays usable.
    pub fn admits(&self, faults: &[CellFault]) -> bool {
        match *self {
            LineRule::Total { span, max_faults } => {
                let count = faults.iter().filter(|f| span.contains(f.cell)).count();
                count <= max_faults as usize
            }
            LineRule::PerBlock {
                block_cells,
                max_faults,
            } => {
                let block = |c: u16| c as u32 / block_cells.max(1);
                for f in faults.iter().filter(|f| layout::DATA.contains(&f.cell)) {
                    let in_block = faults
                        .iter()
                        .filter(|g| {
                            layout::DATA.contains(&g.cell) && block(g.cell) == block(f.cell)
                        })
                        .count();
                    if in_block > max_faults as usize {
                        return false;
                    }
                }
                true
            }
        }
    }

    /// The lowest grid index at which a line is admitted, given each of
    /// its faults as `(cell, top)`: the cell is faulty at grid indices
    /// `0..=top` (a voltage-nested fault map over an ascending grid).
    /// This is the least `g` for which [`Self::admits`] holds on the
    /// faults with `top >= g`: 0 when the line is admitted with every
    /// fault, one past the highest `top` when it is never admitted.
    ///
    /// `faults` must be sorted by descending `top`. The sweep adds faults
    /// from the highest `top` down and stops at the first one that breaks
    /// the rule, at index `top + 1`. That is sound because every rule is
    /// monotone under fault-set inclusion: removing faults never turns an
    /// admitted line into a rejected one.
    pub fn lowest_admitted(&self, faults: &[(u16, usize)]) -> usize {
        debug_assert!(faults.windows(2).all(|w| w[0].1 >= w[1].1));
        match *self {
            LineRule::Total { span, max_faults } => {
                let mut count = 0u32;
                for &(cell, top) in faults {
                    if span.contains(cell) {
                        count += 1;
                        if count > max_faults {
                            return top + 1;
                        }
                    }
                }
            }
            LineRule::PerBlock {
                block_cells,
                max_faults,
            } => {
                let mut per_block = [0u16; layout::DATA.end as usize];
                for &(cell, top) in faults {
                    if layout::DATA.contains(&cell) {
                        let count = &mut per_block[(u32::from(cell) / block_cells.max(1)) as usize];
                        *count += 1;
                        if u32::from(*count) > max_faults {
                            return top + 1;
                        }
                    }
                }
            }
        }
        0
    }
}

/// Signature of a descriptor's build function: resolved parameters plus a
/// build context yield a scheme or a typed error.
pub type BuildFn = fn(&ResolvedParams, &BuildCtx) -> Result<Box<dyn LineProtection>, BuildError>;

/// A registered scheme: name, documentation, parameter schema, and the
/// label/build functions.
#[derive(Debug)]
pub struct SchemeDescriptor {
    /// Registered name (what `--scheme` selects).
    pub name: &'static str,
    /// One-line description for `killi schemes`.
    pub doc: &'static str,
    /// Declared parameters with defaults.
    pub params: Vec<ParamSpec>,
    /// Report label for a resolved config (the strings pinned by report
    /// schemas, e.g. `killi-1:64`).
    pub label: fn(&ResolvedParams) -> String,
    /// Builds the scheme.
    pub build: BuildFn,
    /// The static line-admissibility rule of a resolved config (the
    /// binning predicate the Vmin campaign evaluates per grid voltage),
    /// or the typed error of a config whose rule cannot exist (an OLSC
    /// code its build would reject).
    pub admissibility: fn(&ResolvedParams) -> Result<LineRule, BuildError>,
}

impl Descriptor for SchemeDescriptor {
    type Kind = SchemeKind;
    type Ctx = BuildCtx;
    type Output = Box<dyn LineProtection>;

    fn name(&self) -> &'static str {
        self.name
    }

    fn params(&self) -> &[ParamSpec] {
        &self.params
    }

    fn label(&self, params: &ResolvedParams) -> String {
        (self.label)(params)
    }

    fn build(
        &self,
        params: &ResolvedParams,
        ctx: &BuildCtx,
    ) -> Result<Box<dyn LineProtection>, BuildError> {
        (self.build)(params, ctx)
    }
}

/// The static line-admissibility rule of a config (see [`LineRule`]).
pub fn admissibility(
    registry: &SchemeRegistry,
    config: &SchemeConfig,
) -> Result<LineRule, BuildError> {
    let (descriptor, params) = registry.lookup(config)?;
    (descriptor.admissibility)(&params)
}

/// Shared parameter spec for the ECC-cache ratio.
fn ratio_param(default: u64) -> ParamSpec {
    ParamSpec {
        name: "ratio",
        doc: "L2 lines per ECC-cache entry (1:N)",
        default: ParamValue::U64(default),
    }
}

/// Resolves Killi's ECC-cache geometry: either `ratio`, or an explicit
/// `ecc_sets` x `ecc_ways` that must tile the L2 line count exactly.
fn killi_geometry(p: &ResolvedParams, lines: usize) -> Result<(usize, usize), BuildError> {
    let ways = p.u64("ecc_ways") as usize;
    let sets = p.u64("ecc_sets") as usize;
    let ratio = if sets > 0 {
        let entries = sets.checked_mul(ways).unwrap_or(0);
        if entries == 0 || !lines.is_multiple_of(entries) {
            return Err(BuildError::Build {
                name: p.name().to_string(),
                reason: format!(
                    "ecc_sets={sets} x ecc_ways={ways} does not divide {lines} L2 lines"
                ),
            });
        }
        lines / entries
    } else {
        p.u64("ratio") as usize
    };
    if ratio == 0 {
        return Err(BuildError::Build {
            name: p.name().to_string(),
            reason: "ratio must be positive".to_string(),
        });
    }
    Ok((ratio, ways))
}

/// A cycle-count parameter, which the scheme holds in 32 bits.
fn cycles_param(p: &ResolvedParams, key: &str) -> Result<u32, BuildError> {
    u32::try_from(p.u64(key)).map_err(|_| BuildError::InvalidParam {
        name: p.name().to_string(),
        param: key.to_string(),
        reason: format!("{} cycles do not fit in 32 bits", p.u64(key)),
    })
}

/// Builds a [`KilliConfig`] from resolved core parameters.
fn killi_config(
    p: &ResolvedParams,
    base: KilliConfig,
    lines: usize,
) -> Result<KilliConfig, BuildError> {
    let (ratio, ways) = killi_geometry(p, lines)?;
    let mut config = KilliConfig {
        ecc_cache: crate::ecc_cache::EccCacheConfig { ratio, ways },
        ..base
    };
    config.check_latency = cycles_param(p, "check_latency")?;
    Ok(config)
}

/// Wraps a built [`KilliScheme`] construction, mapping geometry failures.
fn build_killi_scheme(
    p: &ResolvedParams,
    config: KilliConfig,
    ctx: &BuildCtx,
) -> Result<Box<dyn LineProtection>, BuildError> {
    let scheme = KilliScheme::try_new(
        config,
        Arc::clone(&ctx.fault_map),
        ctx.geometry.lines(),
        ctx.geometry.ways,
    )
    .map_err(|reason| BuildError::Build {
        name: p.name().to_string(),
        reason,
    })?;
    Ok(Box::new(scheme))
}

/// Parameter schema shared by every Killi-family descriptor.
fn killi_core_params(default_ratio: u64) -> Vec<ParamSpec> {
    vec![
        ratio_param(default_ratio),
        ParamSpec {
            name: "ecc_sets",
            doc: "explicit ECC-cache set count (0 = derive from ratio)",
            default: ParamValue::U64(0),
        },
        ParamSpec {
            name: "ecc_ways",
            doc: "ECC-cache associativity",
            default: ParamValue::U64(4),
        },
        ParamSpec {
            name: "check_latency",
            doc: "cycles added to every hit by the parity/ECC check",
            default: ParamValue::U64(1),
        },
    ]
}

/// Label of a Killi-family config: `<prefix>-1:<ratio>` normally, or
/// `<prefix>-ecc<sets>x<ways>` when explicit geometry overrides the ratio.
fn killi_label(prefix: &str, p: &ResolvedParams) -> String {
    let sets = p.u64("ecc_sets");
    if sets > 0 {
        format!("{prefix}-ecc{sets}x{}", p.u64("ecc_ways"))
    } else {
        format!("{prefix}-1:{}", p.u64("ratio"))
    }
}

/// The Killi steady state: segmented parity classifies lines over the
/// data payload plus the 4 stable-mode parity cells, and the decoupled
/// ECC cache's SECDED keeps any single-fault line usable.
const KILLI_RULE: LineRule = LineRule::Total {
    span: CellSpan::DataParity4,
    max_faults: 1,
};

/// Registers the unprotected baseline and the Killi family (the §4 design,
/// its §4.4 ablations, and the §5.2/§5.5/§5.6.2 extensions).
pub fn register_killi_schemes(registry: &mut SchemeRegistry) {
    registry.register(SchemeDescriptor {
        name: BASELINE,
        doc: "unprotected L2 at nominal voltage (fault-free reference)",
        params: Vec::new(),
        label: |_| "baseline".to_string(),
        build: |_, _| Ok(Box::new(Unprotected::new())),
        admissibility: |_| {
            Ok(LineRule::Total {
                span: CellSpan::Data,
                max_faults: 0,
            })
        },
    });

    registry.register(SchemeDescriptor {
        name: "killi",
        doc: "the paper's scheme: DFH + segmented parity + decoupled ECC cache (§4)",
        params: {
            let mut params = killi_core_params(64);
            params.push(ParamSpec {
                name: "victim_priority",
                doc: "§4.4 victim priority b'01 > b'00 > b'10",
                default: ParamValue::Bool(true),
            });
            params.push(ParamSpec {
                name: "eviction_training",
                doc: "§4.4 classify b'01 lines on eviction",
                default: ParamValue::Bool(true),
            });
            params.push(ParamSpec {
                name: "coordinated_promotion",
                doc: "§4.4 promote ECC-cache entries with their L2 lines",
                default: ParamValue::Bool(true),
            });
            params
        },
        label: |p| {
            // Disabled policy switches must show in reports, or a sweep
            // axing over them emits indistinguishable rows.
            let mut label = killi_label("killi", p);
            for (flag, suffix) in [
                ("victim_priority", "-no-victim-prio"),
                ("eviction_training", "-no-evict-train"),
                ("coordinated_promotion", "-no-promotion"),
            ] {
                if !p.bool(flag) {
                    label.push_str(suffix);
                }
            }
            label
        },
        build: |p, ctx| {
            let mut config = killi_config(p, KilliConfig::with_ratio(1), ctx.geometry.lines())?;
            config.victim_priority = p.bool("victim_priority");
            config.eviction_training = p.bool("eviction_training");
            config.coordinated_promotion = p.bool("coordinated_promotion");
            build_killi_scheme(p, config, ctx)
        },
        // §4.4's policy switches change *when* lines are learned, never
        // which lines are ultimately usable: SECDED in the ECC cache keeps
        // any 1-fault line in service.
        admissibility: |_| Ok(KILLI_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "killi-no-victim-prio",
        doc: "Killi ablation: §4.4 victim priority off",
        params: killi_core_params(64),
        label: |_| "killi-no-victim-prio".to_string(),
        build: |p, ctx| {
            let mut config = killi_config(p, KilliConfig::with_ratio(1), ctx.geometry.lines())?;
            config.victim_priority = false;
            build_killi_scheme(p, config, ctx)
        },
        admissibility: |_| Ok(KILLI_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "killi-no-evict-train",
        doc: "Killi ablation: §4.4 eviction training off",
        params: killi_core_params(64),
        label: |_| "killi-no-evict-train".to_string(),
        build: |p, ctx| {
            let mut config = killi_config(p, KilliConfig::with_ratio(1), ctx.geometry.lines())?;
            config.eviction_training = false;
            build_killi_scheme(p, config, ctx)
        },
        admissibility: |_| Ok(KILLI_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "killi-no-promotion",
        doc: "Killi ablation: §4.4 coordinated promotion off",
        params: killi_core_params(64),
        label: |_| "killi-no-promotion".to_string(),
        build: |p, ctx| {
            let mut config = killi_config(p, KilliConfig::with_ratio(1), ctx.geometry.lines())?;
            config.coordinated_promotion = false;
            build_killi_scheme(p, config, ctx)
        },
        admissibility: |_| Ok(KILLI_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "killi-dected",
        doc: "Killi + §5.2 DEC-TED upgrade (two-fault lines stay usable)",
        params: killi_core_params(64),
        label: |p| killi_label("killi-dected", p),
        build: |p, ctx| {
            let mut config = killi_config(p, KilliConfig::with_ratio(1), ctx.geometry.lines())?;
            config.dected_upgrade = true;
            build_killi_scheme(p, config, ctx)
        },
        admissibility: |_| {
            Ok(LineRule::Total {
                span: CellSpan::DataParity4,
                max_faults: 2,
            })
        },
    });

    registry.register(SchemeDescriptor {
        name: "killi-invchk",
        doc: "Killi + §5.6.2 inverted-write check at install time",
        params: {
            let mut params = killi_core_params(64);
            params.push(ParamSpec {
                name: "penalty",
                doc: "cycles charged per inverted-write-checked fill",
                default: ParamValue::U64(4),
            });
            params
        },
        label: |p| killi_label("killi-invchk", p),
        build: |p, ctx| {
            let mut config = killi_config(p, KilliConfig::with_ratio(1), ctx.geometry.lines())?;
            config.inverted_write_check = true;
            config.inverted_check_penalty = cycles_param(p, "penalty")?;
            build_killi_scheme(p, config, ctx)
        },
        admissibility: |_| Ok(KILLI_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "killi-olsc",
        doc: "Killi + §5.5 OLSC(8, 2) payloads (the low-Vmin chaser)",
        params: killi_core_params(8),
        label: |p| killi_label("killi-olsc", p),
        build: |p, ctx| {
            let mut config = killi_config(p, KilliConfig::with_olsc(1), ctx.geometry.lines())?;
            config.olsc_mode = true;
            build_killi_scheme(p, config, ctx)
        },
        // OLSC(8, 2) payloads: 64-cell data blocks, 2 corrections each.
        admissibility: |_| {
            Ok(LineRule::PerBlock {
                block_cells: 64,
                max_faults: 2,
            })
        },
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> SchemeRegistry {
        let mut reg = SchemeRegistry::new();
        register_killi_schemes(&mut reg);
        reg
    }

    fn ctx(lines: usize) -> BuildCtx {
        BuildCtx::new(
            Arc::new(FaultMap::fault_free(lines)),
            CacheGeometry {
                size_bytes: lines * 64,
                ways: 16,
                line_bytes: 64,
            },
        )
    }

    #[test]
    fn geometry_errors_are_typed_not_panics() {
        let reg = registry();
        // ways > entries: the ECC cache would be smaller than one set.
        let cfg = SchemeConfig::parse("killi:ratio=1024,ecc_ways=8").unwrap();
        let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Build { .. }), "{err}");
        // Explicit sets x ways that do not tile the L2.
        let cfg = SchemeConfig::parse("killi:ecc_sets=3,ecc_ways=4").unwrap();
        let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Build { .. }), "{err}");
        // ratio = 0, no ECC-cache ways, and sets x ways past usize.
        for spelling in [
            "killi:ratio=0",
            "killi:ecc_ways=0",
            "killi:ecc_sets=4611686018427387904,ecc_ways=4",
        ] {
            let cfg = SchemeConfig::parse(spelling).unwrap();
            let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
            assert!(matches!(err, BuildError::Build { .. }), "{spelling}: {err}");
        }
        // Cycle counts past 32 bits are rejected instead of wrapping to 0.
        for spelling in [
            "killi:check_latency=4294967296",
            "killi-invchk:penalty=4294967296",
        ] {
            let cfg = SchemeConfig::parse(spelling).unwrap();
            let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "invalid `{}` parameter `{}`: 4294967296 cycles do not fit in 32 bits",
                    cfg.name, cfg.params[0].0
                )
            );
        }
    }

    #[test]
    fn labels_match_the_pinned_report_strings() {
        let reg = registry();
        let label = |s: &str| reg.label(&SchemeConfig::parse(s).unwrap()).unwrap();
        assert_eq!(label("baseline"), "baseline");
        assert_eq!(label("killi:ratio=16"), "killi-1:16");
        assert_eq!(label("killi"), "killi-1:64");
        assert_eq!(label("killi-dected:ratio=64"), "killi-dected-1:64");
        assert_eq!(label("killi-invchk:ratio=64"), "killi-invchk-1:64");
        assert_eq!(label("killi-olsc:ratio=8"), "killi-olsc-1:8");
        assert_eq!(label("killi-no-victim-prio"), "killi-no-victim-prio");
        assert_eq!(label("killi:ecc_sets=16,ecc_ways=8"), "killi-ecc16x8");
    }

    #[test]
    fn disabled_policy_switches_show_in_the_label() {
        let reg = registry();
        let label = |s: &str| reg.label(&SchemeConfig::parse(s).unwrap()).unwrap();
        assert_eq!(
            label("killi:victim_priority=false"),
            "killi-1:64-no-victim-prio"
        );
        assert_eq!(
            label("killi:ratio=16,eviction_training=false,coordinated_promotion=false"),
            "killi-1:16-no-evict-train-no-promotion"
        );
        // Explicit defaults leave the pinned strings untouched.
        assert_eq!(label("killi:victim_priority=true"), "killi-1:64");
    }

    #[test]
    fn explicit_geometry_builds_and_sweeps_new_axes() {
        let reg = registry();
        // 1024 lines / (16 sets x 8 ways) = ratio 8.
        let cfg = SchemeConfig::parse("killi:ecc_sets=16,ecc_ways=8").unwrap();
        let scheme = reg.build(&cfg, &ctx(1024)).unwrap();
        assert_eq!(scheme.name(), "killi");
    }

    #[test]
    fn admissibility_rules_match_the_scheme_semantics() {
        let reg = registry();
        let rule = |s: &str| admissibility(&reg, &SchemeConfig::parse(s).unwrap()).unwrap();
        assert_eq!(
            rule("baseline"),
            LineRule::Total {
                span: CellSpan::Data,
                max_faults: 0
            }
        );
        // Every runtime-policy ablation shares the steady-state rule.
        for s in [
            "killi",
            "killi:ratio=16",
            "killi-no-victim-prio",
            "killi-no-evict-train",
            "killi-no-promotion",
            "killi-invchk",
        ] {
            assert_eq!(rule(s), KILLI_RULE, "{s}");
        }
        assert_eq!(
            rule("killi-dected"),
            LineRule::Total {
                span: CellSpan::DataParity4,
                max_faults: 2
            }
        );
        assert_eq!(
            rule("killi-olsc"),
            LineRule::PerBlock {
                block_cells: 64,
                max_faults: 2
            }
        );
        assert!(matches!(
            admissibility(&reg, &SchemeConfig::new("frobnicate")),
            Err(BuildError::Unknown { .. })
        ));
    }

    #[test]
    fn line_rules_admit_exactly_the_tolerable_fault_populations() {
        let fault = |cell: u16| CellFault { cell, stuck: true };
        let killi = KILLI_RULE;
        assert!(killi.admits(&[]));
        assert!(killi.admits(&[fault(3)]));
        assert!(killi.admits(&[fault(512)])); // stable-mode parity cell
        assert!(!killi.admits(&[fault(3), fault(512)]));
        // Cells outside the span never count: the 16-bit training parity
        // tail and the SECDED/DECTED checkbit regions are not stored by
        // the stable-mode Killi line.
        assert!(killi.admits(&[fault(1), fault(520), fault(530), fault(545)]));

        let baseline = LineRule::Total {
            span: CellSpan::Data,
            max_faults: 0,
        };
        assert!(baseline.admits(&[fault(516)]));
        assert!(!baseline.admits(&[fault(0)]));

        let olsc = LineRule::PerBlock {
            block_cells: 64,
            max_faults: 2,
        };
        // Two faults per block are fine, even in every block...
        let spread: Vec<CellFault> = (0..8)
            .flat_map(|b| [fault(b * 64), fault(b * 64 + 1)])
            .collect();
        assert!(olsc.admits(&spread));
        // ...but a third in any one block disables the line.
        assert!(!olsc.admits(&[fault(0), fault(1), fault(63)]));
        // Non-data cells are outside every OLSC block.
        assert!(olsc.admits(&[fault(0), fault(1), fault(512), fault(513)]));
    }
}
