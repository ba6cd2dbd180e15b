//! Baseline low-voltage protection schemes the paper compares Killi
//! against (§5.1–§5.3).
//!
//! Every baseline is one [`PerLineEcc`]: a per-line [`Code`] plus a
//! line-disable map from the MBIST oracle or from FLAIR's online way-pair
//! test. The baselines run on the same simulator substrate as Killi
//! through the `LineProtection` trait; the only privileged information
//! they receive is the MBIST-equivalent disable map, matching the paper's
//! methodology. [`register_baselines`] declares all five to a
//! [`killi::registry::SchemeRegistry`].

pub mod per_line;

use std::sync::Arc;

use killi::registry::{
    BuildCtx, BuildError, CellSpan, LineRule, ParamSpec, ParamValue, ResolvedParams,
    SchemeDescriptor, SchemeRegistry,
};
use killi_ecc::olsc::OlscLine;
use killi_sim::protection::LineProtection;

use per_line::{check_way_pairs, SECDED_RULE};
pub use per_line::{Code, PerLineEcc};

/// Per-line DEC-TED keeps lines with up to two faults in data and
/// checkbit cells.
const DECTED_RULE: LineRule = LineRule::Total {
    span: CellSpan::DataDected,
    max_faults: 2,
};

/// The OLSC(m, t) code of an `ms-ecc` config and the rule it implies:
/// m*m-cell data blocks, t corrections each. A code that
/// [`OlscLine::try_new`] rejects has no rule either.
fn olsc(p: &ResolvedParams) -> Result<(OlscLine, LineRule), BuildError> {
    let code = OlscLine::try_new(p.u64("m") as usize, p.u64("t") as usize)
        .map_err(geometry_err("ms-ecc"))?;
    let rule = LineRule::PerBlock {
        block_cells: code.block_bits() as u32,
        max_faults: code.t_per_block() as u32,
    };
    Ok((code, rule))
}

/// Maps a constructor's `Err(String)` onto a typed geometry error.
fn geometry_err(scheme: &'static str) -> impl Fn(String) -> BuildError {
    move |reason| BuildError::Build {
        name: scheme.to_string(),
        reason,
    }
}

/// Builds a per-line baseline whose MBIST oracle disables every line
/// `rule` does not admit.
fn with_oracle(
    name: &'static str,
    code: Code,
    rule: LineRule,
    ctx: &BuildCtx,
) -> Result<Box<dyn LineProtection>, BuildError> {
    let map = Arc::clone(&ctx.fault_map);
    let scheme = PerLineEcc::with_oracle(name, code, rule, map, ctx.geometry.lines())
        .map_err(geometry_err(name))?;
    Ok(Box::new(scheme))
}

/// Registers the baseline schemes (`flair`, `secded`, `dected`,
/// `flair-online`, `ms-ecc`) as declarative registry entries.
pub fn register_baselines(registry: &mut SchemeRegistry) {
    registry.register(SchemeDescriptor {
        name: "flair",
        doc: "per-line SECDED with >= 2-fault lines disabled (FLAIR steady state)",
        params: Vec::new(),
        label: |_| "flair".to_string(),
        check: |_, _| Ok(()),
        build: |_, ctx| with_oracle("flair", Code::Secded, SECDED_RULE, ctx),
        admissibility: |_| Ok(SECDED_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "secded",
        doc: "plain per-line SECDED (the Table 5 area-normalization baseline)",
        params: Vec::new(),
        label: |_| "secded".to_string(),
        check: |_, _| Ok(()),
        build: |_, ctx| with_oracle("secded", Code::Secded, SECDED_RULE, ctx),
        admissibility: |_| Ok(SECDED_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "dected",
        doc: "per-line DEC-TED with >= 3-fault lines disabled",
        params: Vec::new(),
        label: |_| "dected".to_string(),
        check: |_, _| Ok(()),
        build: |_, ctx| with_oracle("dected", Code::Dected, DECTED_RULE, ctx),
        admissibility: |_| Ok(DECTED_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "flair-online",
        doc: "FLAIR with its online DMR + rotating-MBIST training cost",
        params: vec![ParamSpec {
            name: "accesses_per_pair",
            doc: "L2 accesses spent testing each way pair (0 = lines x 4)",
            default: ParamValue::U64(0),
        }],
        label: |_| "flair-online".to_string(),
        check: |_, geometry| check_way_pairs(geometry.ways).map_err(geometry_err("flair-online")),
        build: |p, ctx| {
            let lines = ctx.geometry.lines();
            let per_pair = match p.u64("accesses_per_pair") {
                0 => lines as u64 * 4,
                n => n,
            };
            let map = Arc::clone(&ctx.fault_map);
            let scheme = PerLineEcc::flair_online(map, lines, ctx.geometry.ways, per_pair)
                .map_err(geometry_err("flair-online"))?;
            Ok(Box::new(scheme))
        },
        // The online training cost changes runtime, not which lines
        // FLAIR's SECDED can ultimately keep in service.
        admissibility: |_| Ok(SECDED_RULE),
    });

    registry.register(SchemeDescriptor {
        name: "ms-ecc",
        doc: "OLSC(m, t) on every line, ~11-fault correction (MS-ECC, MICRO'09)",
        params: vec![
            ParamSpec {
                name: "m",
                doc: "OLSC block width in bits (4, 8 or 16)",
                default: ParamValue::U64(8),
            },
            ParamSpec {
                name: "t",
                doc: "corrections per block (1 <= t, 2t <= m+1)",
                default: ParamValue::U64(2),
            },
        ],
        label: |_| "ms-ecc".to_string(),
        check: |p, _| olsc(p).map(|_| ()),
        build: |p, ctx| {
            let (code, rule) = olsc(p)?;
            with_oracle("ms-ecc", Code::Olsc(code), rule, ctx)
        },
        admissibility: |p| olsc(p).map(|(_, rule)| rule),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use killi::registry::SchemeConfig;
    use killi_fault::map::FaultMap;
    use killi_sim::cache::CacheGeometry;

    fn build(config: &str) -> Result<Box<dyn LineProtection>, BuildError> {
        let mut registry = SchemeRegistry::new();
        register_baselines(&mut registry);
        let geometry = CacheGeometry {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 64,
        };
        let ctx = BuildCtx::new(Arc::new(FaultMap::fault_free(16)), geometry);
        registry.build(&SchemeConfig::parse(config).unwrap(), &ctx)
    }

    #[test]
    fn every_baseline_builds_under_its_registered_name() {
        for name in ["flair", "secded", "dected", "flair-online", "ms-ecc"] {
            assert_eq!(build(name).unwrap().name(), name);
        }
    }

    #[test]
    fn ms_ecc_geometry_errors_are_typed() {
        // Each block's 2tm checkbits fit, but the line's do not for
        // (8, 3), (4, 2) and (16, 5): 8 x 48, 32 x 16 and 2 x 160 bits
        // against the 256-bit payload.
        for (spelling, reason) in [
            ("ms-ecc:m=5", "block width"),
            ("ms-ecc:t=5", "out of range"),
            ("ms-ecc:t=3", "256-bit payload"),
            ("ms-ecc:m=4", "256-bit payload"),
            ("ms-ecc:m=16,t=5", "256-bit payload"),
        ] {
            match build(spelling) {
                Err(BuildError::Build { name, reason: r }) => {
                    assert_eq!(name, "ms-ecc");
                    assert!(r.contains(reason), "{spelling}: {r}");
                }
                Err(other) => panic!("{spelling}: {other}"),
                Ok(_) => panic!("{spelling} built"),
            }
        }
    }

    #[test]
    fn ms_ecc_binning_rule_comes_from_the_code_its_build_accepts() {
        let mut registry = SchemeRegistry::new();
        register_baselines(&mut registry);
        let rule = |spelling: &str| {
            killi::registry::admissibility(&registry, &SchemeConfig::parse(spelling).unwrap())
        };
        assert_eq!(
            rule("ms-ecc:m=16,t=2"),
            Ok(LineRule::PerBlock {
                block_cells: 256,
                max_faults: 2
            })
        );
        // m * m used to overflow u64 for this m, and m = 0 binned every die.
        for spelling in [
            "ms-ecc:m=0",
            "ms-ecc:t=3",
            "ms-ecc:m=4294967296",
            "ms-ecc:t=4294967296",
        ] {
            let err = build(spelling).map(|_| ()).unwrap_err();
            assert_eq!(rule(spelling), Err(err), "{spelling}");
        }
    }
}
