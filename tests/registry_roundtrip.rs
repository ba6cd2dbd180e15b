//! Property tests for the scheme registry's declarative configs: every
//! `SchemeConfig` must survive a JSON round-trip unchanged, the CLI
//! shorthand must agree with the JSON spelling, and malformed or unknown
//! configs must surface as typed [`BuildError`]s — never panics. Every
//! registered scheme's `LineRule` must be monotone under fault-set
//! inclusion, and its lowest-admitted sweep must agree with `admits`.

use std::sync::Arc;

use killi_repro::bench::schemes::{
    default_registry, BuildCtx, BuildError, LineRule, ParamValue, SchemeConfig,
};
use killi_repro::fault::map::{CellFault, FaultMap};
use killi_repro::sim::cache::CacheGeometry;

fn geometry() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 64 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

fn ctx() -> BuildCtx {
    let geo = geometry();
    BuildCtx::new(Arc::new(FaultMap::fault_free(geo.lines())), geo)
}

/// A config exercising every [`ParamValue`] variant. The params are
/// deliberately not registered anywhere: round-tripping happens before
/// validation, so the serialization contract must hold for any config.
fn exotic_config() -> SchemeConfig {
    SchemeConfig::new("hypothetical")
        .with("count", ParamValue::U64(17))
        .with("scale", ParamValue::F64(0.625))
        .with("enabled", ParamValue::Bool(false))
        .with("note", ParamValue::Str("quotes \"and\" back\\slash".into()))
}

#[test]
fn every_registered_default_round_trips_through_json() {
    let registry = default_registry();
    for name in registry.names() {
        let config = SchemeConfig::new(name);
        let json = config.to_json();
        let back = SchemeConfig::from_json(&json)
            .unwrap_or_else(|e| panic!("{name}: {json} did not parse back: {e}"));
        assert_eq!(back, config, "{name} changed across a JSON round-trip");
    }
}

#[test]
fn overridden_params_round_trip_through_json() {
    let registry = default_registry();
    for name in registry.names() {
        let descriptor = registry.descriptor(name).expect("listed name resolves");
        let mut config = SchemeConfig::new(name);
        for param in &descriptor.params {
            config = config.with(param.name, param.default.clone());
        }
        let back = SchemeConfig::from_json(&config.to_json()).expect("round-trip parses");
        assert_eq!(back, config, "{name} with explicit defaults diverged");
        // Explicit defaults must also build to the same label as the bare name.
        assert_eq!(
            registry.label(&back).unwrap(),
            registry.label(&SchemeConfig::new(name)).unwrap()
        );
    }
}

#[test]
fn every_param_value_variant_round_trips() {
    let config = exotic_config();
    let back = SchemeConfig::from_json(&config.to_json()).expect("round-trip parses");
    assert_eq!(back, config);
}

#[test]
fn shorthand_and_json_spellings_agree() {
    let shorthand = SchemeConfig::parse("killi:ratio=16,ecc_sets=64,ecc_ways=8").unwrap();
    let json = SchemeConfig::from_json(
        r#"{"name": "killi", "params": {"ratio": 16, "ecc_sets": 64, "ecc_ways": 8}}"#,
    )
    .unwrap();
    assert_eq!(shorthand, json);
    assert_eq!(
        default_registry().label(&shorthand).unwrap(),
        "killi-ecc64x8"
    );
}

#[test]
fn list_round_trips_through_both_json_shapes() {
    let configs = vec![
        SchemeConfig::new("baseline"),
        SchemeConfig::new("killi").with("ratio", ParamValue::U64(16)),
        exotic_config(),
    ];
    let bare = format!(
        "[{}]",
        configs
            .iter()
            .map(SchemeConfig::to_json)
            .collect::<Vec<_>>()
            .join(", ")
    );
    assert_eq!(SchemeConfig::list_from_json(&bare).unwrap(), configs);
    let wrapped = format!("{{\"schemes\": {bare}}}");
    assert_eq!(SchemeConfig::list_from_json(&wrapped).unwrap(), configs);
}

#[test]
fn unknown_scheme_is_a_typed_error() {
    let registry = default_registry();
    let config = SchemeConfig::new("no-such-scheme");
    match registry.validate(&config) {
        Err(BuildError::UnknownScheme { name }) => assert_eq!(name, "no-such-scheme"),
        other => panic!("expected UnknownScheme, got {other:?}"),
    }
    assert!(matches!(
        registry.build(&config, &ctx()),
        Err(BuildError::UnknownScheme { .. })
    ));
    assert!(matches!(
        registry.label(&config),
        Err(BuildError::UnknownScheme { .. })
    ));
}

#[test]
fn unknown_and_mistyped_params_are_typed_errors() {
    let registry = default_registry();
    match registry.validate(&SchemeConfig::new("killi").with("ratio2", ParamValue::U64(4))) {
        Err(BuildError::UnknownParam { scheme, param }) => {
            assert_eq!((scheme.as_str(), param.as_str()), ("killi", "ratio2"));
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }
    match registry.validate(&SchemeConfig::new("killi").with("ratio", ParamValue::Bool(true))) {
        Err(BuildError::InvalidParam { scheme, param, .. }) => {
            assert_eq!((scheme.as_str(), param.as_str()), ("killi", "ratio"));
        }
        other => panic!("expected InvalidParam, got {other:?}"),
    }
}

#[test]
fn malformed_inputs_are_parse_errors() {
    for bad in [
        "",            // no name at all
        ":ratio=4",    // empty name
        "killi:ratio", // param with no value
        "killi:=4",    // param with no key
    ] {
        assert!(
            matches!(SchemeConfig::parse(bad), Err(BuildError::Parse { .. })),
            "{bad:?} should be a parse error"
        );
    }
    for bad in [
        "not json",
        "{\"params\": {}}",       // missing name
        "{\"name\": 7}",          // non-string name
        "[{\"name\": \"killi\"}", // truncated array
    ] {
        let single = SchemeConfig::from_json(bad);
        let list = SchemeConfig::list_from_json(bad);
        assert!(
            matches!(single, Err(BuildError::Parse { .. }))
                && matches!(list, Err(BuildError::Parse { .. })),
            "{bad:?} should be a parse error, got {single:?} / {list:?}"
        );
    }
}

#[test]
fn canonicalization_is_spelling_invariant() {
    // The cache-key property the service leans on: any spelling of the
    // same scheme — shorthand, JSON, reordered overrides, defaults
    // spelled explicitly — must canonicalize to byte-identical JSON.
    let registry = default_registry();
    killi_check::check("registry_canonicalization", |g| {
        let names = registry.names();
        let name = *g.pick(&names);
        let descriptor = registry.descriptor(name).expect("listed name resolves");

        // A random subset of the declared params with fresh values of
        // the declared type.
        let mut overrides: Vec<(&str, ParamValue)> = Vec::new();
        for spec in &descriptor.params {
            if !g.bool() {
                continue;
            }
            let value = match spec.default {
                ParamValue::U64(_) => ParamValue::U64(g.u64_below(64) + 1),
                ParamValue::Bool(_) => ParamValue::Bool(g.bool()),
                ParamValue::F64(_) => ParamValue::F64(g.f64_in(0.0, 4.0)),
                ParamValue::Str(_) => ParamValue::Str(format!("s{}", g.u64_below(8))),
            };
            overrides.push((spec.name, value));
        }

        // Spelling 1: programmatic, declaration order.
        let mut forward = SchemeConfig::new(name);
        for (k, v) in &overrides {
            forward = forward.with(k, v.clone());
        }
        // Spelling 2: programmatic, reversed order.
        let mut reversed = SchemeConfig::new(name);
        for (k, v) in overrides.iter().rev() {
            reversed = reversed.with(k, v.clone());
        }
        // Spelling 3: CLI shorthand (all generated values spell cleanly).
        let shorthand_text = if overrides.is_empty() {
            name.to_string()
        } else {
            format!(
                "{name}:{}",
                overrides
                    .iter()
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        };
        let shorthand = SchemeConfig::parse(&shorthand_text).expect("shorthand parses");
        // Spelling 4: JSON round-trip of the forward spelling.
        let json = SchemeConfig::from_json(&forward.to_json()).expect("JSON parses");
        // Spelling 5: every remaining default spelled explicitly.
        let mut explicit = forward.clone();
        for spec in &descriptor.params {
            if explicit.get(spec.name).is_none() {
                explicit = explicit.with(spec.name, spec.default.clone());
            }
        }

        let canon = registry.canonical_json(&forward).expect("canonicalizes");
        for (label, spelling) in [
            ("reversed", &reversed),
            ("shorthand", &shorthand),
            ("json", &json),
            ("explicit-defaults", &explicit),
        ] {
            assert_eq!(
                registry.canonical_json(spelling).expect("canonicalizes"),
                canon,
                "{label} spelling of {shorthand_text} diverged"
            );
        }

        // And the canonical form is a fixed point that still resolves
        // to the same report label.
        let canonical = registry.canonicalize(&forward).expect("canonicalizes");
        assert_eq!(registry.canonicalize(&canonical).unwrap(), canonical);
        assert_eq!(
            registry.label(&canonical).unwrap(),
            registry.label(&forward).unwrap()
        );
    });
}

#[test]
fn every_registered_scheme_builds_from_its_default_config() {
    let registry = default_registry();
    let ctx = ctx();
    for name in registry.names() {
        let config = SchemeConfig::new(name);
        registry
            .build(&config, &ctx)
            .unwrap_or_else(|e| panic!("{name} failed to build from defaults: {e}"));
    }
}

#[test]
fn every_registered_scheme_builds_or_fails_typed_under_random_params() {
    // Random U64 overrides in 1..=64, drawn like the canonicalization
    // property's, on every registered scheme: the build returns a scheme
    // or a typed BuildError, never a panic.
    let registry = default_registry();
    let ctx = ctx();
    killi_check::check_cases("registry_build_fuzz", 256, |g| {
        for name in registry.names() {
            let descriptor = registry.descriptor(name).expect("listed name resolves");
            let mut config = SchemeConfig::new(name);
            for spec in &descriptor.params {
                if matches!(spec.default, ParamValue::U64(_)) && g.bool() {
                    config = config.with(spec.name, ParamValue::U64(g.u64_below(64) + 1));
                }
            }
            if let Err(e) = registry.build(&config, &ctx) {
                assert!(
                    matches!(e, BuildError::Geometry { .. }),
                    "{config}: unexpected {e}"
                );
            }
        }
    });
}

/// Every registered scheme's admissibility rule, by scheme name.
fn registered_rules() -> Vec<(&'static str, LineRule)> {
    let registry = default_registry();
    registry
        .names()
        .into_iter()
        .map(|name| {
            (
                name,
                registry.admissibility(&SchemeConfig::new(name)).unwrap(),
            )
        })
        .collect()
}

/// A random line's faulty cells: sparse, dense (more than 500 faults), or
/// packed into the parity and checkbit cells past the data payload.
fn random_faults(g: &mut killi_check::Gen) -> Vec<CellFault> {
    let mut cells = match g.usize_in(0, 4) {
        0 => g.distinct(560, 501, 560),
        1 => g.distinct(48, 1, 48).into_iter().map(|c| c + 512).collect(),
        _ => g.distinct(560, 0, 12),
    };
    cells.extend(g.distinct(512, 0, 3));
    cells
        .into_iter()
        .map(|cell| CellFault {
            cell: cell as u16,
            stuck: g.bool(),
        })
        .collect()
}

#[test]
fn every_registered_line_rule_is_monotone_under_fault_set_inclusion() {
    let rules = registered_rules();
    killi_check::check_cases("line_rule_monotone", 256, |g| {
        let faults = random_faults(g);
        let subset: Vec<CellFault> = faults.iter().copied().filter(|_| g.bool()).collect();
        for (name, rule) in &rules {
            if rule.admits(&faults) {
                assert!(
                    rule.admits(&subset),
                    "{name}: admits {} faults but not {} of them",
                    faults.len(),
                    subset.len()
                );
            }
        }
    });
}

#[test]
fn lowest_admitted_sweep_equals_the_per_grid_oracle() {
    let rules = registered_rules();
    killi_check::check_cases("lowest_admitted_oracle", 256, |g| {
        let grid_len = g.usize_in(2, 65);
        let mut faults: Vec<(CellFault, usize)> = random_faults(g)
            .into_iter()
            .map(|f| (f, g.usize_in(0, grid_len)))
            .collect();
        faults.sort_by_key(|&(_, top)| std::cmp::Reverse(top));
        let tops: Vec<(u16, usize)> = faults.iter().map(|&(f, top)| (f.cell, top)).collect();
        for (name, rule) in &rules {
            // The least grid index whose fault set (faults with top >= g)
            // the rule admits; the empty set at grid_len always is.
            let oracle = (0..=grid_len)
                .find(|&at| {
                    let present: Vec<CellFault> = faults
                        .iter()
                        .filter(|&&(_, top)| top >= at)
                        .map(|&(f, _)| f)
                        .collect();
                    rule.admits(&present)
                })
                .expect("the empty fault set is admitted");
            assert_eq!(
                rule.lowest_admitted(&tops),
                oracle,
                "{name}: {} faults over {grid_len} grid points",
                faults.len()
            );
        }
    });
}
