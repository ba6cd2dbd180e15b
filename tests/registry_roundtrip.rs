//! Property tests for the scheme registry's declarative configs: every
//! `SchemeConfig` must survive a JSON round-trip unchanged, the CLI
//! shorthand must agree with the JSON spelling, and malformed or unknown
//! configs must surface as typed [`BuildError`]s — never panics. Every
//! registered scheme's `LineRule` must be monotone under fault-set
//! inclusion, and its lowest-admitted sweep must agree with `admits`.
//!
//! `tests/golden/registry_contract.txt` pins what both registries say
//! about valid and hostile spellings: parse results, labels, canonical
//! JSON (the service's cache keys), build results and every error
//! message. To re-bless after an *intentional* change, run:
//!
//! ```sh
//! KILLI_BLESS=1 cargo test --test registry_roundtrip
//! ```

use std::fmt::Display;
use std::sync::Arc;

use killi_repro::bench::fault_models::{build_fault_model, default_fault_registry};
use killi_repro::bench::schemes::{
    build_scheme, check_schemes, default_registry, scheme_admissibility, BuildCtx, BuildError,
    LineRule, ParamValue, SchemeConfig,
};
use killi_repro::fault::cell_model::{FreqGhz, NormVdd};
use killi_repro::fault::map::{CellFault, FaultMap, GridFault};
use killi_repro::obs::parse_json;
use killi_repro::obs::registry::{Config, Descriptor, Registry};
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::gpu::GpuConfig;

mod common;

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
    assert_eq!(
        SchemeConfig::list_from_json(&bare, "schemes").unwrap(),
        configs
    );
    let wrapped = format!("{{\"schemes\": {bare}}}");
    assert_eq!(
        SchemeConfig::list_from_json(&wrapped, "schemes").unwrap(),
        configs
    );
    // A list item may take either spelling: a shorthand string or an
    // object.
    let mixed = r#"["killi:ratio=16", {"name": "dected"}]"#;
    assert_eq!(
        SchemeConfig::list_from_json(mixed, "schemes").unwrap(),
        [configs[1].clone(), SchemeConfig::new("dected")]
    );
}

#[test]
fn unknown_scheme_is_a_typed_error() {
    let registry = default_registry();
    let config = SchemeConfig::new("no-such-scheme");
    match registry.validate(&config) {
        Err(BuildError::Unknown { name }) => assert_eq!(name, "no-such-scheme"),
        other => panic!("expected Unknown, got {other:?}"),
    }
    assert!(matches!(
        registry.build(&config, &ctx()),
        Err(BuildError::Unknown { .. })
    ));
    assert!(matches!(
        registry.label(&config),
        Err(BuildError::Unknown { .. })
    ));
}

#[test]
fn unknown_and_mistyped_params_are_typed_errors() {
    let registry = default_registry();
    match registry.validate(&SchemeConfig::new("killi").with("ratio2", ParamValue::U64(4))) {
        Err(BuildError::UnknownParam { name, param }) => {
            assert_eq!((name.as_str(), param.as_str()), ("killi", "ratio2"));
        }
        other => panic!("expected UnknownParam, got {other:?}"),
    }
    match registry.validate(&SchemeConfig::new("killi").with("ratio", ParamValue::Bool(true))) {
        Err(BuildError::InvalidParam { name, param, .. }) => {
            assert_eq!((name.as_str(), param.as_str()), ("killi", "ratio"));
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
        let list = SchemeConfig::list_from_json(bad, "schemes");
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

/// Parameter spellings the build fuzz draws, as (CLI shorthand, JSON): the
/// edges of u32 and u64, floats no integer holds, and non-finite floats.
/// JSON has no NaN, so its NaN spelling is a string.
const HOSTILE: [(&str, &str); 10] = [
    ("nan", "\"nan\""),
    ("inf", "1e999"),
    ("-inf", "-1e999"),
    ("-0.0", "-0.0"),
    ("1e300", "1e300"),
    ("4294967296", "4294967296"),
    ("18446744073709551616", "18446744073709551616"),
    ("18446744073709551615", "18446744073709551615"),
    ("0", "0"),
    ("-1", "-1"),
];

/// Whether a drawn spelling is a non-finite number.
fn non_finite(spelling: &str) -> bool {
    matches!(spelling, "nan" | "inf" | "-inf" | "1e999" | "-1e999")
}

/// One parameter's value in both spellings: a hostile value, or an
/// ordinary value of the declared type.
fn draw_value(g: &mut killi_check::Gen, default: &ParamValue) -> (String, String) {
    if g.bool() {
        let (cli, json) = *g.pick(&HOSTILE);
        return (cli.to_string(), json.to_string());
    }
    let cli = match default {
        ParamValue::U64(_) => (g.u64_below(64) + 1).to_string(),
        ParamValue::F64(_) => format!("{:?}", g.f64_in(0.0, 1.0)),
        ParamValue::Bool(_) => g.bool().to_string(),
        ParamValue::Str(_) => g
            .pick(&["random", "burst", "0.5@-0.3;0.6@-4", "0.5@-10;0.7@-2"])
            .to_string(),
    };
    let json = match default {
        ParamValue::Str(_) => format!("\"{cli}\""),
        _ => cli.clone(),
    };
    (cli, json)
}

/// Spells a random subset of every descriptor's parameters with
/// [`draw_value`], as CLI shorthand and as JSON, and hands each parsed
/// config to `build`, which must return, never panic. A non-finite number
/// is never accepted, and an accepted config's canonical JSON parses as
/// JSON.
fn fuzz_registry<D: Descriptor>(
    g: &mut killi_check::Gen,
    registry: &Registry<D>,
    build: impl Fn(&Config<D::Kind>),
) {
    for d in registry.descriptors() {
        let (mut cli, mut json, mut hostile) = (Vec::new(), Vec::new(), [false; 2]);
        for spec in d.params() {
            if !g.bool() {
                continue;
            }
            let (c, j) = draw_value(g, &spec.default);
            hostile = [hostile[0] || non_finite(&c), hostile[1] || non_finite(&j)];
            cli.push(format!("{}={c}", spec.name));
            json.push(format!("\"{}\": {j}", spec.name));
        }
        let shorthand = format!("{}:{}", d.name(), cli.join(","));
        let shorthand = shorthand.trim_end_matches(':');
        let object = format!(
            "{{\"name\": \"{}\", \"params\": {{{}}}}}",
            d.name(),
            json.join(", ")
        );
        for (parsed, hostile, text) in [
            (Config::parse(shorthand), hostile[0], shorthand),
            (Config::from_json(&object), hostile[1], object.as_str()),
        ] {
            let config = parsed.unwrap_or_else(|e| panic!("{text}: {e}"));
            build(&config);
            let Ok(canonical) = registry.canonical_json(&config) else {
                continue;
            };
            assert!(!hostile, "{text} was accepted as {canonical}");
            parse_json(&canonical)
                .unwrap_or_else(|e| panic!("{text}: canonical JSON {canonical} is not JSON: {e}"));
            registry
                .label(&config)
                .expect("a canonical config has a label");
        }
    }
}

#[test]
fn every_registered_scheme_builds_or_fails_typed_under_random_params() {
    // Every scheme and every fault model under hostile parameters: NaN,
    // the infinities, -0.0, 1e300, 2^32, 2^64 and u64::MAX, in both
    // spellings. Builds and admissibility rules return a value or a typed
    // error; nothing panics. Every fault model that builds also draws its
    // maps at two voltages from one stream and streams its grid masks
    // over both.
    let ctx = ctx();
    let grid = [NormVdd(0.55), NormVdd(0.65)];
    killi_check::check_cases("registry_build_fuzz", 256, |g| {
        fuzz_registry(g, default_registry(), |config| {
            let _ = build_scheme(config, &ctx);
            let _ = scheme_admissibility(config);
        });
        fuzz_registry(g, default_fault_registry(), |config| {
            let Ok(model) = build_fault_model(config) else {
                return;
            };
            assert_eq!(model.grid_maps(0..64, &grid, FreqGhz::PEAK, 7).len(), 2);
            model.grid_masks(0..64, &grid, FreqGhz::PEAK, 7, &mut |_, faults| {
                for &GridFault { mask, .. } in faults {
                    assert!(mask != 0 && mask < 1 << grid.len(), "{config}: {mask:#b}");
                }
            });
        });
    });
}

#[test]
fn a_scheme_check_answers_what_its_build_would() {
    // Validation runs each descriptor's check and never builds, so the
    // check must say what the build says: over every geometry a GPU
    // accepts, for every spelling the fuzz draws, the check returns
    // exactly what the descriptor's own build returns on a fault-free map
    // (`Ok`, or the same error). A sweep or job that passed validation
    // therefore never fails to build, or panics, in `run_cell`.
    let geometries: Vec<(CacheGeometry, BuildCtx)> = [1, 4, 16, 64]
        .into_iter()
        .flat_map(|kib| {
            [1, 2, 4, 6, 16, 64].map(|ways| CacheGeometry {
                size_bytes: kib * 1024,
                ways,
                line_bytes: 64,
            })
        })
        .filter(|&l2| {
            GpuConfig {
                l2,
                ..GpuConfig::default()
            }
            .validate()
            .is_ok()
        })
        .map(|l2| {
            (
                l2,
                BuildCtx::new(Arc::new(FaultMap::fault_free(l2.lines())), l2),
            )
        })
        .collect();
    assert!(geometries.len() >= 10, "{} geometries", geometries.len());
    let registry = default_registry();
    killi_check::check_cases("scheme_check_matches_build", 64, |g| {
        fuzz_registry(g, registry, |config| {
            let Ok((descriptor, params)) = registry.lookup(config) else {
                return;
            };
            for (l2, ctx) in &geometries {
                let checked = (descriptor.check)(&params, l2);
                let built = (descriptor.build)(&params, ctx).map(|_| ());
                assert_eq!(checked, built, "{config} on {l2:?}");
                assert_eq!(check_schemes(std::slice::from_ref(config), *l2), checked);
            }
        });
    });
}

/// Every registered scheme's admissibility rule, by scheme name.
fn registered_rules() -> Vec<(&'static str, LineRule)> {
    default_registry()
        .names()
        .into_iter()
        .map(|name| {
            (
                name,
                scheme_admissibility(&SchemeConfig::new(name)).unwrap(),
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

/// Scheme shorthand spellings the contract golden pins: valid configs,
/// malformed text, unknown names and parameters, mistyped values, and
/// configs that parse but cannot be built on a 64 KiB L2.
const SCHEME_SPELLINGS: [&str; 30] = [
    "",
    ":",
    ":ratio=4",
    "killi:ratio",
    "killi:=4",
    "killi:ratio=16,,ecc_ways=8",
    "frobnicate",
    "killi:rato=16",
    "killi:ratio=lots",
    "killi:ratio=2.5",
    "killi:ratio=-1",
    "killi:victim_priority=3",
    "killi:ratio=0",
    "killi:ratio=3",
    "killi:ratio=1024,ecc_ways=8",
    "killi:ecc_sets=3,ecc_ways=4",
    "ms-ecc:t=3",
    "ms-ecc:m=5",
    "ms-ecc:m=16,t=5",
    "baseline",
    "killi",
    " killi : ratio = 16 ",
    "killi:ratio=16.0",
    "killi:ratio=16,ratio=32",
    "killi:ecc_sets=16,ecc_ways=8",
    "killi:victim_priority=false,coordinated_promotion=false",
    "killi-invchk:penalty=9",
    "killi-olsc:ratio=4",
    "flair-online:accesses_per_pair=8",
    "ms-ecc:m=16,t=2",
];

/// Scheme JSON spellings: objects the registry accepts and rejects.
const SCHEME_JSON: [&str; 8] = [
    r#"{"name": "killi", "params": {"ratio": 16, "ecc_ways": 8}}"#,
    r#"{"name": "killi", "params": null}"#,
    r#"{"name": "killi", "params": {"ratio": 16.0}}"#,
    r#"{"params": {}}"#,
    r#"{"name": 7}"#,
    r#"{"name": "killi", "params": [1]}"#,
    r#"{"name": "killi", "params": {"ratio": [16]}}"#,
    "not json",
];

/// The shapes `SchemeConfig::list_from_json` accepts and rejects.
const SCHEME_LISTS: [&str; 7] = [
    r#"[{"name": "killi", "params": {"ratio": 16}}, {"name": "baseline"}]"#,
    r#"{"schemes": [{"name": "dected"}]}"#,
    "[]",
    r#"{"name": "killi"}"#,
    r#"{"schemes": 3}"#,
    r#"[{"name": "killi"}"#,
    r#"[{"name": "killi"}, 7]"#,
];

/// Fault-model shorthand spellings the contract golden pins.
const FAULT_MODEL_SPELLINGS: [&str; 29] = [
    "",
    ":",
    "clustered:rows",
    "clustered:=4",
    "gaussian",
    "clustered:bogus=1",
    "clustered:rows=abc",
    "clustered:corr=true",
    "clustered:rows=0",
    "clustered:col_cells=0",
    "clustered:corr=1.5",
    "clustered:corr=0.9,col_corr=0.9",
    "clustered:corr=0.6,col_corr=0.8",
    "transient:mode=gamma",
    "transient:rate=2",
    "transient:mode=burst,burst_len=0",
    "table:anchors=",
    "table:anchors=0.5@-0.3",
    "table:anchors=0.6@-4;0.5@-0.3",
    "table:anchors=0.5-0.3;0.6@-4",
    "table:anchors=x@-1;0.6@-4",
    "table:anchors=0.5@y;0.6@-4",
    "table:sigma=-1",
    "stuck-at",
    "clustered:rows=8,corr=0.5",
    "clustered:col_cells=32,col_corr=0.3",
    "transient:mode=burst,rate=0.5,burst_len=6",
    "transient:mode=msb,rate=0.001",
    "table:anchors=0.5@-0.3;0.6@-4.19;0.7@-9.5,sigma=1",
];

/// Fault-model JSON spellings.
const FAULT_MODEL_JSON: [&str; 6] = [
    r#"{"name": "clustered", "params": {"corr": 0.5, "rows": 8}}"#,
    r#"{"name": "table", "params": {"sigma": 1.5}}"#,
    r#"{"params": {}}"#,
    r#"{"name": "transient", "params": "burst"}"#,
    r#"{"name": "transient", "params": {"mode": {"burst": 1}}}"#,
    "[1, 2",
];

/// `Ok` values through `ok`, errors through their `Display`.
fn outcome<T, E: Display>(result: Result<T, E>, ok: impl FnOnce(T) -> String) -> String {
    match result {
        Ok(value) => ok(value),
        Err(e) => format!("error: {e}"),
    }
}

/// One registry's spellings: for each, the parse result, then the label,
/// canonical JSON and `build` result of what parsed.
fn render_spellings<D: Descriptor>(
    out: &mut String,
    registry: &Registry<D>,
    noun: &str,
    (shorthand, json): (&[&str], &[&str]),
    build: impl Fn(&Config<D::Kind>) -> String,
) {
    let shorthand = shorthand
        .iter()
        .map(|s| (format!("{s:?}"), Config::parse(s)));
    let json = json
        .iter()
        .map(|j| (format!("json {j}"), Config::from_json(j)));
    for (input, parsed) in shorthand.chain(json) {
        out.push_str(&format!("{noun} {input}\n"));
        match parsed {
            Err(e) => out.push_str(&format!("  parse: error: {e}\n")),
            Ok(config) => out.push_str(&format!(
                "  parse: {config} {}\n  label: {}\n  canonical: {}\n  build: {}\n",
                config.to_json(),
                outcome(registry.label(&config), |l| l),
                outcome(registry.canonical_json(&config), |j| j),
                build(&config),
            )),
        }
    }
}

/// Every registered default's canonical JSON and declared parameters.
fn render_defaults<D: Descriptor>(out: &mut String, registry: &Registry<D>, noun: &str) {
    for d in registry.descriptors() {
        let canonical = registry.canonical_json(&Config::new(d.name()));
        let canonical = outcome(canonical, |j| j);
        out.push_str(&format!("default {noun} {}: {canonical}\n", d.name()));
        for p in d.params() {
            out.push_str(&format!("  param {} = {} ({})\n", p.name, p.default, p.doc));
        }
    }
}

/// The registry contract: for every pinned spelling of both registries,
/// the parse result, label, canonical JSON and build result, then each
/// registered default's canonical JSON and every declared parameter.
fn registry_contract() -> String {
    let (schemes, models) = (default_registry(), default_fault_registry());
    let mut out = String::new();
    render_spellings(
        &mut out,
        schemes,
        "scheme",
        (&SCHEME_SPELLINGS, &SCHEME_JSON),
        |config| outcome(build_scheme(config, &ctx()), |s| format!("ok {}", s.name())),
    );
    for input in SCHEME_LISTS {
        let list = SchemeConfig::list_from_json(input, "schemes");
        let list = outcome(list, |configs| {
            let names: Vec<String> = configs.iter().map(ToString::to_string).collect();
            format!("ok [{}]", names.join(" "))
        });
        out.push_str(&format!("scheme list {input}\n  list: {list}\n"));
    }
    render_spellings(
        &mut out,
        models,
        "fault model",
        (&FAULT_MODEL_SPELLINGS, &FAULT_MODEL_JSON),
        |config| {
            outcome(build_fault_model(config), |m| {
                format!("ok nested={}", m.voltage_nested())
            })
        },
    );
    render_defaults(&mut out, schemes, "scheme");
    render_defaults(&mut out, models, "fault model");
    out
}

#[test]
fn registry_contract_matches_golden_bytes() {
    common::check_or_bless("registry_contract.txt", &registry_contract());
}
