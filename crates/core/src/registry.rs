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
//! Configs have three interchangeable spellings:
//!
//! - CLI shorthand: `killi:ratio=16,ecc_ways=8` ([`SchemeConfig::parse`])
//! - JSON (via the in-repo `killi-obs` parser):
//!   `{"name": "killi", "params": {"ratio": 16, "ecc_ways": 8}}`
//! - programmatic: [`SchemeConfig::new`] + [`SchemeConfig::with`]
//!
//! All failure modes are typed [`BuildError`]s — unknown schemes, unknown
//! or ill-typed parameters, and geometry that cannot be built (e.g. an ECC
//! cache smaller than one set) — never panics.

use std::fmt;
use std::sync::Arc;

use killi_fault::map::{layout, CellFault, FaultMap};
use killi_obs::{escape_json, parse_json, JsonValue, Sink};
use killi_sim::cache::CacheGeometry;
use killi_sim::protection::{LineProtection, Unprotected};

use crate::scheme::{KilliConfig, KilliScheme};

/// Everything a scheme needs at construction time: the die's fault map,
/// the L2 geometry it protects, and the observability sink to attach.
#[derive(Debug, Clone)]
pub struct BuildCtx {
    /// Fault map of the die at the operating point.
    pub fault_map: Arc<FaultMap>,
    /// Geometry of the protected L2.
    pub geometry: CacheGeometry,
    /// Sink handed to the scheme (and its sub-components).
    pub sink: Sink,
}

impl BuildCtx {
    /// A context with no observability.
    pub fn new(fault_map: Arc<FaultMap>, geometry: CacheGeometry) -> Self {
        BuildCtx {
            fault_map,
            geometry,
            sink: Sink::none(),
        }
    }

    /// Attaches a sink to the context.
    #[must_use]
    pub fn with_sink(mut self, sink: Sink) -> Self {
        self.sink = sink;
        self
    }
}

/// The typed parameter value shared with the fault-model registry; see
/// [`killi_obs::params`].
pub use killi_obs::params::ParamValue;

/// A declarative scheme instantiation: a registered name plus parameter
/// overrides (unset parameters take the descriptor's defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeConfig {
    /// Registered scheme name.
    pub name: String,
    /// Parameter overrides, in declaration order.
    pub params: Vec<(String, ParamValue)>,
}

impl SchemeConfig {
    /// A config with no overrides.
    pub fn new(name: &str) -> Self {
        SchemeConfig {
            name: name.to_string(),
            params: Vec::new(),
        }
    }

    /// Adds (or replaces) a parameter override.
    #[must_use]
    pub fn with(mut self, key: &str, value: ParamValue) -> Self {
        if let Some(slot) = self.params.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.params.push((key.to_string(), value));
        }
        self
    }

    /// The override for `key`, if set.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.params.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Whether this is the unprotected baseline (runs on a fault-free map
    /// in matrix/sweep runs).
    pub fn is_baseline(&self) -> bool {
        self.name == "baseline"
    }

    /// Parses the CLI shorthand `name` or `name:key=value,key=value`.
    pub fn parse(input: &str) -> Result<Self, BuildError> {
        let input = input.trim();
        let (name, rest) = match input.split_once(':') {
            Some((name, rest)) => (name.trim(), Some(rest)),
            None => (input, None),
        };
        if name.is_empty() {
            return Err(BuildError::Parse {
                input: input.to_string(),
                reason: "empty scheme name".to_string(),
            });
        }
        let mut config = SchemeConfig::new(name);
        if let Some(rest) = rest {
            for pair in rest.split(',') {
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(BuildError::Parse {
                        input: input.to_string(),
                        reason: format!("parameter `{pair}` is not key=value"),
                    });
                };
                let key = key.trim();
                if key.is_empty() {
                    return Err(BuildError::Parse {
                        input: input.to_string(),
                        reason: "empty parameter name".to_string(),
                    });
                }
                config = config.with(key, ParamValue::parse(value.trim()));
            }
        }
        Ok(config)
    }

    /// Parses a comma-separated list of CLI shorthands. A segment opens a
    /// new scheme when it has no `=` or when a `:` precedes its first `=`
    /// (so `killi:ratio=16,ecc_ways=8,dected` is two schemes).
    pub fn parse_list(input: &str) -> Result<Vec<Self>, BuildError> {
        let mut specs: Vec<String> = Vec::new();
        for segment in input.split(',') {
            let starts_scheme = match (segment.find('='), segment.find(':')) {
                (None, _) => true,
                (Some(eq), Some(colon)) => colon < eq,
                (Some(_), None) => false,
            };
            match specs.last_mut() {
                Some(last) if !starts_scheme => {
                    last.push(',');
                    last.push_str(segment);
                }
                _ => specs.push(segment.to_string()),
            }
        }
        specs.iter().map(|s| SchemeConfig::parse(s)).collect()
    }

    /// Serializes as a JSON object: `{"name": ..., "params": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"name\": \"{}\"", escape_json(&self.name));
        if !self.params.is_empty() {
            out.push_str(", \"params\": {");
            for (i, (key, value)) in self.params.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("\"{}\": {}", escape_json(key), value.to_json()));
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// A config from a parsed JSON object.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, BuildError> {
        let parse_err = |reason: &str| BuildError::Parse {
            input: "<json>".to_string(),
            reason: reason.to_string(),
        };
        let Some(name) = v.get("name").and_then(JsonValue::as_str) else {
            return Err(parse_err("scheme object needs a string `name`"));
        };
        let mut config = SchemeConfig::new(name);
        match v.get("params") {
            None | Some(JsonValue::Null) => {}
            Some(JsonValue::Object(entries)) => {
                for (key, value) in entries {
                    let Some(value) = ParamValue::from_json(value) else {
                        return Err(parse_err(&format!(
                            "parameter `{key}` must be a number, bool or string"
                        )));
                    };
                    config = config.with(key, value);
                }
            }
            Some(_) => return Err(parse_err("`params` must be an object")),
        }
        Ok(config)
    }

    /// A config from JSON text.
    pub fn from_json(text: &str) -> Result<Self, BuildError> {
        let v = parse_json(text).map_err(|e| BuildError::Parse {
            input: "<json>".to_string(),
            reason: e.to_string(),
        })?;
        Self::from_json_value(&v)
    }

    /// A scheme list from JSON text: either a bare array of scheme
    /// objects or `{"schemes": [...]}`.
    pub fn list_from_json(text: &str) -> Result<Vec<Self>, BuildError> {
        let v = parse_json(text).map_err(|e| BuildError::Parse {
            input: "<json>".to_string(),
            reason: e.to_string(),
        })?;
        let items = v
            .as_array()
            .or_else(|| v.get("schemes").and_then(JsonValue::as_array))
            .ok_or_else(|| BuildError::Parse {
                input: "<json>".to_string(),
                reason: "expected a scheme array or {\"schemes\": [...]}".to_string(),
            })?;
        items.iter().map(Self::from_json_value).collect()
    }
}

impl fmt::Display for SchemeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (key, value)) in self.params.iter().enumerate() {
            write!(f, "{}{key}={value}", if i == 0 { ":" } else { "," })?;
        }
        Ok(())
    }
}

/// Why a [`SchemeConfig`] could not be resolved or built.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The config text (CLI shorthand or JSON) did not parse.
    Parse {
        /// The offending input.
        input: String,
        /// What went wrong.
        reason: String,
    },
    /// No descriptor registered under this name.
    UnknownScheme {
        /// The unregistered name.
        name: String,
    },
    /// The scheme has no such parameter.
    UnknownParam {
        /// Scheme name.
        scheme: String,
        /// The unrecognized parameter.
        param: String,
    },
    /// A parameter had the wrong type or an out-of-range value.
    InvalidParam {
        /// Scheme name.
        scheme: String,
        /// Parameter name.
        param: String,
        /// What went wrong.
        reason: String,
    },
    /// The parameters are individually fine but describe an unbuildable
    /// configuration (e.g. an ECC cache smaller than one set).
    Geometry {
        /// Scheme name.
        scheme: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Parse { input, reason } => {
                write!(f, "cannot parse scheme `{input}`: {reason}")
            }
            BuildError::UnknownScheme { name } => write!(f, "unknown scheme `{name}`"),
            BuildError::UnknownParam { scheme, param } => {
                write!(f, "scheme `{scheme}` has no parameter `{param}`")
            }
            BuildError::InvalidParam {
                scheme,
                param,
                reason,
            } => write!(f, "invalid `{scheme}` parameter `{param}`: {reason}"),
            BuildError::Geometry { scheme, reason } => {
                write!(f, "cannot build `{scheme}`: {reason}")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// One declared parameter of a scheme.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter name (the `key` in `key=value`).
    pub name: &'static str,
    /// One-line description for `killi schemes`.
    pub doc: &'static str,
    /// Default value (also fixes the expected type).
    pub default: ParamValue,
}

/// Parameters of one config after defaulting and type coercion.
#[derive(Debug, Clone)]
pub struct ResolvedParams {
    scheme: &'static str,
    values: Vec<(&'static str, ParamValue)>,
}

impl ResolvedParams {
    /// The scheme name these parameters resolve.
    pub fn scheme(&self) -> &'static str {
        self.scheme
    }

    fn get(&self, key: &str) -> &ParamValue {
        self.values
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("scheme `{}` has no `{key}` parameter", self.scheme))
    }

    /// An integer parameter (registry-validated to exist and be U64).
    pub fn u64(&self, key: &str) -> u64 {
        match self.get(key) {
            ParamValue::U64(v) => *v,
            other => panic!("parameter `{key}` is not u64: {other:?}"),
        }
    }

    /// A float parameter.
    pub fn f64(&self, key: &str) -> f64 {
        match self.get(key) {
            ParamValue::F64(v) => *v,
            ParamValue::U64(v) => *v as f64,
            other => panic!("parameter `{key}` is not f64: {other:?}"),
        }
    }

    /// A boolean parameter.
    pub fn bool(&self, key: &str) -> bool {
        match self.get(key) {
            ParamValue::Bool(v) => *v,
            other => panic!("parameter `{key}` is not bool: {other:?}"),
        }
    }

    /// A string parameter.
    pub fn str(&self, key: &str) -> &str {
        match self.get(key) {
            ParamValue::Str(v) => v,
            other => panic!("parameter `{key}` is not a string: {other:?}"),
        }
    }
}

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
    /// Builds the scheme (without sink attachment; the registry attaches
    /// the context's sink after a successful build).
    pub build: BuildFn,
    /// The static line-admissibility rule of a resolved config (the
    /// binning predicate the Vmin campaign evaluates per grid voltage).
    pub admissibility: fn(&ResolvedParams) -> LineRule,
}

impl fmt::Debug for SchemeDescriptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchemeDescriptor")
            .field("name", &self.name)
            .field("params", &self.params)
            .finish()
    }
}

/// The ordered collection of registered schemes.
#[derive(Debug, Default)]
pub struct SchemeRegistry {
    schemes: Vec<SchemeDescriptor>,
}

impl SchemeRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        SchemeRegistry::default()
    }

    /// Registers a descriptor.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — registrations are code, not data.
    pub fn register(&mut self, descriptor: SchemeDescriptor) {
        assert!(
            self.descriptor(descriptor.name).is_none(),
            "scheme `{}` registered twice",
            descriptor.name
        );
        self.schemes.push(descriptor);
    }

    /// The descriptor registered under `name`.
    pub fn descriptor(&self, name: &str) -> Option<&SchemeDescriptor> {
        self.schemes.iter().find(|d| d.name == name)
    }

    /// All descriptors, in registration order.
    pub fn descriptors(&self) -> &[SchemeDescriptor] {
        &self.schemes
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.schemes.iter().map(|d| d.name).collect()
    }

    /// Resolves a config against its descriptor: every override must name
    /// a declared parameter and coerce to its default's type.
    pub fn resolve(&self, config: &SchemeConfig) -> Result<ResolvedParams, BuildError> {
        let descriptor =
            self.descriptor(&config.name)
                .ok_or_else(|| BuildError::UnknownScheme {
                    name: config.name.clone(),
                })?;
        for (key, _) in &config.params {
            if !descriptor.params.iter().any(|p| p.name == key) {
                return Err(BuildError::UnknownParam {
                    scheme: config.name.clone(),
                    param: key.clone(),
                });
            }
        }
        let mut values = Vec::with_capacity(descriptor.params.len());
        for spec in &descriptor.params {
            let value = match config.get(spec.name) {
                None => spec.default.clone(),
                Some(over) => {
                    over.coerce_to(&spec.default)
                        .ok_or_else(|| BuildError::InvalidParam {
                            scheme: config.name.clone(),
                            param: spec.name.to_string(),
                            reason: format!(
                                "expected {} (default {}), got `{over}`",
                                spec.default.type_name(),
                                spec.default
                            ),
                        })?
                }
            };
            values.push((spec.name, value));
        }
        Ok(ResolvedParams {
            scheme: descriptor.name,
            values,
        })
    }

    /// Validates a config without building it.
    pub fn validate(&self, config: &SchemeConfig) -> Result<(), BuildError> {
        self.resolve(config).map(|_| ())
    }

    /// The report label of a config.
    pub fn label(&self, config: &SchemeConfig) -> Result<String, BuildError> {
        let resolved = self.resolve(config)?;
        let descriptor = self.descriptor(&config.name).expect("resolved above");
        Ok((descriptor.label)(&resolved))
    }

    /// Normalizes a config to its canonical spelling: every declared
    /// parameter spelled explicitly, in descriptor declaration order,
    /// with values coerced to the declared type. Any two configs that
    /// resolve to the same scheme — CLI shorthand, expanded JSON,
    /// reordered keys, defaults spelled out or omitted — canonicalize
    /// to equal [`SchemeConfig`]s, which is what content-addressed
    /// caching keys on.
    pub fn canonicalize(&self, config: &SchemeConfig) -> Result<SchemeConfig, BuildError> {
        let resolved = self.resolve(config)?;
        Ok(SchemeConfig {
            name: resolved.scheme.to_string(),
            params: resolved
                .values
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        })
    }

    /// The canonical JSON spelling of a config (see
    /// [`SchemeRegistry::canonicalize`]): equal schemes produce
    /// byte-identical JSON, suitable for hashing into a cache key.
    pub fn canonical_json(&self, config: &SchemeConfig) -> Result<String, BuildError> {
        Ok(self.canonicalize(config)?.to_json())
    }

    /// The static line-admissibility rule of a config (see [`LineRule`]).
    pub fn admissibility(&self, config: &SchemeConfig) -> Result<LineRule, BuildError> {
        let resolved = self.resolve(config)?;
        let descriptor = self.descriptor(&config.name).expect("resolved above");
        Ok((descriptor.admissibility)(&resolved))
    }

    /// Builds a config into a live scheme with the context's sink attached.
    pub fn build(
        &self,
        config: &SchemeConfig,
        ctx: &BuildCtx,
    ) -> Result<Box<dyn LineProtection>, BuildError> {
        let resolved = self.resolve(config)?;
        let descriptor = self.descriptor(&config.name).expect("resolved above");
        let mut scheme = (descriptor.build)(&resolved, ctx)?;
        scheme.attach_sink(ctx.sink.clone());
        Ok(scheme)
    }
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
        let entries = sets * ways;
        if entries == 0 || !lines.is_multiple_of(entries) {
            return Err(BuildError::Geometry {
                scheme: p.scheme().to_string(),
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
        return Err(BuildError::Geometry {
            scheme: p.scheme().to_string(),
            reason: "ratio must be positive".to_string(),
        });
    }
    Ok((ratio, ways))
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
    config.check_latency = p.u64("check_latency") as u32;
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
    .map_err(|reason| BuildError::Geometry {
        scheme: p.scheme().to_string(),
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
        name: "baseline",
        doc: "unprotected L2 at nominal voltage (fault-free reference)",
        params: Vec::new(),
        label: |_| "baseline".to_string(),
        build: |_, _| Ok(Box::new(Unprotected::new())),
        admissibility: |_| LineRule::Total {
            span: CellSpan::Data,
            max_faults: 0,
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
        admissibility: |_| KILLI_RULE,
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
        admissibility: |_| KILLI_RULE,
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
        admissibility: |_| KILLI_RULE,
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
        admissibility: |_| KILLI_RULE,
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
        admissibility: |_| LineRule::Total {
            span: CellSpan::DataParity4,
            max_faults: 2,
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
            config.inverted_check_penalty = p.u64("penalty") as u32;
            build_killi_scheme(p, config, ctx)
        },
        admissibility: |_| KILLI_RULE,
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
        admissibility: |_| LineRule::PerBlock {
            block_cells: 64,
            max_faults: 2,
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
    fn parses_shorthand_with_typed_values() {
        let c = SchemeConfig::parse("killi:ratio=16,victim_priority=false").unwrap();
        assert_eq!(c.name, "killi");
        assert_eq!(c.get("ratio"), Some(&ParamValue::U64(16)));
        assert_eq!(c.get("victim_priority"), Some(&ParamValue::Bool(false)));
        assert_eq!(c.to_string(), "killi:ratio=16,victim_priority=false");
    }

    #[test]
    fn parse_list_splits_on_scheme_starts() {
        let list = SchemeConfig::parse_list("killi:ratio=16,ecc_ways=8,dected,flair").unwrap();
        let names: Vec<&str> = list.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["killi", "dected", "flair"]);
        assert_eq!(list[0].get("ecc_ways"), Some(&ParamValue::U64(8)));

        let list = SchemeConfig::parse_list("dected,killi:ratio=32").unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[1].get("ratio"), Some(&ParamValue::U64(32)));
    }

    #[test]
    fn malformed_shorthand_is_a_typed_error() {
        assert!(matches!(
            SchemeConfig::parse("killi:ratio"),
            Err(BuildError::Parse { .. })
        ));
        assert!(matches!(
            SchemeConfig::parse(""),
            Err(BuildError::Parse { .. })
        ));
    }

    #[test]
    fn unknown_scheme_and_param_are_typed_errors() {
        let reg = registry();
        assert_eq!(
            reg.validate(&SchemeConfig::new("frobnicate")),
            Err(BuildError::UnknownScheme {
                name: "frobnicate".to_string()
            })
        );
        let cfg = SchemeConfig::new("killi").with("rato", ParamValue::U64(16));
        assert!(matches!(
            reg.validate(&cfg),
            Err(BuildError::UnknownParam { .. })
        ));
        let cfg = SchemeConfig::new("killi").with("ratio", ParamValue::Str("lots".into()));
        assert!(matches!(
            reg.validate(&cfg),
            Err(BuildError::InvalidParam { .. })
        ));
    }

    #[test]
    fn geometry_errors_are_typed_not_panics() {
        let reg = registry();
        // ways > entries: the ECC cache would be smaller than one set.
        let cfg = SchemeConfig::parse("killi:ratio=1024,ecc_ways=8").unwrap();
        let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Geometry { .. }), "{err}");
        // Explicit sets x ways that do not tile the L2.
        let cfg = SchemeConfig::parse("killi:ecc_sets=3,ecc_ways=4").unwrap();
        let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Geometry { .. }), "{err}");
        // ratio = 0.
        let cfg = SchemeConfig::parse("killi:ratio=0").unwrap();
        let err = reg.build(&cfg, &ctx(1024)).map(|_| ()).unwrap_err();
        assert!(matches!(err, BuildError::Geometry { .. }), "{err}");
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
    fn json_round_trip_preserves_the_config() {
        let cfg = SchemeConfig::parse("killi:ratio=16,ecc_ways=8,victim_priority=false").unwrap();
        let back = SchemeConfig::from_json(&cfg.to_json()).unwrap();
        assert_eq!(back, cfg);

        let list_json = format!(
            "{{\"schemes\": [{}, {}]}}",
            cfg.to_json(),
            SchemeConfig::new("baseline").to_json()
        );
        let list = SchemeConfig::list_from_json(&list_json).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0], cfg);
        assert!(list[1].is_baseline());
    }

    #[test]
    fn canonicalize_unifies_every_spelling() {
        let reg = registry();
        // Shorthand, expanded JSON, reordered keys, and explicit
        // defaults are all the same scheme, so they must canonicalize
        // to byte-identical JSON (the cache-key property).
        let spellings = [
            SchemeConfig::parse("killi:ratio=16").unwrap(),
            SchemeConfig::from_json(r#"{"name": "killi", "params": {"ratio": 16}}"#).unwrap(),
            SchemeConfig::from_json(r#"{"name": "killi", "params": {"ecc_ways": 4, "ratio": 16}}"#)
                .unwrap(),
            SchemeConfig::parse("killi:check_latency=1,ratio=16,victim_priority=true").unwrap(),
            // A float spelling of an integral value coerces to U64.
            SchemeConfig::new("killi").with("ratio", ParamValue::F64(16.0)),
        ];
        let canon = reg.canonical_json(&spellings[0]).unwrap();
        for s in &spellings[1..] {
            assert_eq!(reg.canonical_json(s).unwrap(), canon, "spelling {s}");
        }
        // ...and a different ratio does not collide.
        let other = reg
            .canonical_json(&SchemeConfig::parse("killi:ratio=32").unwrap())
            .unwrap();
        assert_ne!(other, canon);
    }

    #[test]
    fn canonicalize_spells_every_declared_param() {
        let reg = registry();
        let canon = reg
            .canonicalize(&SchemeConfig::parse("killi:ratio=16").unwrap())
            .unwrap();
        let declared = &reg.descriptor("killi").unwrap().params;
        assert_eq!(canon.params.len(), declared.len());
        for (spec, (key, _)) in declared.iter().zip(canon.params.iter()) {
            assert_eq!(spec.name, key, "params must follow descriptor order");
        }
        // Canonicalizing is idempotent.
        assert_eq!(reg.canonicalize(&canon).unwrap(), canon);
    }

    #[test]
    fn canonicalize_rejects_what_resolve_rejects() {
        let reg = registry();
        assert!(matches!(
            reg.canonicalize(&SchemeConfig::new("frobnicate")),
            Err(BuildError::UnknownScheme { .. })
        ));
        assert!(matches!(
            reg.canonicalize(&SchemeConfig::new("killi").with("rato", ParamValue::U64(1))),
            Err(BuildError::UnknownParam { .. })
        ));
    }

    #[test]
    fn admissibility_rules_match_the_scheme_semantics() {
        let reg = registry();
        let rule = |s: &str| reg.admissibility(&SchemeConfig::parse(s).unwrap()).unwrap();
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
            reg.admissibility(&SchemeConfig::new("frobnicate")),
            Err(BuildError::UnknownScheme { .. })
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

    #[test]
    fn malformed_json_is_a_typed_error() {
        assert!(matches!(
            SchemeConfig::from_json("{\"params\": {}}"),
            Err(BuildError::Parse { .. })
        ));
        assert!(matches!(
            SchemeConfig::from_json("{\"name\": \"killi\", \"params\": [1]}"),
            Err(BuildError::Parse { .. })
        ));
        assert!(matches!(
            SchemeConfig::list_from_json("{\"name\": \"killi\"}"),
            Err(BuildError::Parse { .. })
        ));
    }
}
