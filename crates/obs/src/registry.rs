//! The one registry mechanism behind protection schemes and fault models.
//!
//! Both registries name what they build through declarative configs: a
//! registered name plus typed parameter overrides, resolved against a
//! descriptor that declares the parameters and their defaults. This
//! module holds that machinery once, generic over what is registered:
//!
//! - [`Config`] — a name plus overrides, with three interchangeable
//!   spellings: CLI shorthand (`killi:ratio=16,ecc_ways=8`, see
//!   [`Config::parse`]), JSON (`{"name": "killi", "params": {"ratio":
//!   16}}` or the shorthand as a JSON string, see [`Config::from_json`])
//!   and [`Config::new`] + [`Config::with`];
//! - [`BuildError`] — every failure mode as a typed error, never a panic;
//! - [`ParamSpec`] and [`ResolvedParams`] — declared parameters, and the
//!   values of one config after defaulting and type coercion;
//! - [`Registry`] over a [`Descriptor`] — resolution, labels, builds and
//!   the canonical spelling that content-addressed caches key on.
//!
//! A [`Kind`] marks which registry a config or error belongs to, so a
//! scheme config cannot be resolved against the fault-model registry,
//! and supplies the nouns the messages use.

use std::convert::Infallible;
use std::fmt;
use std::marker::PhantomData;

use crate::json::{escape as escape_json, parse as parse_json, JsonValue};
use crate::params::ParamValue;

/// What a registry registers; supplies the nouns of its messages.
pub trait Kind: fmt::Debug + Clone + PartialEq {
    /// The noun an entry goes by (`scheme`, `fault model`).
    const NOUN: &'static str;
    /// The noun as a modifier in parse messages (`empty fault-model
    /// name`).
    const MODIFIER: &'static str;
    /// What a build failure puts before the entry's name: schemes say
    /// "cannot build `killi`", fault models "cannot build fault model
    /// `table`".
    const BUILD_PREFIX: &'static str;
}

/// A [`Kind`] whose configs default to one registered name.
pub trait DefaultName: Kind {
    /// The name [`Config::default`] selects.
    const DEFAULT_NAME: &'static str;
}

/// A declarative instantiation: a registered name plus parameter
/// overrides (unset parameters take the descriptor's defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct Config<K> {
    /// Registered name.
    pub name: String,
    /// Parameter overrides, in the order they were given.
    pub params: Vec<(String, ParamValue)>,
    kind: PhantomData<K>,
}

impl<K: DefaultName> Default for Config<K> {
    /// The kind's default entry with no overrides.
    fn default() -> Self {
        Config::new(K::DEFAULT_NAME)
    }
}

impl<K: Kind> Config<K> {
    /// A config with no overrides.
    pub fn new(name: &str) -> Self {
        Config {
            name: name.to_string(),
            params: Vec::new(),
            kind: PhantomData,
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

    /// Parses the CLI shorthand `name` or `name:key=value,key=value`.
    pub fn parse(input: &str) -> Result<Self, BuildError<K>> {
        let input = input.trim();
        let err = |reason: String| BuildError::Parse {
            input: input.to_string(),
            reason,
        };
        let (name, rest) = match input.split_once(':') {
            Some((name, rest)) => (name.trim(), Some(rest)),
            None => (input, None),
        };
        if name.is_empty() {
            return Err(err(format!("empty {} name", K::MODIFIER)));
        }
        let mut config = Config::new(name);
        for pair in rest.into_iter().flat_map(|rest| rest.split(',')) {
            let Some((key, value)) = pair.split_once('=') else {
                return Err(err(format!("parameter `{pair}` is not key=value")));
            };
            let key = key.trim();
            if key.is_empty() {
                return Err(err("empty parameter name".to_string()));
            }
            config = config.with(key, ParamValue::parse(value.trim()));
        }
        Ok(config)
    }

    /// Parses a comma-separated list of CLI shorthands. A segment opens a
    /// new config when it has no `=` or when a `:` precedes its first `=`
    /// (so `killi:ratio=16,ecc_ways=8,dected` is two configs).
    pub fn parse_list(input: &str) -> Result<Vec<Self>, BuildError<K>> {
        let mut specs: Vec<String> = Vec::new();
        for segment in input.split(',') {
            let starts_config = match (segment.find('='), segment.find(':')) {
                (None, _) => true,
                (Some(eq), Some(colon)) => colon < eq,
                (Some(_), None) => false,
            };
            match specs.last_mut() {
                Some(last) if !starts_config => {
                    last.push(',');
                    last.push_str(segment);
                }
                _ => specs.push(segment.to_string()),
            }
        }
        specs.iter().map(|s| Self::parse(s)).collect()
    }

    /// Serializes as a JSON object: `{"name": ..., "params": {...}}`.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"name\": \"{}\"", escape_json(&self.name));
        if !self.params.is_empty() {
            let params: Vec<String> = self
                .params
                .iter()
                .map(|(key, value)| format!("\"{}\": {}", escape_json(key), value.to_json()))
                .collect();
            out.push_str(&format!(", \"params\": {{{}}}", params.join(", ")));
        }
        out.push('}');
        out
    }

    /// A config from a parsed JSON value: a shorthand string (see
    /// [`Config::parse`]) or a `{"name": ..., "params": {...}}` object.
    /// Every JSON input (lists, service jobs) parses configs through it.
    pub fn from_json_value(v: &JsonValue) -> Result<Self, BuildError<K>> {
        if let JsonValue::Str(shorthand) = v {
            return Self::parse(shorthand);
        }
        let Some(name) = v.get("name").and_then(JsonValue::as_str) else {
            let reason = format!("{} object needs a string `name`", K::MODIFIER);
            return Err(BuildError::json(reason));
        };
        let mut config = Config::new(name);
        match v.get("params") {
            None | Some(JsonValue::Null) => {}
            Some(JsonValue::Object(entries)) => {
                for (key, value) in entries {
                    let Some(value) = ParamValue::from_json(value) else {
                        return Err(BuildError::json(format!(
                            "parameter `{key}` must be a number, bool or string"
                        )));
                    };
                    config = config.with(key, value);
                }
            }
            Some(_) => return Err(BuildError::json("`params` must be an object")),
        }
        Ok(config)
    }

    /// A config from JSON text.
    pub fn from_json(text: &str) -> Result<Self, BuildError<K>> {
        let v = parse_json(text).map_err(|e| BuildError::json(e.to_string()))?;
        Self::from_json_value(&v)
    }

    /// A list of configs from JSON text: either a bare array of configs
    /// (each a shorthand string or an object, see
    /// [`Config::from_json_value`]) or an object holding that array under
    /// `key` (`{"schemes": [...]}`).
    pub fn list_from_json(text: &str, key: &str) -> Result<Vec<Self>, BuildError<K>> {
        let v = parse_json(text).map_err(|e| BuildError::json(e.to_string()))?;
        let items = v
            .as_array()
            .or_else(|| v.get(key).and_then(JsonValue::as_array))
            .ok_or_else(|| {
                let noun = K::NOUN;
                BuildError::json(format!("expected a {noun} array or {{\"{key}\": [...]}}"))
            })?;
        items.iter().map(Self::from_json_value).collect()
    }
}

impl<K> fmt::Display for Config<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)?;
        for (i, (key, value)) in self.params.iter().enumerate() {
            write!(f, "{}{key}={value}", if i == 0 { ":" } else { "," })?;
        }
        Ok(())
    }
}

/// Why a [`Config`] could not be parsed, resolved or built.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError<K> {
    /// The config text (CLI shorthand or JSON) did not parse.
    Parse {
        /// The offending input (`<json>` for JSON text).
        input: String,
        /// What went wrong.
        reason: String,
    },
    /// No descriptor registered under this name.
    Unknown {
        /// The unregistered name.
        name: String,
    },
    /// The descriptor declares no such parameter.
    UnknownParam {
        /// Registered name.
        name: String,
        /// The unrecognized parameter.
        param: String,
    },
    /// A parameter had the wrong type or an out-of-range value.
    InvalidParam {
        /// Registered name.
        name: String,
        /// Parameter name.
        param: String,
        /// What went wrong.
        reason: String,
    },
    /// The parameters are individually fine but describe something that
    /// cannot be built (an ECC cache smaller than one set, an unreadable
    /// parameter file).
    Build {
        /// Registered name.
        name: String,
        /// What went wrong.
        reason: String,
    },
    /// Two configs of one list share a label, so a report keyed by
    /// label could not tell them apart.
    DuplicateLabel {
        /// The shared label.
        label: String,
        /// The first config's spelling.
        first: String,
        /// The second config's spelling.
        second: String,
    },
    /// Never constructed: carries the kind, so scheme and fault-model
    /// errors are distinct types.
    #[doc(hidden)]
    Never(Infallible, PhantomData<K>),
}

impl<K> BuildError<K> {
    /// A parse error in JSON input.
    fn json(reason: impl Into<String>) -> Self {
        BuildError::Parse {
            input: "<json>".to_string(),
            reason: reason.into(),
        }
    }
}

impl<K: Kind> fmt::Display for BuildError<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let noun = K::NOUN;
        match self {
            BuildError::Parse { input, reason } => {
                write!(f, "cannot parse {noun} `{input}`: {reason}")
            }
            BuildError::Unknown { name } => write!(f, "unknown {noun} `{name}`"),
            BuildError::UnknownParam { name, param } => {
                write!(f, "{noun} `{name}` has no parameter `{param}`")
            }
            BuildError::InvalidParam {
                name,
                param,
                reason,
            } => write!(f, "invalid `{name}` parameter `{param}`: {reason}"),
            BuildError::Build { name, reason } => {
                write!(f, "cannot build {}`{name}`: {reason}", K::BUILD_PREFIX)
            }
            BuildError::DuplicateLabel {
                label,
                first,
                second,
            } => write!(
                f,
                "{noun}s `{first}` and `{second}` share the label `{label}`"
            ),
            BuildError::Never(never, _) => match *never {},
        }
    }
}

impl<K: Kind> std::error::Error for BuildError<K> {}

/// One declared parameter of a descriptor.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Parameter name (the `key` in `key=value`).
    pub name: &'static str,
    /// One-line description for the CLI listings.
    pub doc: &'static str,
    /// Default value (also fixes the expected type).
    pub default: ParamValue,
}

/// Parameters of one config after defaulting and type coercion: every
/// declared parameter, in declaration order.
#[derive(Debug, Clone)]
pub struct ResolvedParams {
    name: &'static str,
    values: Vec<(&'static str, ParamValue)>,
}

impl ResolvedParams {
    /// The registered name these parameters resolve.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn get(&self, key: &str) -> &ParamValue {
        self.values
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("`{}` has no `{key}` parameter", self.name))
    }

    /// Replaces the value of a declared parameter (canonicalization hooks).
    ///
    /// # Panics
    ///
    /// Panics if the parameter is not declared.
    pub fn set(&mut self, key: &str, value: ParamValue) {
        let name = self.name;
        let slot = self
            .values
            .iter_mut()
            .find(|(k, _)| *k == key)
            .unwrap_or_else(|| panic!("`{name}` has no `{key}` parameter"));
        slot.1 = value;
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

/// A registered entry: its name and parameter schema, plus the label,
/// build and canonicalization functions the [`Registry`] calls with the
/// resolved parameters of a config.
pub trait Descriptor {
    /// The kind of config this descriptor resolves.
    type Kind: Kind;
    /// What a build needs besides the parameters.
    type Ctx: ?Sized;
    /// What a build produces.
    type Output;

    /// Registered name (what `--scheme` / `--fault-model` selects).
    fn name(&self) -> &'static str;

    /// Declared parameters with defaults, in declaration order.
    fn params(&self) -> &[ParamSpec];

    /// The report label of resolved parameters.
    fn label(&self, params: &ResolvedParams) -> String;

    /// Builds resolved parameters into a live object.
    fn build(
        &self,
        params: &ResolvedParams,
        ctx: &Self::Ctx,
    ) -> Result<Self::Output, BuildError<Self::Kind>>;

    /// Folds environment-dependent parameters (a parameter *file path*)
    /// into value-equivalent canonical ones (its *contents*), so cache
    /// keys depend on what a config computes, not on where its inputs
    /// live. The default keeps the parameters as they are.
    fn canonicalize(&self, _: &mut ResolvedParams) -> Result<(), BuildError<Self::Kind>> {
        Ok(())
    }
}

/// The ordered collection of registered descriptors.
#[derive(Debug)]
pub struct Registry<D> {
    descriptors: Vec<D>,
}

impl<D> Default for Registry<D> {
    fn default() -> Self {
        Registry {
            descriptors: Vec::new(),
        }
    }
}

impl<D: Descriptor> Registry<D> {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a descriptor.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — registrations are code, not data.
    pub fn register(&mut self, descriptor: D) {
        let (name, noun) = (descriptor.name(), <D::Kind as Kind>::NOUN);
        assert!(
            self.descriptor(name).is_none(),
            "{noun} `{name}` registered twice"
        );
        self.descriptors.push(descriptor);
    }

    /// The descriptor registered under `name`.
    pub fn descriptor(&self, name: &str) -> Option<&D> {
        self.descriptors.iter().find(|d| d.name() == name)
    }

    /// All descriptors, in registration order.
    pub fn descriptors(&self) -> &[D] {
        &self.descriptors
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.descriptors.iter().map(D::name).collect()
    }

    /// The descriptor of a config together with its resolved parameters:
    /// every override must name a declared parameter and coerce to its
    /// default's type (see [`ParamValue::coerce_to`]).
    pub fn lookup(
        &self,
        config: &Config<D::Kind>,
    ) -> Result<(&D, ResolvedParams), BuildError<D::Kind>> {
        let name = &config.name;
        let descriptor = self
            .descriptor(name)
            .ok_or_else(|| BuildError::Unknown { name: name.clone() })?;
        let specs = descriptor.params();
        if let Some((key, _)) = config
            .params
            .iter()
            .find(|(key, _)| !specs.iter().any(|p| p.name == key))
        {
            return Err(BuildError::UnknownParam {
                name: name.clone(),
                param: key.clone(),
            });
        }
        let mut values = Vec::with_capacity(specs.len());
        for spec in specs {
            let value = match config.get(spec.name) {
                None => spec.default.clone(),
                Some(over) => {
                    over.coerce_to(&spec.default)
                        .ok_or_else(|| BuildError::InvalidParam {
                            name: name.clone(),
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
        let name = descriptor.name();
        Ok((descriptor, ResolvedParams { name, values }))
    }

    /// Resolves a config against its descriptor (see [`Self::lookup`]).
    pub fn resolve(&self, config: &Config<D::Kind>) -> Result<ResolvedParams, BuildError<D::Kind>> {
        self.lookup(config).map(|(_, params)| params)
    }

    /// Validates a config without building it.
    pub fn validate(&self, config: &Config<D::Kind>) -> Result<(), BuildError<D::Kind>> {
        self.lookup(config).map(|_| ())
    }

    /// The report label of a config.
    pub fn label(&self, config: &Config<D::Kind>) -> Result<String, BuildError<D::Kind>> {
        let (descriptor, params) = self.lookup(config)?;
        Ok(descriptor.label(&params))
    }

    /// Normalizes a config to its canonical spelling: every declared
    /// parameter spelled explicitly, in declaration order, with values
    /// coerced to the declared type and environment-dependent parameters
    /// folded (see [`Descriptor::canonicalize`]). Any two configs that
    /// resolve to the same entry — CLI shorthand, expanded JSON,
    /// reordered keys, defaults spelled out or omitted — canonicalize to
    /// equal [`Config`]s, which is what content-addressed caching keys
    /// on.
    pub fn canonicalize(
        &self,
        config: &Config<D::Kind>,
    ) -> Result<Config<D::Kind>, BuildError<D::Kind>> {
        let (descriptor, mut params) = self.lookup(config)?;
        descriptor.canonicalize(&mut params)?;
        let mut canonical = Config::new(params.name);
        canonical.params = params
            .values
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect();
        Ok(canonical)
    }

    /// The canonical JSON spelling of a config (see
    /// [`Self::canonicalize`]): equal entries produce byte-identical
    /// JSON, suitable for hashing into a cache key.
    pub fn canonical_json(&self, config: &Config<D::Kind>) -> Result<String, BuildError<D::Kind>> {
        Ok(self.canonicalize(config)?.to_json())
    }

    /// Builds a config into a live object.
    pub fn build(
        &self,
        config: &Config<D::Kind>,
        ctx: &D::Ctx,
    ) -> Result<D::Output, BuildError<D::Kind>> {
        let (descriptor, params) = self.lookup(config)?;
        descriptor.build(&params, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Widget;

    impl Kind for Widget {
        const NOUN: &'static str = "widget";
        const MODIFIER: &'static str = "widget";
        const BUILD_PREFIX: &'static str = "widget ";
    }

    /// A descriptor whose build doubles `size` and fails when it is 0.
    struct Knob(Vec<ParamSpec>);

    impl Descriptor for Knob {
        type Kind = Widget;
        type Ctx = ();
        type Output = u64;

        fn name(&self) -> &'static str {
            "knob"
        }

        fn params(&self) -> &[ParamSpec] {
            &self.0
        }

        fn label(&self, p: &ResolvedParams) -> String {
            format!("knob-{}", p.u64("size"))
        }

        fn build(&self, p: &ResolvedParams, _: &()) -> Result<u64, BuildError<Widget>> {
            match p.u64("size") {
                0 => Err(BuildError::Build {
                    name: "knob".to_string(),
                    reason: "zero".to_string(),
                }),
                n => Ok(n * 2),
            }
        }
    }

    fn registry() -> Registry<Knob> {
        let spec = |name, default| ParamSpec {
            name,
            doc: "",
            default,
        };
        let mut registry = Registry::new();
        registry.register(Knob(vec![
            spec("size", ParamValue::U64(4)),
            spec("scale", ParamValue::F64(0.5)),
            spec("on", ParamValue::Bool(true)),
        ]));
        registry
    }

    type Spelling = Config<Widget>;

    #[test]
    fn shorthand_parses_typed_values_and_displays_back() {
        let config = Spelling::parse(" knob : on = false , size=16 ").unwrap();
        assert_eq!(config.get("on"), Some(&ParamValue::Bool(false)));
        assert_eq!(config.get("size"), Some(&ParamValue::U64(16)));
        assert_eq!(Spelling::parse(&config.to_string()).unwrap(), config);
        assert_eq!(Spelling::from_json(&config.to_json()).unwrap(), config);
        let wrapped = format!("{{\"widgets\": [{}]}}", config.to_json());
        assert_eq!(
            Spelling::list_from_json(&wrapped, "widgets").unwrap(),
            [config]
        );
        let list = Spelling::parse_list("knob:size=2,on=false,knob,knob:scale=1.5").unwrap();
        let spelled: Vec<String> = list.iter().map(ToString::to_string).collect();
        assert_eq!(spelled, ["knob:size=2,on=false", "knob", "knob:scale=1.5"]);
    }

    #[test]
    fn canonical_spelling_lists_every_declared_param_in_order() {
        let registry = registry();
        let canonical = registry
            .canonicalize(&Spelling::parse("knob:on=true,size=8.0").unwrap())
            .unwrap();
        assert_eq!(canonical.to_string(), "knob:size=8,scale=0.5,on=true");
        assert_eq!(registry.canonicalize(&canonical).unwrap(), canonical);
        assert_eq!(registry.label(&canonical).unwrap(), "knob-8");
        assert_eq!(registry.build(&canonical, &()), Ok(16));
    }

    #[test]
    #[should_panic(expected = "widget `knob` registered twice")]
    fn duplicate_registration_panics() {
        registry().register(Knob(Vec::new()));
    }
}
