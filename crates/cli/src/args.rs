//! Minimal flag parsing for the CLI (the workspace is fully
//! dependency-free, so there is no clap to lean on).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` flags.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// The first positional argument.
    pub command: Option<String>,
    flags: HashMap<String, String>,
}

/// A flag-parsing error, named by failure mode so subcommands and tests
/// can match on what went wrong instead of string-matching messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--flag` appeared with no value after it.
    MissingValue { flag: String },
    /// A required flag was not given.
    MissingFlag { flag: String, hint: &'static str },
    /// A flag's value did not parse; `expected` describes the legal form.
    InvalidValue {
        flag: String,
        value: String,
        expected: String,
    },
    /// A positional argument after the subcommand.
    UnexpectedPositional { arg: String },
    /// A flag the command does not read; `accepted` lists the flags it
    /// does, so a typo fails instead of silently running the default.
    UnknownFlag {
        command: String,
        flag: String,
        accepted: Vec<String>,
    },
    /// An unrecognized subcommand; `known` is the full dispatch table
    /// so the message always lists every real command.
    UnknownCommand { command: String, known: Vec<String> },
    /// An unrecognized `repro --only` id; `known` is the full experiment
    /// table.
    UnknownExperiment { id: String, known: Vec<String> },
    /// An I/O failure while executing a subcommand.
    Io { message: String },
}

impl ArgError {
    /// Whether the command line itself is at fault (a flag, value,
    /// argument, command or experiment id), so the usage text helps:
    /// every kind but [`ArgError::Io`], a failure while the command ran.
    pub fn is_usage(&self) -> bool {
        !matches!(self, ArgError::Io { .. })
    }

    /// Convenience constructor for [`ArgError::InvalidValue`].
    pub fn invalid(flag: &str, value: &str, expected: impl Into<String>) -> Self {
        ArgError::InvalidValue {
            flag: flag.to_string(),
            value: value.to_string(),
            expected: expected.into(),
        }
    }
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingValue { flag } => write!(f, "--{flag} needs a value"),
            ArgError::MissingFlag { flag, hint } => write!(f, "{hint} needs --{flag}"),
            ArgError::InvalidValue {
                flag,
                value,
                expected,
            } => write!(f, "--{flag}: '{value}' is not {expected}"),
            ArgError::UnexpectedPositional { arg } => write!(f, "unexpected argument '{arg}'"),
            ArgError::UnknownFlag {
                command,
                flag,
                accepted,
            } => write!(
                f,
                "unknown flag --{flag} for '{command}' (flags: --{})",
                accepted.join(", --")
            ),
            ArgError::UnknownCommand { command, known } => write!(
                f,
                "unknown command '{command}' (commands: {})",
                known.join(", ")
            ),
            ArgError::UnknownExperiment { id, known } => write!(
                f,
                "unknown experiment '{id}' (experiments: {})",
                known.join(", ")
            ),
            ArgError::Io { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl From<std::io::Error> for ArgError {
    fn from(e: std::io::Error) -> Self {
        ArgError::Io {
            message: e.to_string(),
        }
    }
}

/// Flags that take no value: their presence is the value
/// (`--build-check`, `--help`, `--wait`).
const BOOLEAN_FLAGS: [&str; 3] = ["build-check", "help", "wait"];

impl Args {
    /// Parses an iterator of arguments (exclusive of the binary name).
    ///
    /// # Errors
    ///
    /// Returns an error for a flag without a value or a stray positional
    /// after the command.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut out = Args::default();
        let mut iter = args.into_iter();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&name) {
                    out.flags.insert(name.to_string(), "true".to_string());
                    continue;
                }
                let value = iter.next().ok_or_else(|| ArgError::MissingValue {
                    flag: name.to_string(),
                })?;
                out.flags.insert(name.to_string(), value);
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                return Err(ArgError::UnexpectedPositional { arg: a });
            }
        }
        Ok(out)
    }

    /// Checks that `command` reads every flag given; `accepted` lists the
    /// flags it reads, separated by spaces.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownFlag`] for the first unknown flag in
    /// name order.
    pub fn check_flags(&self, command: &str, accepted: &str) -> Result<(), ArgError> {
        let accepted: Vec<String> = accepted.split_whitespace().map(String::from).collect();
        match self.flags.keys().filter(|f| !accepted.contains(f)).min() {
            None => Ok(()),
            Some(flag) => Err(ArgError::UnknownFlag {
                command: command.to_string(),
                flag: flag.clone(),
                accepted,
            }),
        }
    }

    /// Reads a flag, falling back to `default`.
    pub fn get_or(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Reads a required flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingFlag`] when the flag is absent.
    pub fn require(&self, name: &str, hint: &'static str) -> Result<String, ArgError> {
        self.flags
            .get(name)
            .cloned()
            .ok_or_else(|| ArgError::MissingFlag {
                flag: name.to_string(),
                hint,
            })
    }

    /// Reads and parses a numeric flag.
    ///
    /// # Errors
    ///
    /// Returns an error when the value does not parse as `T`.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError::invalid(name, v, "a valid number")),
        }
    }

    /// Reads and parses an unsigned 64-bit flag (seeds, counts).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::InvalidValue`] on a malformed value.
    pub fn flag_u64(&self, name: &str, default: u64) -> Result<u64, ArgError> {
        self.get_num(name, default)
    }

    /// Reads and parses a floating-point flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::InvalidValue`] on a malformed value.
    pub fn flag_f64(&self, name: &str, default: f64) -> Result<f64, ArgError> {
        self.get_num(name, default)
    }

    /// Parses a comma-separated list of floats (`--vdds 0.65,0.625,0.6`),
    /// falling back to `defaults` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::InvalidValue`] on a malformed element or an
    /// empty list.
    pub fn flag_f64_list(&self, name: &str, defaults: &str) -> Result<Vec<f64>, ArgError> {
        self.flag_list(name, defaults, |s| {
            s.parse::<f64>()
                .map_err(|_| ArgError::invalid(name, s, "a number"))
        })
    }

    /// Reads a flag and parses it with `T`'s [`std::str::FromStr`]
    /// (workloads, codes, schemes), falling back to `default` when the
    /// flag is absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::InvalidValue`] carrying the parse error's
    /// message as the expectation.
    pub fn flag_enum<T>(&self, name: &str, default: &str) -> Result<T, ArgError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let raw = self.get_or(name, default);
        raw.parse()
            .map_err(|e: T::Err| ArgError::invalid(name, &raw, e.to_string()))
    }

    /// Parses a comma-separated flag value element-wise through `parse`,
    /// or `defaults` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Propagates element errors; an empty list is
    /// [`ArgError::InvalidValue`].
    pub fn flag_list<T>(
        &self,
        name: &str,
        defaults: &str,
        parse: impl Fn(&str) -> Result<T, ArgError>,
    ) -> Result<Vec<T>, ArgError> {
        let raw = self.get_or(name, defaults);
        let items: Result<Vec<T>, ArgError> = raw
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(parse)
            .collect();
        let items = items?;
        if items.is_empty() {
            return Err(ArgError::invalid(name, &raw, "at least one value"));
        }
        Ok(items)
    }

    /// True when the flag is present (any value).
    #[allow(dead_code)] // part of the flag-parsing API; used by tests
    pub fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<Args, ArgError> {
        Args::parse(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["simulate", "--vdd", "0.6", "--ops", "1000"]).unwrap();
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.get_or("vdd", "0.625"), "0.6");
        assert_eq!(a.get_num::<usize>("ops", 0).unwrap(), 1000);
        assert_eq!(a.flag_u64("seed", 42).unwrap(), 42);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert_eq!(
            parse(&["x", "--vdd"]),
            Err(ArgError::MissingValue {
                flag: "vdd".to_string()
            })
        );
    }

    #[test]
    fn stray_positional_is_an_error() {
        assert_eq!(
            parse(&["a", "b"]),
            Err(ArgError::UnexpectedPositional {
                arg: "b".to_string()
            })
        );
    }

    #[test]
    fn bad_number_is_a_named_error() {
        let a = parse(&["x", "--ops", "many"]).unwrap();
        match a.get_num::<usize>("ops", 0) {
            Err(ArgError::InvalidValue { flag, value, .. }) => {
                assert_eq!(flag, "ops");
                assert_eq!(value, "many");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn f64_list_parses_and_rejects() {
        let a = parse(&["x", "--vdds", "0.65, 0.6"]).unwrap();
        assert_eq!(a.flag_f64_list("vdds", "0.7").unwrap(), vec![0.65, 0.6]);
        assert_eq!(a.flag_f64_list("other", "0.7").unwrap(), vec![0.7]);
        let bad = parse(&["x", "--vdds", "0.65,volts"]).unwrap();
        assert!(matches!(
            bad.flag_f64_list("vdds", "0.7"),
            Err(ArgError::InvalidValue { .. })
        ));
        let empty = parse(&["x", "--vdds", " , "]).unwrap();
        assert!(matches!(
            empty.flag_f64_list("vdds", "0.7"),
            Err(ArgError::InvalidValue { .. })
        ));
    }

    #[test]
    fn flag_enum_parses_via_fromstr() {
        let a = parse(&["x", "--workload", "hacc"]).unwrap();
        let w: killi_workloads::Workload = a.flag_enum("workload", "fft").unwrap();
        assert_eq!(w, killi_workloads::Workload::Hacc);
        let d: killi_workloads::Workload = a.flag_enum("other", "fft").unwrap();
        assert_eq!(d, killi_workloads::Workload::Fft);
        let bad = parse(&["x", "--workload", "doom"]).unwrap();
        match bad.flag_enum::<killi_workloads::Workload>("workload", "fft") {
            Err(ArgError::InvalidValue {
                value, expected, ..
            }) => {
                assert_eq!(value, "doom");
                assert!(expected.contains("choose from"), "{expected}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn require_names_the_missing_flag() {
        let a = parse(&["record"]).unwrap();
        assert_eq!(
            a.require("out", "record"),
            Err(ArgError::MissingFlag {
                flag: "out".to_string(),
                hint: "record"
            })
        );
    }

    #[test]
    fn has_detects_presence() {
        let a = parse(&["x", "--verbose", "1"]).unwrap();
        assert!(a.has("verbose"));
        assert!(!a.has("quiet"));
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let schemes = parse(&["schemes", "--build-check", "--out", "x.json"]).unwrap();
        assert!(schemes.has("build-check"));
        assert_eq!(schemes.get_or("out", ""), "x.json");
        let trailing = parse(&["schemes", "--build-check"]).unwrap();
        assert!(trailing.has("build-check"));
        let help = parse(&["serve", "--help"]).unwrap();
        assert!(help.has("help"));
        let wait = parse(&["submit", "--wait", "--file", "j.json"]).unwrap();
        assert!(wait.has("wait"));
        assert_eq!(wait.get_or("file", ""), "j.json");
    }

    #[test]
    fn unknown_command_lists_every_known_command() {
        let e = ArgError::UnknownCommand {
            command: "swep".to_string(),
            known: vec!["sweep".to_string(), "serve".to_string()],
        };
        let text = e.to_string();
        assert!(text.contains("'swep'"), "{text}");
        assert!(text.contains("sweep, serve"), "{text}");
    }
}
