//! Typed parameter values shared by the data-driven registries.
//!
//! Both the protection-scheme registry (`killi::registry`) and the
//! fault-model registry (`killi_fault::model`) describe their knobs as
//! named, typed parameters with defaults, spellable three ways: CLI
//! shorthand (`key=value`), JSON objects, and programmatic construction.
//! [`ParamValue`] is the one value type behind all of them, and
//! [`crate::registry`] the one mechanism that resolves them; both live
//! here because `killi-obs` is the dependency-free root of the crate
//! graph, below both registries.

use std::fmt;

use crate::json::{escape as escape_json, JsonValue};

/// A typed registry parameter value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Unsigned integer (counts, ratios, latencies).
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Boolean switch.
    Bool(bool),
    /// Free-form string.
    Str(String),
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::F64(v) => write!(f, "{v:?}"),
            ParamValue::Bool(v) => write!(f, "{v}"),
            ParamValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl ParamValue {
    /// JSON spelling of the value.
    pub fn to_json(&self) -> String {
        match self {
            ParamValue::Str(s) => format!("\"{}\"", escape_json(s)),
            other => other.to_string(),
        }
    }

    /// A value from its CLI spelling: `true`/`false`, integer, float, else
    /// a bare string.
    pub fn parse(text: &str) -> ParamValue {
        if text == "true" {
            ParamValue::Bool(true)
        } else if text == "false" {
            ParamValue::Bool(false)
        } else if let Ok(v) = text.parse::<u64>() {
            ParamValue::U64(v)
        } else if let Ok(v) = text.parse::<f64>() {
            ParamValue::F64(v)
        } else {
            ParamValue::Str(text.to_string())
        }
    }

    /// A value from its JSON spelling (integral numbers in `[0, 2^64)`
    /// become [`ParamValue::U64`]).
    pub fn from_json(v: &JsonValue) -> Option<ParamValue> {
        match v {
            JsonValue::Bool(b) => Some(ParamValue::Bool(*b)),
            JsonValue::Num(n) => Some(match as_u64(*n) {
                Some(u) => ParamValue::U64(u),
                None => ParamValue::F64(*n),
            }),
            JsonValue::Str(s) => Some(ParamValue::Str(s.clone())),
            _ => None,
        }
    }

    /// Human name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            ParamValue::U64(_) => "an unsigned integer",
            ParamValue::F64(_) => "a number",
            ParamValue::Bool(_) => "a boolean",
            ParamValue::Str(_) => "a string",
        }
    }

    /// Coerces this value to the type of `default`, when sensible:
    /// integral floats in `[0, 2^64)` narrow to integers, integers widen
    /// to floats, and everything else must match exactly. NaN and the
    /// infinities coerce to nothing.
    pub fn coerce_to(&self, default: &ParamValue) -> Option<ParamValue> {
        match (self, default) {
            (ParamValue::U64(v), ParamValue::U64(_)) => Some(ParamValue::U64(*v)),
            (ParamValue::F64(v), ParamValue::U64(_)) => as_u64(*v).map(ParamValue::U64),
            (ParamValue::F64(v), ParamValue::F64(_)) if v.is_finite() => Some(ParamValue::F64(*v)),
            (ParamValue::U64(v), ParamValue::F64(_)) => Some(ParamValue::F64(*v as f64)),
            (ParamValue::Bool(v), ParamValue::Bool(_)) => Some(ParamValue::Bool(*v)),
            (ParamValue::Str(v), ParamValue::Str(_)) => Some(ParamValue::Str(v.clone())),
            _ => None,
        }
    }
}

/// `v` as an integer when it is one: integral and in `[0, 2^64)`. NaN
/// and the infinities fail the range or the `fract` test.
fn as_u64(v: f64) -> Option<u64> {
    // 2^64 is exactly representable, and every float below it fits.
    let in_range = (0.0..18_446_744_073_709_551_616.0).contains(&v);
    (in_range && v.fract() == 0.0).then_some(v as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn cli_spellings_infer_types() {
        assert_eq!(ParamValue::parse("true"), ParamValue::Bool(true));
        assert_eq!(ParamValue::parse("16"), ParamValue::U64(16));
        assert_eq!(ParamValue::parse("0.8"), ParamValue::F64(0.8));
        assert_eq!(ParamValue::parse("fft"), ParamValue::Str("fft".to_string()));
    }

    #[test]
    fn json_round_trips() {
        for v in [
            ParamValue::U64(4),
            ParamValue::F64(0.5),
            ParamValue::Bool(false),
            ParamValue::Str("a b".to_string()),
        ] {
            let parsed = parse(&v.to_json()).unwrap();
            assert_eq!(ParamValue::from_json(&parsed), Some(v));
        }
    }

    #[test]
    fn coercion_narrows_and_widens_numbers() {
        let u = ParamValue::U64(0);
        let f = ParamValue::F64(0.0);
        assert_eq!(ParamValue::F64(3.0).coerce_to(&u), Some(ParamValue::U64(3)));
        assert_eq!(ParamValue::F64(3.5).coerce_to(&u), None);
        assert_eq!(ParamValue::U64(3).coerce_to(&f), Some(ParamValue::F64(3.0)));
        assert_eq!(ParamValue::Bool(true).coerce_to(&u), None);
    }

    #[test]
    fn coercion_rejects_non_finite_and_out_of_range_floats() {
        let u = ParamValue::U64(0);
        let f = ParamValue::F64(0.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(ParamValue::F64(bad).coerce_to(&f), None, "{bad}");
            assert_eq!(ParamValue::F64(bad).coerce_to(&u), None, "{bad}");
        }
        // 2^64 and beyond would saturate to u64::MAX; 2^64 - 2048 is the
        // largest float below it.
        assert_eq!(
            ParamValue::F64(18_446_744_073_709_551_616.0).coerce_to(&u),
            None
        );
        assert_eq!(ParamValue::F64(1e30).coerce_to(&u), None);
        let below = 18_446_744_073_709_549_568.0;
        assert_eq!(
            ParamValue::F64(below).coerce_to(&u),
            Some(ParamValue::U64(18_446_744_073_709_549_568))
        );
        assert_eq!(
            ParamValue::F64(-0.0).coerce_to(&u),
            Some(ParamValue::U64(0))
        );
        // JSON numbers at 2^64 stay floats instead of saturating.
        let two_64 = parse("18446744073709551616").unwrap();
        assert!(matches!(
            ParamValue::from_json(&two_64),
            Some(ParamValue::F64(_))
        ));
    }
}
