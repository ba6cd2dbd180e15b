//! The one mechanism behind every counter registry in the workspace.
//!
//! `counter_registry!` turns a single list of `(variant, JSON name)`
//! pairs into a counter enum and a fixed-size array of counts indexed by
//! it. The simulator's [`crate::Counter`], the service's
//! [`crate::ServeCounter`] and the Vmin campaign's [`crate::VminCounter`]
//! are all declared this way, so no registry keeps a parallel name list
//! or a hand-counted length that could drift from its enum.

/// Declares a counter registry: a `Copy` enum with `COUNT`, `NAMES`,
/// `ALL` and `name()`, and a plain-data struct holding one `u64` per
/// counter with `new`, `add`, `set`, `get`, element-wise `merge` and
/// `write_json`.
///
/// ```text
/// counter_registry! {
///     /// Enum docs.
///     pub enum Counter;
///     /// Counts docs.
///     pub struct Counts;
///     Corrections => "corrections",
///     Detections => "detections",
/// }
/// ```
///
/// Variants are numbered in list order, and the JSON names keep that
/// order, so equal sets serialise to identical bytes.
macro_rules! counter_registry {
    (
        $(#[$enum_meta:meta])*
        pub enum $Counter:ident;
        $(#[$counts_meta:meta])*
        pub struct $Counts:ident;
        $($Variant:ident => $name:literal,)+
    ) => {
        $(#[$enum_meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $Counter {
            $(
                #[doc = concat!("The `", $name, "` counter.")]
                $Variant,
            )+
        }

        impl $Counter {
            /// Number of counters.
            pub const COUNT: usize = [$($name),+].len();

            /// Stable JSON names, indexed by discriminant.
            pub const NAMES: [&'static str; $Counter::COUNT] = [$($name),+];

            /// All counters in index order.
            pub const ALL: [$Counter; $Counter::COUNT] = [$($Counter::$Variant),+];

            /// JSON name of this counter.
            pub fn name(self) -> &'static str {
                $Counter::NAMES[self as usize]
            }
        }

        $(#[$counts_meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $Counts([u64; $Counter::COUNT]);

        impl Default for $Counts {
            fn default() -> Self {
                $Counts([0; $Counter::COUNT])
            }
        }

        impl $Counts {
            /// An all-zero set (the merge identity).
            pub fn new() -> Self {
                Self::default()
            }

            /// Adds `n` to a counter.
            pub fn add(&mut self, counter: $Counter, n: u64) {
                self.0[counter as usize] += n;
            }

            /// Overwrites a counter (for gauges snapshotted at end of run).
            pub fn set(&mut self, counter: $Counter, value: u64) {
                self.0[counter as usize] = value;
            }

            /// Current value of a counter.
            pub fn get(&self, counter: $Counter) -> u64 {
                self.0[counter as usize]
            }

            /// Element-wise addition of `other` into `self`. Associative
            /// and commutative; `new()` is the identity.
            pub fn merge(&mut self, other: &Self) {
                for (c, o) in self.0.iter_mut().zip(other.0.iter()) {
                    *c += o;
                }
            }

            /// Appends the counts to `out` as a compact JSON object, in
            /// index order.
            pub fn write_json(&self, out: &mut String) {
                use std::fmt::Write;
                out.push('{');
                for (i, name) in $Counter::NAMES.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{name}\":{}", self.0[i]);
                }
                out.push('}');
            }
        }
    };
}

pub(crate) use counter_registry;
