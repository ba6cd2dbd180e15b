//! DEC-TED ECC: Double-Error-Correction, Triple-Error-Detection via a
//! shortened binary BCH code over GF(2^10) plus an overall parity bit.
//!
//! The paper's §5.2 notes that "DECTED ECC for 64B data requires only 21
//! bits for checkbits": a designed-distance-5 BCH code needs 20 checkbits
//! (two degree-10 minimal polynomials), and the 21st bit is the overall
//! parity that upgrades detection to triple errors.
//!
//! Codeword layout (bit positions are polynomial degrees):
//! - degrees `0..20`: the 20 BCH remainder checkbits,
//! - degrees `20..532`: the 512 data bits (data bit `i` at degree `i + 20`),
//! - one overall-parity cell outside the polynomial.
//!
//! Encoding computes the remainder `d(x) * x^20 mod g(x)` a byte at a time
//! from eight 256-entry tables, one data word per step (slicing by eight).
//! Decoding needs only the 20-bit error remainder: the received codeword
//! differs from the valid codeword of the received data by the XOR of the
//! stored and recomputed remainders, so both syndromes are that 20-bit
//! polynomial evaluated at `alpha` and `alpha^3`, three table lookups. Two
//! errors are located in closed form: with `x = s1 * y` the error-locator
//! polynomial becomes `y^2 + y = c`, solved by a 1,024-entry root table.

use std::sync::OnceLock;

use crate::bits::{Line512, LINE_BITS};
use crate::gf1024::{minimal_polynomial, Gf10, GROUP_ORDER};

/// Number of BCH remainder checkbits.
pub const BCH_BITS: usize = 20;
/// Total stored checkbits including the overall parity.
pub const CHECK_BITS: usize = 21;
/// Codeword length in polynomial positions (data + BCH checkbits).
pub const CODE_LEN: usize = LINE_BITS + BCH_BITS; // 532

/// The 20 BCH remainder bits of a checkbit word.
const BCH_MASK: u32 = (1 << BCH_BITS) - 1;

/// Marks a constant `c` for which `y^2 + y = c` has no root.
const NO_ROOT: u16 = u16::MAX;

/// The 21 stored checkbits of a DEC-TED codeword.
///
/// Bits `0..20` are the BCH remainder; bit 20 is the overall parity of the
/// 532 codeword bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct DectedCode(pub u32);

impl DectedCode {
    /// Flips stored checkbit `i` (models a faulty checkbit cell).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 21`.
    pub fn flip_bit(&mut self, i: usize) {
        assert!(i < CHECK_BITS, "checkbit index {i} out of range");
        self.0 ^= 1 << i;
    }
}

/// Decode verdict of the DEC-TED codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DectedDecode {
    /// No error detected.
    Clean,
    /// Up to two errors corrected; the listed data-bit indices must be
    /// flipped (checkbit-only errors contribute no entries). Two located
    /// errors are listed in ascending codeword degree.
    Corrected { bits: [Option<usize>; 2] },
    /// Three or more errors detected; not correctable.
    Detected,
}

impl DectedDecode {
    /// True when the data cannot be recovered.
    pub fn is_uncorrectable(&self) -> bool {
        matches!(self, DectedDecode::Detected)
    }
}

/// The DEC-TED(533, 512) codec.
pub struct Dected {
    /// Slicing-by-8 remainder tables: `remainder[b][v]` is
    /// `v(x) * x^(8b + 20) mod g(x)`.
    remainder: [[u32; 256]; 8],
    /// Syndromes of a 20-bit error remainder, per byte: `syndrome[c][v]`
    /// packs `e(alpha)` (bits 0..10) and `e(alpha^3)` (bits 16..26) of
    /// `e(x) = v(x) * x^(8c)`.
    syndrome: [[u32; 256]; 3],
    /// `roots[c]`: one root `y` of `y^2 + y = c` (the other is `y + 1`),
    /// or [`NO_ROOT`].
    roots: [u16; 1024],
}

impl std::fmt::Debug for Dected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dected").finish_non_exhaustive()
    }
}

/// Raw syndrome observation, exposed for schemes that branch on
/// syndrome-zero vs parity like Killi's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DectedObservation {
    /// Syndrome S1 = r(alpha).
    pub s1: Gf10,
    /// Syndrome S3 = r(alpha^3).
    pub s3: Gf10,
    /// True when the overall parity over all 533 cells mismatched.
    pub parity_mismatch: bool,
}

impl DectedObservation {
    /// True when both syndromes are zero.
    pub fn syndrome_zero(&self) -> bool {
        self.s1.is_zero() && self.s3.is_zero()
    }
}

impl Dected {
    /// Builds the codec (generator polynomial and lookup tables).
    pub fn new() -> Self {
        let m1 = u64::from(minimal_polynomial(1));
        let m3 = u64::from(minimal_polynomial(3));
        // Carry-less multiply m1 * m3 over GF(2).
        let mut generator = 0u64;
        for i in 0..=10 {
            if (m1 >> i) & 1 == 1 {
                generator ^= m3 << i;
            }
        }
        debug_assert_eq!(64 - generator.leading_zeros() as usize - 1, BCH_BITS);
        // v(x) * x^shift mod g(x), one degree at a time.
        let mulx_mod = |v: u64, shift: usize| {
            let mut r = v;
            for _ in 0..shift {
                r <<= 1;
                if (r >> BCH_BITS) & 1 == 1 {
                    r ^= generator;
                }
            }
            r as u32
        };

        let mut remainder = [[0u32; 256]; 8];
        for (b, table) in remainder.iter_mut().enumerate() {
            for (v, entry) in table.iter_mut().enumerate() {
                *entry = mulx_mod(v as u64, 8 * b + BCH_BITS);
            }
        }
        let mut syndrome = [[0u32; 256]; 3];
        for (c, table) in syndrome.iter_mut().enumerate() {
            for (v, entry) in table.iter_mut().enumerate() {
                let mut s1 = Gf10::ZERO;
                let mut s3 = Gf10::ZERO;
                for bit in (0..8).filter(|bit| (v >> bit) & 1 == 1) {
                    let degree = 8 * c + bit;
                    s1 = s1.add(Gf10::alpha_pow(degree));
                    s3 = s3.add(Gf10::alpha_pow(3 * degree));
                }
                *entry = u32::from(s1.0) | (u32::from(s3.0) << 16);
            }
        }
        let mut roots = [NO_ROOT; 1024];
        for y in 0..1024u16 {
            let c = Gf10(y).mul(Gf10(y)).add(Gf10(y));
            if roots[c.0 as usize] == NO_ROOT {
                roots[c.0 as usize] = y;
            }
        }
        Dected {
            remainder,
            syndrome,
            roots,
        }
    }

    /// `d(x) * x^20 mod g(x)` for the data polynomial `d`, one 64-bit word
    /// (eight table lookups) per step, highest degrees first.
    fn remainder(&self, data: &Line512) -> u32 {
        let mut reg = 0u32;
        for &word in data.words().iter().rev() {
            // Folding the running remainder into the next word's top bits
            // turns the step into v(x) * x^20 mod g(x) of one 64-bit v.
            let v = word ^ (u64::from(reg) << (64 - BCH_BITS));
            reg = 0;
            for (b, table) in self.remainder.iter().enumerate() {
                reg ^= table[(v >> (8 * b)) as usize & 0xFF];
            }
        }
        reg
    }

    /// Encodes `data`, returning the 21 checkbits.
    pub fn encode(&self, data: &Line512) -> DectedCode {
        let reg = self.remainder(data);
        let mut code = reg;
        // Overall parity over all 532 codeword bits.
        if data.parity() ^ (reg.count_ones() % 2 == 1) {
            code |= 1 << BCH_BITS;
        }
        DectedCode(code)
    }

    /// Computes the raw syndromes for a received (data, checkbits) pair.
    pub fn observe(&self, data: &Line512, stored: DectedCode) -> DectedObservation {
        let check = stored.0 & BCH_MASK;
        // The received word minus the codeword of the received data.
        let e = self.remainder(data) ^ check;
        let packed = self.syndrome[0][e as usize & 0xFF]
            ^ self.syndrome[1][(e >> 8) as usize & 0xFF]
            ^ self.syndrome[2][(e >> 16) as usize];
        let ones_odd = data.parity() ^ (check.count_ones() % 2 == 1);
        let stored_overall = (stored.0 >> BCH_BITS) & 1 == 1;
        DectedObservation {
            s1: Gf10((packed & 0x3FF) as u16),
            s3: Gf10((packed >> 16) as u16),
            parity_mismatch: ones_odd != stored_overall,
        }
    }

    /// Interprets an observation, locating two hypothesized errors in
    /// closed form.
    pub fn interpret(&self, obs: DectedObservation) -> DectedDecode {
        let DectedObservation {
            s1,
            s3,
            parity_mismatch,
        } = obs;
        if parity_mismatch {
            // Odd number of errors: hypothesize exactly one.
            if s1.is_zero() && s3.is_zero() {
                // Only the overall-parity cell flipped; data intact.
                return DectedDecode::Corrected { bits: [None, None] };
            }
            if !s1.is_zero() && s3 == s1.pow(3) {
                let degree = s1.log();
                if degree < CODE_LEN {
                    return DectedDecode::Corrected {
                        bits: [Self::degree_to_data_bit(degree), None],
                    };
                }
            }
            DectedDecode::Detected
        } else {
            // Even number of errors: zero or two.
            if s1.is_zero() && s3.is_zero() {
                return DectedDecode::Clean;
            }
            if s1.is_zero() {
                // Two errors always give s1 != 0 (distinct locators XOR).
                return DectedDecode::Detected;
            }
            // sigma(x) = x^2 + s1*x + (s3 + s1^3)/s1, roots are the locators.
            let prod = s3.add(s1.pow(3)).mul(s1.inv());
            if prod.is_zero() {
                return DectedDecode::Detected;
            }
            match self.locate_two(s1, prod) {
                Some((lo, hi)) if hi < CODE_LEN => DectedDecode::Corrected {
                    bits: [Self::degree_to_data_bit(lo), Self::degree_to_data_bit(hi)],
                },
                _ => DectedDecode::Detected,
            }
        }
    }

    /// The degrees of the two roots of `x^2 + s1*x + prod` (both non-zero),
    /// ascending, or `None` when it has no roots in the field. With
    /// `x = s1 * y` it reads `y^2 + y = prod / s1^2`.
    fn locate_two(&self, s1: Gf10, prod: Gf10) -> Option<(usize, usize)> {
        let c = prod.mul(s1.mul(s1).inv());
        let y = self.roots[c.0 as usize];
        if y == NO_ROOT {
            return None;
        }
        // c != 0, so y is neither 0 nor 1 and both locators are non-zero.
        let x1 = s1.mul(Gf10(y));
        let a = x1.log();
        let b = x1.add(s1).log();
        debug_assert!(a < GROUP_ORDER && b < GROUP_ORDER && a != b);
        Some((a.min(b), a.max(b)))
    }

    /// One-shot decode: observe then interpret.
    pub fn decode(&self, data: &Line512, stored: DectedCode) -> DectedDecode {
        self.interpret(self.observe(data, stored))
    }

    /// Applies a correction verdict to `data`, returning `true` if the data
    /// is now (believed) clean.
    pub fn apply(&self, data: &mut Line512, decode: DectedDecode) -> bool {
        match decode {
            DectedDecode::Clean => true,
            DectedDecode::Corrected { bits } => {
                for bit in bits.into_iter().flatten() {
                    data.flip_bit(bit);
                }
                true
            }
            DectedDecode::Detected => false,
        }
    }

    /// Maps a codeword degree to a data-bit index (`None` for checkbits).
    fn degree_to_data_bit(degree: usize) -> Option<usize> {
        (degree >= BCH_BITS).then(|| degree - BCH_BITS)
    }
}

impl Default for Dected {
    fn default() -> Self {
        Self::new()
    }
}

/// Returns the process-wide shared codec instance.
pub fn dected() -> &'static Dected {
    static INSTANCE: OnceLock<Dected> = OnceLock::new();
    INSTANCE.get_or_init(Dected::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use killi_check::{check, check_cases};

    #[test]
    fn clean_roundtrip() {
        let codec = dected();
        for seed in 0..16u64 {
            let data = Line512::from_seed(seed);
            let code = codec.encode(&data);
            assert_eq!(codec.decode(&data, code), DectedDecode::Clean);
        }
    }

    #[test]
    fn corrects_every_single_data_bit_error() {
        let codec = dected();
        let data = Line512::from_seed(31);
        let code = codec.encode(&data);
        for bit in 0..LINE_BITS {
            let mut corrupted = data;
            corrupted.flip_bit(bit);
            let d = codec.decode(&corrupted, code);
            let mut fixed = corrupted;
            assert!(codec.apply(&mut fixed, d), "bit {bit}: {d:?}");
            assert_eq!(fixed, data, "bit {bit}");
        }
    }

    #[test]
    fn corrects_every_single_checkbit_error() {
        let codec = dected();
        let data = Line512::from_seed(32);
        let code = codec.encode(&data);
        for cb in 0..CHECK_BITS {
            let mut bad = code;
            bad.flip_bit(cb);
            let d = codec.decode(&data, bad);
            let mut fixed = data;
            assert!(codec.apply(&mut fixed, d), "checkbit {cb}: {d:?}");
            assert_eq!(fixed, data, "checkbit {cb}");
        }
    }

    #[test]
    fn corrects_double_data_bit_errors() {
        let codec = dected();
        let data = Line512::from_seed(33);
        let code = codec.encode(&data);
        for (a, b) in [
            (0usize, 1usize),
            (0, 511),
            (17, 33),
            (100, 101),
            (250, 400),
            (5, 300),
        ] {
            let mut corrupted = data;
            corrupted.flip_bit(a);
            corrupted.flip_bit(b);
            let d = codec.decode(&corrupted, code);
            let mut fixed = corrupted;
            assert!(codec.apply(&mut fixed, d), "bits {a},{b}: {d:?}");
            assert_eq!(fixed, data, "bits {a},{b}");
        }
    }

    #[test]
    fn corrects_data_plus_checkbit_double_error() {
        let codec = dected();
        let data = Line512::from_seed(34);
        let code = codec.encode(&data);
        let mut corrupted = data;
        corrupted.flip_bit(42);
        let mut bad = code;
        bad.flip_bit(3);
        let d = codec.decode(&corrupted, bad);
        let mut fixed = corrupted;
        assert!(codec.apply(&mut fixed, d), "{d:?}");
        assert_eq!(fixed, data);
    }

    #[test]
    fn triple_errors_detected_never_clean() {
        let codec = dected();
        let data = Line512::from_seed(35);
        let code = codec.encode(&data);
        let mut detected = 0usize;
        let mut total = 0usize;
        for t in 0..100usize {
            let b0 = (t * 7) % LINE_BITS;
            let b1 = (t * 13 + 1) % LINE_BITS;
            let b2 = (t * 29 + 2) % LINE_BITS;
            if b0 == b1 || b1 == b2 || b0 == b2 {
                continue;
            }
            total += 1;
            let mut corrupted = data;
            corrupted.flip_bit(b0);
            corrupted.flip_bit(b1);
            corrupted.flip_bit(b2);
            match codec.decode(&corrupted, code) {
                DectedDecode::Clean => panic!("triple error decoded clean ({b0},{b1},{b2})"),
                DectedDecode::Detected => detected += 1,
                DectedDecode::Corrected { .. } => {} // rare aliasing allowed
            }
        }
        // TED should catch the overwhelming majority of triples.
        assert!(detected * 100 >= total * 95, "{detected}/{total}");
    }

    #[test]
    fn overall_parity_cell_flip_is_correctable() {
        let codec = dected();
        let data = Line512::from_seed(36);
        let mut code = codec.encode(&data);
        code.flip_bit(BCH_BITS); // the overall-parity cell
        let d = codec.decode(&data, code);
        assert_eq!(d, DectedDecode::Corrected { bits: [None, None] });
    }

    #[test]
    fn observation_reports_syndromes() {
        let codec = dected();
        let data = Line512::from_seed(37);
        let code = codec.encode(&data);
        let clean = codec.observe(&data, code);
        assert!(clean.syndrome_zero());
        assert!(!clean.parity_mismatch);

        let mut one = data;
        one.flip_bit(9);
        let obs = codec.observe(&one, code);
        assert!(!obs.syndrome_zero());
        assert!(obs.parity_mismatch);
        assert_eq!(obs.s1.log(), 9 + BCH_BITS);
    }

    #[test]
    fn table_encoder_matches_the_bit_serial_lfsr() {
        check("dected_table_encoder_matches_lfsr", |g| {
            let data = Line512::from_seed(g.u64());
            assert_eq!(dected().encode(&data), reference::dected_encode(&data));
        });
        for data in [Line512::zero(), Line512::zero().inverted()] {
            assert_eq!(dected().encode(&data), reference::dected_encode(&data));
        }
    }

    #[test]
    fn decode_matches_the_chien_search_reference() {
        // 0-4 data flips plus checkbit and overall-parity flips: the same
        // syndromes and the same verdict as the scalar reference.
        check_cases("dected_decode_matches_reference", 1024, |g| {
            let data = Line512::from_seed(g.u64());
            let mut code = dected().encode(&data);
            let mut received = data;
            for bit in g.distinct(LINE_BITS, 0, 4) {
                received.flip_bit(bit);
            }
            for bit in g.distinct(BCH_BITS, 0, 2) {
                code.flip_bit(bit);
            }
            if g.bool() {
                code.flip_bit(BCH_BITS);
            }
            assert_eq!(
                dected().observe(&received, code),
                reference::dected_observe(&received, code)
            );
            assert_eq!(
                dected().decode(&received, code),
                reference::dected_decode(&received, code)
            );
        });
    }

    #[test]
    fn two_error_locator_matches_chien_search_on_every_pair_shape() {
        // Both locator roots near and far apart, in checkbits and data,
        // and syndromes whose roots fall past the shortened code.
        let data = Line512::from_seed(38);
        let code = dected().encode(&data);
        for a in (0..CODE_LEN).step_by(13) {
            for b in (a + 1..CODE_LEN).step_by(29) {
                let mut received = data;
                let mut stored = code;
                for degree in [a, b] {
                    match Dected::degree_to_data_bit(degree) {
                        Some(bit) => received.flip_bit(bit),
                        None => stored.flip_bit(degree),
                    }
                }
                assert_eq!(
                    dected().decode(&received, stored),
                    reference::dected_decode(&received, stored),
                    "degrees {a}, {b}"
                );
            }
        }
        for s1 in (1..1024u16).step_by(7) {
            for s3 in (0..1024u16).step_by(31) {
                let obs = DectedObservation {
                    s1: Gf10(s1),
                    s3: Gf10(s3),
                    parity_mismatch: false,
                };
                assert_eq!(
                    dected().interpret(obs),
                    reference::dected_interpret(obs),
                    "s1 {s1}, s3 {s3}"
                );
            }
        }
    }

    #[test]
    fn root_table_matches_brute_force_for_every_constant() {
        for c in 0..1024u16 {
            let brute: Vec<u16> = (0..1024u16)
                .filter(|&y| Gf10(y).mul(Gf10(y)).add(Gf10(y)) == Gf10(c))
                .collect();
            let table = match dected().roots[c as usize] {
                NO_ROOT => Vec::new(),
                y => {
                    let mut both = vec![y, y ^ 1];
                    both.sort_unstable();
                    both
                }
            };
            assert_eq!(table, brute, "c = {c}");
        }
    }
}
