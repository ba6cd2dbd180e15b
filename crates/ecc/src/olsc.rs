//! Orthogonal Latin Square Codes (OLSC) with one-step majority-logic
//! decoding.
//!
//! MS-ECC [Chishti et al., MICRO'09] and the low-Vmin Killi variant (§5.5)
//! protect lines with OLSC because the code strength scales smoothly: for an
//! `m x m` data block (`k = m^2` bits), a `t`-error-correcting OLSC uses
//! `2*t*m` checkbits organized as `2t` *groups* of `m` parity classes each
//! (rows, columns, and `2t - 2` Latin-square diagonals). Any two data cells
//! share at most one class across all groups, so a single pass of majority
//! voting over the `2t` check sums corrects up to `t` errors.
//!
//! The line codec works on whole 64-bit words. A block is the contiguous
//! bit range `b*k .. (b+1)*k` of the line (one word at the default
//! `m = 8`). Each class parity is an AND against a precomputed class mask
//! plus a popcount, and the majority vote is bit-sliced: the `2t` per-group
//! "fired" masks are summed into a bit-sliced counter that is compared
//! against `t` for all cells of the block at once. Checkbits are packed
//! into an [`OlscCheck`], block `b`'s check of class `cls` in group `g` at
//! bit `b * 2tm + g * m + cls`.

use std::sync::OnceLock;

use crate::bits::{Line512, LINE_BITS};

/// The packed checkbits of one line.
pub type OlscCheck = [u64; 4];

/// Checkbits an [`OlscCheck`] holds: a code needing more per line cannot
/// be stored.
pub const MAX_CHECK_BITS: usize = 256;

/// GF(2^e) multiply for tiny fields (m = 4, 8, 16), used to build the
/// mutually orthogonal Latin squares.
pub(crate) fn gf_mul_small(m: usize, a: usize, b: usize) -> usize {
    let poly = match m {
        4 => 0b111,    // x^2 + x + 1
        8 => 0b1011,   // x^3 + x + 1
        16 => 0b10011, // x^4 + x + 1
        _ => unreachable!(),
    };
    let bits = m.trailing_zeros() as usize;
    let mut acc = 0usize;
    let mut aa = a;
    let mut bb = b;
    while bb != 0 {
        if bb & 1 == 1 {
            acc ^= aa;
        }
        aa <<= 1;
        if aa & m != 0 {
            aa ^= poly;
        }
        bb >>= 1;
    }
    debug_assert!(acc < (1 << bits));
    acc
}

/// Class masks of every group an `m x m` block supports (rows, columns
/// and the `m - 1` Latin squares), group-major: `masks[g * m + cls]`
/// selects the cells of class `cls` in group `g`, cell `i * m + j` at
/// block bit `i * m + j`. Built once per process for each `m`.
fn class_masks(m: usize) -> &'static [[u64; 4]] {
    static TABLES: [OnceLock<Vec<[u64; 4]>>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    let slot = match m {
        4 => &TABLES[0],
        8 => &TABLES[1],
        16 => &TABLES[2],
        _ => unreachable!("validated by OlscLine::try_new"),
    };
    slot.get_or_init(|| {
        let groups = m + 1;
        let mut masks = vec![[0u64; 4]; groups * m];
        for g in 0..groups {
            for i in 0..m {
                for j in 0..m {
                    let cls = match g {
                        0 => i,                             // rows
                        1 => j,                             // columns
                        _ => gf_mul_small(m, g - 1, i) ^ j, // L_{g-1}
                    };
                    let cell = i * m + j;
                    masks[g * m + cls][cell / 64] |= 1 << (cell % 64);
                }
            }
        }
        masks
    })
}

/// Decode verdict of the OLSC codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OlscDecode {
    /// No data error (checkbit-cell errors alone are absorbed silently).
    Clean,
    /// Data errors were corrected in place.
    Corrected,
    /// Residual inconsistency after majority voting: more than `t` errors.
    Detected,
}

impl OlscDecode {
    /// True when the data cannot be recovered.
    pub fn is_uncorrectable(&self) -> bool {
        matches!(self, OlscDecode::Detected)
    }
}

/// OLSC protection for a whole 512-bit cache line, built from
/// `512 / m^2` independent `t`-error-correcting `m x m` blocks.
#[derive(Clone)]
pub struct OlscLine {
    m: usize,
    t: usize,
    /// Data bits per block (`m^2`).
    k: usize,
    /// Blocks per line.
    blocks: usize,
    /// The `2t * m` class masks of this code: a prefix of the shared
    /// per-`m` table.
    masks: &'static [[u64; 4]],
}

impl std::fmt::Debug for OlscLine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OlscLine")
            .field("m", &self.m)
            .field("t", &self.t)
            .field("blocks", &self.blocks)
            .finish()
    }
}

/// The low `n` bits set (`n <= 64`).
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// Parity of the block bits selected by `mask`, as 0 or 1.
#[inline]
fn parity<const W: usize>(block: &[u64; W], mask: &[u64; 4]) -> u64 {
    let mut x = 0;
    for (b, m) in block.iter().zip(mask) {
        x ^= b & m;
    }
    u64::from(x.count_ones() & 1)
}

/// The parities of eight consecutive class masks, mask `i` at bit `i`.
#[inline]
fn parity_byte<const W: usize>(block: &[u64; W], masks: &[[u64; 4]; 8]) -> u64 {
    masks
        .iter()
        .enumerate()
        .fold(0, |byte, (i, mask)| byte | parity(block, mask) << i)
}

/// The `n <= 128` bits of `words` starting at bit `offset`.
fn bits_at(words: &OlscCheck, offset: usize, n: usize) -> u128 {
    let word = |i: usize| u128::from(words.get(i).copied().unwrap_or(0));
    let (w, s) = (offset / 64, offset % 64);
    let mut v = (word(w) | word(w + 1) << 64) >> s;
    if s != 0 {
        v |= word(w + 2) << (128 - s);
    }
    if n < 128 {
        v & ((1 << n) - 1)
    } else {
        v
    }
}

impl OlscLine {
    /// Builds a line codec from per-block parameters, or says why it
    /// cannot be built: `m` must be 4, 8 or 16, `1 <= t` and `2t <= m + 1`
    /// (the field supplies only `m - 1` Latin squares plus rows and
    /// columns), and the line's checkbits must fit in [`MAX_CHECK_BITS`].
    pub fn try_new(m: usize, t: usize) -> Result<Self, String> {
        if !matches!(m, 4 | 8 | 16) {
            return Err(format!("OLSC block width m={m} is not one of 4, 8, 16"));
        }
        if t == 0 || t > m.div_ceil(2) {
            return Err(format!(
                "OLSC t={t} out of range for m={m} (need 1 <= t, 2t <= m+1)"
            ));
        }
        let k = m * m;
        let blocks = LINE_BITS / k;
        let check_bits = blocks * 2 * t * m;
        if check_bits > MAX_CHECK_BITS {
            return Err(format!(
                "OLSC({m}, {t}) needs {check_bits} checkbits per line, more than the \
                 {MAX_CHECK_BITS}-bit payload"
            ));
        }
        Ok(OlscLine {
            m,
            t,
            k,
            blocks,
            masks: &class_masks(m)[..2 * t * m],
        })
    }

    /// Builds a line codec from per-block parameters.
    ///
    /// # Panics
    ///
    /// Panics on parameters [`OlscLine::try_new`] rejects.
    pub fn new(m: usize, t: usize) -> Self {
        Self::try_new(m, t).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// Total checkbits per line.
    pub fn check_bits(&self) -> usize {
        self.blocks * self.masks.len()
    }

    /// Errors correctable per block (the per-line capability is
    /// `t * blocks` only when errors spread evenly).
    pub fn t_per_block(&self) -> usize {
        self.t
    }

    /// Data bits per block (m * m).
    pub fn block_bits(&self) -> usize {
        self.k
    }

    /// Encodes a line into its packed checkbits.
    pub fn encode(&self, line: &Line512) -> OlscCheck {
        if self.k > 64 {
            self.encode_words::<4>(line)
        } else {
            self.encode_words::<1>(line)
        }
    }

    /// Decodes a line in place against stored checkbits. Blocks are
    /// corrected in line order; on `Detected`, blocks before the failing
    /// one stay corrected and the rest are untouched.
    pub fn decode(&self, line: &mut Line512, stored: &OlscCheck) -> OlscDecode {
        let computed = self.encode(line);
        if computed == *stored {
            return OlscDecode::Clean;
        }
        let mut syndrome = computed;
        for (s, w) in syndrome.iter_mut().zip(stored) {
            *s ^= w;
        }
        if self.k > 64 {
            self.correct::<4>(line, &syndrome)
        } else {
            self.correct::<1>(line, &syndrome)
        }
    }

    /// Block `b` of the line, as `W` words (`W = 1` holds blocks of up to
    /// 64 bits in its low bits).
    #[inline]
    fn block<const W: usize>(&self, line: &Line512, b: usize) -> [u64; W] {
        let mut out = [0u64; W];
        if W == 1 {
            let bit = b * self.k;
            out[0] = (line.0[bit / 64] >> (bit % 64)) & low_bits(self.k);
        } else {
            out.copy_from_slice(&line.0[b * W..(b + 1) * W]);
        }
        out
    }

    /// Flips the cells of block `b` set in `flips`.
    fn flip<const W: usize>(&self, line: &mut Line512, b: usize, flips: &[u64; W]) {
        if W == 1 {
            let bit = b * self.k;
            line.0[bit / 64] ^= flips[0] << (bit % 64);
        } else {
            for (w, f) in line.0[b * W..(b + 1) * W].iter_mut().zip(flips) {
                *w ^= f;
            }
        }
    }

    fn encode_words<const W: usize>(&self, line: &Line512) -> OlscCheck {
        // Checkbits are produced a byte at a time from the highest index
        // down (every code has a multiple of 8 per block and of 64 per
        // line), so the eight parities of a byte are independent and the
        // running word only ever shifts by a constant.
        let mut out = [0u64; 4];
        let mut acc = 0u64;
        let mut j = self.check_bits();
        for b in (0..self.blocks).rev() {
            let block = self.block::<W>(line, b);
            for masks in self.masks.as_chunks::<8>().0.iter().rev() {
                acc = acc << 8 | parity_byte(&block, masks);
                j -= 8;
                if j.is_multiple_of(64) {
                    out[j / 64] = acc;
                    acc = 0;
                }
            }
        }
        out
    }

    /// The block's `2tm` class parities, bit `g * m + cls`.
    fn block_parities<const W: usize>(&self, block: &[u64; W]) -> u128 {
        self.masks
            .as_chunks::<8>()
            .0
            .iter()
            .rev()
            .fold(0, |acc, masks| {
                acc << 8 | u128::from(parity_byte(block, masks))
            })
    }

    /// The error path: majority-votes every block whose check sums fired.
    fn correct<const W: usize>(&self, line: &mut Line512, syndrome: &OlscCheck) -> OlscDecode {
        let per_block = self.masks.len();
        let mut corrected = false;
        for b in 0..self.blocks {
            let sums = bits_at(syndrome, b * per_block, per_block);
            if sums == 0 {
                continue;
            }
            let flips = self.vote::<W>(sums);
            // Check sums left after flipping, by linearity; any remaining
            // inconsistency is tolerated only while it could be faulty
            // checkbit cells (at most t).
            let residual = sums ^ self.block_parities(&flips);
            if residual.count_ones() as usize > self.t {
                return OlscDecode::Detected;
            }
            if flips.iter().any(|&f| f != 0) {
                self.flip(line, b, &flips);
                corrected = true;
            }
        }
        if corrected {
            OlscDecode::Corrected
        } else {
            OlscDecode::Clean
        }
    }

    /// Cells of one block on which more than `t` of the `2t` check sums
    /// fired. Each group's fired classes are ORed into one mask, the masks
    /// are summed into a bit-sliced counter, and the counter is compared
    /// against `t` most-significant bit first.
    fn vote<const W: usize>(&self, sums: u128) -> [u64; W] {
        let m = self.m;
        // 2t <= m + 1 <= 17 votes need 5 counter bits.
        let mut count = [[0u64; W]; 5];
        for g in 0..2 * self.t {
            let mut classes = (sums >> (g * m)) as u64 & low_bits(m);
            let mut fired = [0u64; W];
            while classes != 0 {
                let mask = &self.masks[g * m + classes.trailing_zeros() as usize];
                classes &= classes - 1;
                for (f, w) in fired.iter_mut().zip(mask) {
                    *f |= w;
                }
            }
            let mut carry = fired;
            for level in &mut count {
                for (c, k) in level.iter_mut().zip(&mut carry) {
                    let sum = *c ^ *k;
                    *k &= *c;
                    *c = sum;
                }
            }
        }
        let mut greater = [0u64; W];
        let mut equal = [u64::MAX; W];
        for (i, level) in count.iter().enumerate().rev() {
            let t_bit = (self.t >> i) & 1 == 1;
            for ((gt, eq), c) in greater.iter_mut().zip(&mut equal).zip(level) {
                if t_bit {
                    *eq &= c;
                } else {
                    *gt |= *eq & c;
                    *eq &= !c;
                }
            }
        }
        greater
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use killi_check::check_cases;

    /// Every code whose line-wide checkbits fit the payload.
    const CODES: [(usize, usize); 7] = [(4, 1), (8, 1), (8, 2), (16, 1), (16, 2), (16, 3), (16, 4)];

    #[test]
    fn check_bit_counts() {
        assert_eq!(OlscLine::new(8, 2).check_bits(), 256); // 8 blocks x 32
        assert_eq!(OlscLine::new(8, 1).check_bits(), 128);
        assert_eq!(OlscLine::new(16, 3).check_bits(), 192); // 2 blocks x 96
        assert_eq!(OlscLine::new(4, 1).check_bits(), 256); // 32 blocks x 8
    }

    #[test]
    fn geometry_outside_the_payload_is_an_error() {
        for (m, t) in [
            (8, 3),
            (4, 2),
            (16, 5),
            (8, 5),
            (8, 0),
            (5, 2),
            (8, usize::MAX),
        ] {
            assert!(OlscLine::try_new(m, t).is_err(), "OLSC({m}, {t}) built");
        }
        for (m, t) in CODES {
            assert!(OlscLine::try_new(m, t).is_ok(), "OLSC({m}, {t}) rejected");
        }
        let err = OlscLine::try_new(8, 3).unwrap_err();
        assert!(err.contains("384 checkbits"), "{err}");
    }

    #[test]
    fn orthogonality_two_cells_share_at_most_one_class() {
        for m in [4usize, 8, 16] {
            let masks = class_masks(m);
            let class = |g: usize, cell: usize| {
                (0..m)
                    .find(|&cls| (masks[g * m + cls][cell / 64] >> (cell % 64)) & 1 == 1)
                    .expect("every cell has a class")
            };
            // Sample pairs (full cross product is large for m = 16).
            for a in (0..m * m).step_by(7) {
                for b in (0..m * m).step_by(11) {
                    if a == b {
                        continue;
                    }
                    let shared = (0..=m).filter(|&g| class(g, a) == class(g, b)).count();
                    assert!(shared <= 1, "m={m}: cells {a},{b} share {shared} classes");
                }
            }
        }
    }

    #[test]
    fn clean_roundtrip() {
        for (m, t) in CODES {
            let codec = OlscLine::new(m, t);
            let mut line = Line512::from_seed(99);
            let check = codec.encode(&line);
            assert_eq!(codec.decode(&mut line, &check), OlscDecode::Clean);
            assert_eq!(line, Line512::from_seed(99));
        }
    }

    #[test]
    fn corrects_up_to_t_errors_per_block() {
        for (m, t) in CODES {
            let codec = OlscLine::new(m, t);
            let k = m * m;
            let original = Line512::from_seed(7);
            let check = codec.encode(&original);
            for ne in 1..=t {
                let mut line = original;
                for b in 0..LINE_BITS / k {
                    for e in 0..ne {
                        line.flip_bit(b * k + (e * 37 + 5) % k);
                    }
                }
                let d = codec.decode(&mut line, &check);
                assert_eq!(d, OlscDecode::Corrected, "m={m} t={t} ne={ne}");
                assert_eq!(line, original, "m={m} t={t} ne={ne}");
            }
        }
    }

    #[test]
    fn line_codec_corrects_spread_errors() {
        let codec = OlscLine::new(8, 2); // 2 per 64-bit block
        let original = Line512::from_seed(123);
        let check = codec.encode(&original);
        let mut line = original;
        // 11 errors spread across blocks with <= 2 per block.
        for bit in [3usize, 40, 70, 100, 140, 180, 210, 260, 330, 400, 480] {
            line.flip_bit(bit);
        }
        assert_eq!(codec.decode(&mut line, &check), OlscDecode::Corrected);
        assert_eq!(line, original);
    }

    #[test]
    fn too_many_errors_in_one_block_detected() {
        let codec = OlscLine::new(8, 2);
        let original = Line512::from_seed(124);
        let check = codec.encode(&original);
        let mut line = original;
        // 5 errors inside block 0 exceed t = 2.
        for bit in [0usize, 9, 18, 27, 36] {
            line.flip_bit(bit);
        }
        let d = codec.decode(&mut line, &check);
        // Majority logic must not silently "succeed" with wrong data: either
        // it detects, or any claimed correction must be wrong and caught here.
        match d {
            OlscDecode::Detected => {}
            _ => assert_ne!(line, original, "silent miscorrection to clean data"),
        }
    }

    #[test]
    fn checkbit_cell_errors_tolerated() {
        let codec = OlscLine::new(8, 2);
        let original = Line512::from_seed(55);
        let mut check = codec.encode(&original);
        check[0] ^= 1 << 5; // one faulty checkbit cell
        let mut line = original;
        assert_eq!(codec.decode(&mut line, &check), OlscDecode::Clean);
        assert_eq!(line, original);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oversized_t() {
        OlscLine::new(8, 5);
    }

    #[test]
    fn word_kernels_match_the_scalar_reference() {
        // Every code that fits the payload, 0..=t+2 data flips per block
        // and 0-2 checkbit flips: same verdict, line and payload words.
        check_cases("olsc_word_kernels_match_reference", 512, |g| {
            let (m, t) = *g.pick(&CODES);
            let codec = OlscLine::new(m, t);
            let scalar = reference::OlscLine::new(m, t);
            let k = m * m;
            let data = Line512::from_seed(g.u64());
            let check = codec.encode(&data);
            assert_eq!(
                check,
                reference::pack_olsc(&scalar.encode(&data)),
                "OLSC({m}, {t}) encode"
            );

            // A per-case cap, so that whole lines stay correctable in
            // about half the cases instead of almost never.
            let most = g.usize_in(0, t + 3);
            let mut received = data;
            for b in 0..LINE_BITS / k {
                for cell in g.distinct(k, 0, most) {
                    received.flip_bit(b * k + cell);
                }
            }
            let mut stored = check;
            for bit in g.distinct(codec.check_bits(), 0, 2) {
                stored[bit / 64] ^= 1 << (bit % 64);
            }

            let mut fast = received;
            let verdict = codec.decode(&mut fast, &stored);
            let mut slow = received;
            let expected = scalar.decode(
                &mut slow,
                &reference::unpack_olsc(&stored, scalar.check_bits()),
            );
            assert_eq!(verdict, expected.verdict(), "OLSC({m}, {t}) verdict");
            assert_eq!(fast, slow, "OLSC({m}, {t}) output line");
        });
    }
}
