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
//! The line codec reads a block as a bit matrix. A block is the contiguous
//! bit range `b*k .. (b+1)*k` of the line (a quarter word at `m = 4`, one
//! word at the default `m = 8`, four words at `m = 16`), and its `m` rows
//! are `m` bits each, cell `(i, j)` at block bit `i * m + j`. Every group's
//! class parities are a word-wide transform of the rows:
//!
//! - the row classes are the row parities;
//! - the column classes are the XOR of all rows;
//! - Latin square `g - 1` puts cell `(i, j)` in class `c_i ^ j`, with
//!   `c_i = gf_mul_small(m, g - 1, i)`, so its class parities are the XOR
//!   of the rows after row `i`'s bit indices are XOR-permuted by `c_i`.
//!   That permutation is one masked swap per bit of `c_i` (distance 1, 2,
//!   4 or 8), applied to every row of a word at once.
//!
//! The permutation is its own inverse, so the decoder's error path builds
//! the cells a group's fired classes cover the same way: the fired classes
//! copied into every row and permuted. The majority vote is bit-sliced:
//! the `2t` per-group "fired" masks are summed into a bit-sliced counter
//! that is compared against `t` for all cells of the block at once.
//! Checkbits are packed into an [`OlscCheck`], block `b`'s check of class
//! `cls` in group `g` at bit `b * 2tm + g * m + cls`.

use crate::bits::{Line512, LINE_BITS};

/// The packed checkbits of one line.
pub type OlscCheck = [u64; 4];

/// Checkbits an [`OlscCheck`] holds: a code needing more per line cannot
/// be stored.
pub const MAX_CHECK_BITS: usize = 256;

/// GF(2^e) multiply for tiny fields (m = 4, 8, 16), used to build the
/// mutually orthogonal Latin squares.
pub(crate) const fn gf_mul_small(m: usize, a: usize, b: usize) -> usize {
    let poly = match m {
        4 => 0b111,    // x^2 + x + 1
        8 => 0b1011,   // x^3 + x + 1
        16 => 0b10011, // x^4 + x + 1
        _ => unreachable!(),
    };
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
    debug_assert!(acc < m);
    acc
}

/// The bits a swap at distance `1 << s` moves up: the low half of every
/// aligned `2 << s`-bit group.
const LOW_HALVES: [u64; 4] = [
    0x5555_5555_5555_5555,
    0x3333_3333_3333_3333,
    0x0F0F_0F0F_0F0F_0F0F,
    0x00FF_00FF_00FF_00FF,
];

/// The row permutations of the Latin squares of one block width `m`:
/// `[a][s][w]` selects, in word `w` of a block, the low halves of the swap
/// at distance `1 << s` in every row `i` whose offset
/// `gf_mul_small(m, a, i)` has bit `s` set. Square `a = 0`, the columns,
/// permutes nothing.
type RowSwaps = [[[u64; 4]; 4]; 16];

const fn row_swaps(m: usize) -> RowSwaps {
    let mut swaps = [[[0; 4]; 4]; 16];
    let rows_per_word = 64 / m;
    let mut a = 0;
    while a < m {
        let mut w = 0;
        while w < 4 {
            let mut lane = 0;
            while lane < rows_per_word {
                let offset = gf_mul_small(m, a, (w * rows_per_word + lane) % m);
                let mut s = 0;
                while (1 << s) < m {
                    if (offset >> s) & 1 == 1 {
                        swaps[a][s][w] |= (low_bits(m) << (lane * m)) & LOW_HALVES[s];
                    }
                    s += 1;
                }
                lane += 1;
            }
            w += 1;
        }
        a += 1;
    }
    swaps
}

/// [`row_swaps`] of `m = 4, 8, 16`, indexed by `log2(m) - 2`.
static ROW_SWAPS: [RowSwaps; 3] = [row_swaps(4), row_swaps(8), row_swaps(16)];

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

/// The low `n` bits set (`n <= 64`; more saturate).
const fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

/// The low `width` bits of every aligned `lane`-bit lane (`lane` a power
/// of two, at least `width`).
const fn lane_bits(lane: usize, width: usize) -> u64 {
    if lane >= 64 {
        low_bits(width)
    } else {
        u64::MAX / low_bits(lane) * low_bits(width)
    }
}

/// Packs the low `width` bits of every `lane`-bit lane of `x` into its low
/// bits, in lane order, by merging neighbouring lanes pairwise. (The
/// loops here count steps, not bits, so that constant arguments unroll
/// them.)
#[inline(always)]
fn pack_lanes(mut x: u64, lane: usize, width: usize) -> u64 {
    x &= lane_bits(lane, width);
    let lanes = 64 / lane;
    if width == 1 && lanes <= 8 {
        // One multiply moves lane l's bit to bit `64 - lanes + l`; the
        // partial products of at most eight lanes never collide.
        let spread = (0..lanes).fold(0u64, |m, l| m | 1 << (64 - lanes - (lane - 1) * l));
        return x.wrapping_mul(spread) >> (64 - lanes);
    }
    for step in 0..lanes.trailing_zeros() {
        let (lane, width) = (lane << step, width << step);
        x = (x | x >> (lane - width)) & lane_bits(2 * lane, 2 * width);
    }
    x
}

/// XORs the `width`-bit pieces of every aligned `span`-bit lane of `x`
/// into the lane's low piece (the other bits are left unspecified).
#[inline(always)]
fn fold(mut x: u64, span: usize, width: usize) -> u64 {
    for step in 1..=(span / width).trailing_zeros() {
        x ^= x >> (span >> step);
    }
    x
}

/// XOR-permutes the bit indices of every `M`-bit row in word `w` of a
/// block by the row's offset in Latin square `a`. Its own inverse.
#[inline]
fn permute_rows<const M: usize>(mut x: u64, a: usize, w: usize) -> u64 {
    let levels = M.trailing_zeros() as usize;
    let swaps = &ROW_SWAPS[levels - 2][a];
    for (s, low) in swaps.iter().take(levels).enumerate() {
        let distance = 1 << s;
        let moved = ((x >> distance) ^ x) & low[w];
        x ^= moved ^ (moved << distance);
    }
    x
}

/// Word `w` of a block on its way to group `g`'s class parities: each
/// row folded to its lowest bit for the rows group, else each row
/// XOR-permuted by its offset in square `g - 1` (the columns permute
/// nothing).
#[inline(always)]
fn transform_rows<const M: usize>(word: u64, g: usize, w: usize) -> u64 {
    match g {
        0 => fold(word, M, 1),
        1 => word,
        _ => permute_rows::<M>(word, g - 1, w),
    }
}

/// Group `g`'s class parities of the blocks in `unit` (one `16 x 16`
/// block in four words, or the `64 / k` blocks of one word) from its
/// [`transform_rows`], block `b`'s at bits `b * M`: the rows' parity
/// bits packed for the rows group, else the XOR of the rows.
#[inline(always)]
fn unit_classes<const M: usize, const W: usize>(transformed: &[u64; W], g: usize) -> u64 {
    let span = (M * M).min(64);
    if g == 0 {
        let rows_per_word = 64 / M;
        transformed.iter().enumerate().fold(0, |rows, (w, &x)| {
            rows | pack_lanes(x, M, 1) << (w * rows_per_word)
        })
    } else {
        let xor = transformed.iter().fold(0, |xor, &x| xor ^ x);
        pack_lanes(fold(xor, span, M), span, M)
    }
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

/// Calls `OlscLine::$kernel::<M, W, T>` for the codec's `(m, t)`: `M = m`,
/// `W` words per unit (four for the one `16 x 16` block a unit holds, else
/// one), `T = t`. `try_new` admits no other codes.
macro_rules! codes {
    ($codec:expr, $kernel:ident($($arg:expr),*)) => {
        match ($codec.m, $codec.t) {
            (4, _) => Self::$kernel::<4, 1, 1>($($arg),*),
            (8, 1) => Self::$kernel::<8, 1, 1>($($arg),*),
            (8, _) => Self::$kernel::<8, 1, 2>($($arg),*),
            (16, 1) => Self::$kernel::<16, 4, 1>($($arg),*),
            (16, 2) => Self::$kernel::<16, 4, 2>($($arg),*),
            (16, 3) => Self::$kernel::<16, 4, 3>($($arg),*),
            _ => Self::$kernel::<16, 4, 4>($($arg),*),
        }
    };
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
        Ok(OlscLine { m, t, k, blocks })
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
        self.blocks * 2 * self.t * self.m
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
        codes!(self, encode_units(line))
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
        codes!(self, correct(line, &syndrome))
    }

    /// Flips the cells of block `b` set in `flips`.
    fn flip<const M: usize, const W: usize>(line: &mut Line512, b: usize, flips: &[u64; W]) {
        if W == 1 {
            let bit = b * M * M;
            line.0[bit / 64] ^= flips[0] << (bit % 64);
        } else {
            for (w, f) in line.0[b * W..(b + 1) * W].iter_mut().zip(flips) {
                *w ^= f;
            }
        }
    }

    /// The line's checkbits, group by group. A unit is `W` words: one
    /// `16 x 16` block or the `64 / k` blocks of one word. Each group's
    /// rows are transformed word-parallel over the line, then every
    /// unit's class parities are scattered to its blocks' checks (an
    /// `m`-bit class vector never straddles a word).
    fn encode_units<const M: usize, const W: usize, const T: usize>(line: &Line512) -> OlscCheck {
        let blocks = 64 / (M * M).min(64);
        let per_block = 2 * T * M;
        let mut out = [0u64; 4];
        for g in 0..2 * T {
            let transformed: [u64; 8] =
                std::array::from_fn(|i| transform_rows::<M>(line.0[i], g, i % W));
            for (u, unit) in transformed.as_chunks::<W>().0.iter().enumerate() {
                let classes = unit_classes::<M, W>(unit, g);
                for b in 0..blocks {
                    let bit = (u * blocks + b) * per_block + g * M;
                    out[bit / 64] |= ((classes >> (b * M)) & low_bits(M)) << (bit % 64);
                }
            }
        }
        out
    }

    /// The checkbits of one block alone in the low bits of `W` words, class
    /// `cls` of group `g` at bit `g * m + cls`.
    fn block_check<const M: usize, const W: usize, const T: usize>(block: &[u64; W]) -> u128 {
        (0..2 * T).fold(0, |check, g| {
            let transformed = std::array::from_fn(|w| transform_rows::<M>(block[w], g, w));
            let classes = unit_classes::<M, W>(&transformed, g) & low_bits(M);
            check | u128::from(classes) << (g * M)
        })
    }

    /// The error path: majority-votes every block whose check sums fired.
    fn correct<const M: usize, const W: usize, const T: usize>(
        line: &mut Line512,
        syndrome: &OlscCheck,
    ) -> OlscDecode {
        let per_block = 2 * T * M;
        let mut corrected = false;
        for b in 0..LINE_BITS / (M * M) {
            let sums = bits_at(syndrome, b * per_block, per_block);
            if sums == 0 {
                continue;
            }
            let flips = Self::vote::<M, W, T>(sums);
            // Check sums left after flipping, by linearity; any remaining
            // inconsistency is tolerated only while it could be faulty
            // checkbit cells (at most t).
            let residual = sums ^ Self::block_check::<M, W, T>(&flips);
            if residual.count_ones() as usize > T {
                return OlscDecode::Detected;
            }
            if flips.iter().any(|&f| f != 0) {
                Self::flip::<M, W>(line, b, &flips);
                corrected = true;
            }
        }
        if corrected {
            OlscDecode::Corrected
        } else {
            OlscDecode::Clean
        }
    }

    /// The cells of one block (in the low bits of `W` words) whose class
    /// in group `g` is set in `classes`: whole rows for the rows group;
    /// otherwise `classes` in every row, XOR-permuted like the encoder
    /// permutes the data.
    fn class_cells<const M: usize, const W: usize>(g: usize, classes: u64) -> [u64; W] {
        let rows_per_word = 64 / M;
        let mut cells = [0u64; W];
        if g == 0 {
            let mut rows = classes;
            while rows != 0 {
                let i = rows.trailing_zeros() as usize;
                rows &= rows - 1;
                cells[i / rows_per_word] |= low_bits(M) << (i % rows_per_word * M);
            }
        } else {
            let every_row = lane_bits(M, 1) & low_bits(M * M);
            for (w, word) in cells.iter_mut().enumerate() {
                let x = classes * every_row;
                *word = if g == 1 {
                    x
                } else {
                    permute_rows::<M>(x, g - 1, w)
                };
            }
        }
        cells
    }

    /// Cells of one block on which more than `t` of the `2t` check sums
    /// fired. Each group's fired classes are spread to the cells they
    /// cover, the masks are summed into a bit-sliced counter, and the
    /// counter is compared against `t` most-significant bit first.
    fn vote<const M: usize, const W: usize, const T: usize>(sums: u128) -> [u64; W] {
        // 2t <= m + 1 <= 17 votes need 5 counter bits.
        let mut count = [[0u64; W]; 5];
        for g in 0..2 * T {
            let classes = (sums >> (g * M)) as u64 & low_bits(M);
            let mut carry = Self::class_cells::<M, W>(g, classes);
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
            let t_bit = (T >> i) & 1 == 1;
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
        // Codes past the payload too, so that m = 4 and m = 8 check all
        // but their last square, and m = 16 eight of its groups.
        for (m, t) in [(4, 2), (8, 4), (16, 4)] {
            // The block check of each one-cell block, and the classes the
            // Latin squares define for that cell.
            let checks: Vec<u128> = (0..m * m)
                .map(|cell| {
                    let mut block = [0u64; 4];
                    block[cell / 64] |= 1 << (cell % 64);
                    let check = match m {
                        4 => OlscLine::block_check::<4, 1, 2>(&[block[0]]),
                        8 => OlscLine::block_check::<8, 1, 4>(&[block[0]]),
                        _ => OlscLine::block_check::<16, 4, 4>(&block),
                    };
                    let (i, j) = (cell / m, cell % m);
                    let expected = (0..2 * t).fold(0u128, |acc, g| {
                        let cls = match g {
                            0 => i,
                            1 => j,
                            _ => gf_mul_small(m, g - 1, i) ^ j,
                        };
                        acc | 1 << (g * m + cls)
                    });
                    assert_eq!(check, expected, "m={m}: classes of cell {cell}");
                    check
                })
                .collect();
            for (a, check_a) in checks.iter().enumerate() {
                for check_b in &checks[a + 1..] {
                    let shared = (check_a & check_b).count_ones();
                    assert!(shared <= 1, "m={m}: cell {a} shares {shared} classes");
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
