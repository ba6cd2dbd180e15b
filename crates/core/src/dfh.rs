//! Detected Fault History (DFH) state (Table 1 of the paper).
//!
//! Every L2 line carries two DFH bits in the nominal-voltage tag array. The
//! encoding follows the paper exactly:
//!
//! | DFH   | state   | errors/line | protection                    |
//! |-------|---------|-------------|-------------------------------|
//! | `b00` | stable  | 0           | 4-bit parity                  |
//! | `b01` | initial | unknown     | 16-bit parity + SECDED ECC    |
//! | `b10` | stable  | 1           | 4-bit parity + SECDED ECC     |
//! | `b11` | stable  | >= 2        | none (line disabled)          |

/// The per-line Detected Fault History state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Dfh {
    /// `b'00`: classified fault-free; 4-bit parity only.
    Stable0,
    /// `b'01`: unknown fault count; 16-bit parity + SECDED (the reset
    /// state).
    #[default]
    Unknown,
    /// `b'10`: one LV fault; 4-bit parity + SECDED.
    Stable1,
    /// `b'11`: two or more faults; line disabled until the next DFH reset.
    Disabled,
}

impl Dfh {
    /// The two-bit hardware encoding.
    pub fn bits(self) -> u8 {
        match self {
            Dfh::Stable0 => 0b00,
            Dfh::Unknown => 0b01,
            Dfh::Stable1 => 0b10,
            Dfh::Disabled => 0b11,
        }
    }

    /// Decodes the two-bit hardware encoding.
    ///
    /// # Panics
    ///
    /// Panics if `bits > 3`.
    pub fn from_bits(bits: u8) -> Self {
        match bits {
            0b00 => Dfh::Stable0,
            0b01 => Dfh::Unknown,
            0b10 => Dfh::Stable1,
            0b11 => Dfh::Disabled,
            _ => panic!("invalid DFH encoding {bits:#04b}"),
        }
    }

    /// True when the line may hold data (not disabled).
    pub fn usable(self) -> bool {
        self != Dfh::Disabled
    }

    /// True when the line's protection metadata lives (partly) in the ECC
    /// cache.
    pub fn needs_ecc_entry(self) -> bool {
        matches!(self, Dfh::Unknown | Dfh::Stable1)
    }

    /// Killi's victim-selection priority among invalid lines
    /// (`b'01 > b'00 > b'10`, §4.4); `None` for disabled lines.
    pub fn victim_class(self) -> Option<u8> {
        match self {
            Dfh::Unknown => Some(0),
            Dfh::Stable0 => Some(1),
            Dfh::Stable1 => Some(2),
            Dfh::Disabled => None,
        }
    }
}

/// Packed per-line DFH storage: the hardware's two tag-array bits per
/// line, 32 lines to a `u64` word. The scheme's DFH census and
/// victim-class reads sweep this flat bit array instead of striding over
/// per-line state records.
#[derive(Debug, Clone)]
pub struct DfhArray {
    words: Vec<u64>,
    lines: usize,
}

impl DfhArray {
    /// All lines in the reset state ([`Dfh::Unknown`]).
    pub fn new(lines: usize) -> Self {
        let mut a = DfhArray {
            words: vec![0; lines.div_ceil(32)],
            lines,
        };
        a.reset();
        a
    }

    /// Number of lines covered.
    pub fn lines(&self) -> usize {
        self.lines
    }

    /// The DFH state of `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[inline]
    pub fn get(&self, line: usize) -> Dfh {
        assert!(line < self.lines, "line {line} out of range");
        Dfh::from_bits(((self.words[line >> 5] >> ((line & 31) * 2)) & 0b11) as u8)
    }

    /// Sets the DFH state of `line`.
    ///
    /// # Panics
    ///
    /// Panics if `line` is out of range.
    #[inline]
    pub fn set(&mut self, line: usize, dfh: Dfh) {
        assert!(line < self.lines, "line {line} out of range");
        let shift = (line & 31) * 2;
        let word = &mut self.words[line >> 5];
        *word = (*word & !(0b11 << shift)) | (u64::from(dfh.bits()) << shift);
    }

    /// The lines `first..first + n` (`n <= 64`) in each DFH state, as
    /// bitmasks indexed by [`Dfh::bits`]: bit `i` of mask `s` is set when
    /// line `first + i` is in state `s`. Reads up to 32 lines' lanes from
    /// one packed word at a time (an L2 set's 16 lines from one word)
    /// instead of decoding line by line.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64` or the lines run past the array.
    pub fn state_masks(&self, first: usize, n: usize) -> [u64; 4] {
        assert!(n <= 64 && first + n <= self.lines, "lines out of range");
        // Bit 0 and bit 1 of every line's two-bit lane, one bit per line.
        let (mut lo, mut hi) = (0u64, 0u64);
        let mut done = 0;
        while done < n {
            let k = (n - done).min(32);
            let lanes = self.lanes(first + done, k);
            lo |= compress_even(lanes) << done;
            hi |= compress_even(lanes >> 1) << done;
            done += k;
        }
        let all = if n == 0 { 0 } else { u64::MAX >> (64 - n) };
        [all & !(lo | hi), lo & !hi, hi & !lo, lo & hi]
    }

    /// The two-bit lanes of lines `line..line + k` (`1 <= k <= 32`), lane
    /// `i` at bits `2i..2i + 2`, whichever words they span.
    fn lanes(&self, line: usize, k: usize) -> u64 {
        let (word, shift) = (line >> 5, (line & 31) * 2);
        let mut bits = self.words[word] >> shift;
        if shift + 2 * k > 64 {
            bits |= self.words[word + 1] << (64 - shift);
        }
        bits & (u64::MAX >> (64 - 2 * k))
    }

    /// Returns every line to [`Dfh::Unknown`] (the DFH reset broadcast).
    pub fn reset(&mut self) {
        // Unknown encodes as b01 in every two-bit lane.
        for w in &mut self.words {
            *w = 0x5555_5555_5555_5555;
        }
    }

    /// Counts lines in each state, indexed by [`Dfh::bits`]: per packed
    /// word, one popcount per two-bit pattern instead of a decode per line.
    pub fn census(&self) -> [u64; 4] {
        // Bit 0 of every two-bit lane.
        const LOW: u64 = 0x5555_5555_5555_5555;
        let mut counts = [0u64; 4];
        for (i, &word) in self.words.iter().enumerate() {
            // The lanes past the last line (in the last word) do not count.
            let past = ((i + 1) * 32).saturating_sub(self.lines);
            let lanes = LOW >> (2 * past);
            let lo = word & lanes;
            let hi = (word >> 1) & lanes;
            counts[0b00] += u64::from((lanes & !(lo | hi)).count_ones());
            counts[0b01] += u64::from((lo & !hi).count_ones());
            counts[0b10] += u64::from((hi & !lo).count_ones());
            counts[0b11] += u64::from((lo & hi).count_ones());
        }
        counts
    }
}

/// Gathers the even bits of `x` (bits 0, 2, .., 62) into its low 32 bits.
fn compress_even(x: u64) -> u64 {
    let mut x = x & 0x5555_5555_5555_5555;
    x = (x | x >> 1) & 0x3333_3333_3333_3333;
    x = (x | x >> 2) & 0x0F0F_0F0F_0F0F_0F0F;
    x = (x | x >> 4) & 0x00FF_00FF_00FF_00FF;
    x = (x | x >> 8) & 0x0000_FFFF_0000_FFFF;
    (x | x >> 16) & 0x0000_0000_FFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_roundtrip() {
        for dfh in [Dfh::Stable0, Dfh::Unknown, Dfh::Stable1, Dfh::Disabled] {
            assert_eq!(Dfh::from_bits(dfh.bits()), dfh);
        }
    }

    #[test]
    fn encoding_matches_table1() {
        assert_eq!(Dfh::Stable0.bits(), 0b00);
        assert_eq!(Dfh::Unknown.bits(), 0b01);
        assert_eq!(Dfh::Stable1.bits(), 0b10);
        assert_eq!(Dfh::Disabled.bits(), 0b11);
    }

    #[test]
    fn reset_state_is_unknown() {
        assert_eq!(Dfh::default(), Dfh::Unknown);
    }

    #[test]
    fn usability() {
        assert!(Dfh::Stable0.usable());
        assert!(Dfh::Unknown.usable());
        assert!(Dfh::Stable1.usable());
        assert!(!Dfh::Disabled.usable());
    }

    #[test]
    fn ecc_entry_requirement() {
        assert!(!Dfh::Stable0.needs_ecc_entry());
        assert!(Dfh::Unknown.needs_ecc_entry());
        assert!(Dfh::Stable1.needs_ecc_entry());
        assert!(!Dfh::Disabled.needs_ecc_entry());
    }

    #[test]
    fn victim_priority_order() {
        // b'01 > b'00 > b'10, disabled never selected.
        assert!(Dfh::Unknown.victim_class() < Dfh::Stable0.victim_class());
        assert!(Dfh::Stable0.victim_class() < Dfh::Stable1.victim_class());
        assert_eq!(Dfh::Disabled.victim_class(), None);
    }

    #[test]
    #[should_panic(expected = "invalid DFH")]
    fn invalid_bits_panic() {
        Dfh::from_bits(4);
    }

    #[test]
    fn array_starts_unknown_and_roundtrips() {
        let mut a = DfhArray::new(67); // straddles word boundaries
        assert_eq!(a.lines(), 67);
        for line in 0..67 {
            assert_eq!(a.get(line), Dfh::Unknown);
        }
        let states = [Dfh::Stable0, Dfh::Unknown, Dfh::Stable1, Dfh::Disabled];
        for line in 0..67 {
            a.set(line, states[line % 4]);
        }
        for line in 0..67 {
            assert_eq!(a.get(line), states[line % 4], "line {line}");
        }
    }

    #[test]
    fn array_set_does_not_disturb_neighbours() {
        let mut a = DfhArray::new(64);
        a.set(31, Dfh::Disabled);
        a.set(32, Dfh::Stable0);
        assert_eq!(a.get(30), Dfh::Unknown);
        assert_eq!(a.get(31), Dfh::Disabled);
        assert_eq!(a.get(32), Dfh::Stable0);
        assert_eq!(a.get(33), Dfh::Unknown);
    }

    #[test]
    fn array_reset_and_census() {
        let mut a = DfhArray::new(100);
        a.set(3, Dfh::Disabled);
        a.set(7, Dfh::Stable1);
        a.set(9, Dfh::Stable0);
        let c = a.census();
        assert_eq!(c[Dfh::Stable0.bits() as usize], 1);
        assert_eq!(c[Dfh::Unknown.bits() as usize], 97);
        assert_eq!(c[Dfh::Stable1.bits() as usize], 1);
        assert_eq!(c[Dfh::Disabled.bits() as usize], 1);
        a.reset();
        assert_eq!(a.census()[Dfh::Unknown.bits() as usize], 100);
    }

    #[test]
    fn popcount_census_matches_the_per_line_count() {
        // A small xorshift stream: the array sizes below end in a partial
        // word except 32, 64 and 96.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for lines in (1..=97).chain([1000, 32_768 + 5]) {
            let mut a = DfhArray::new(lines);
            for _ in 0..(next() as usize % (2 * lines)) {
                let line = next() as usize % lines;
                a.set(line, Dfh::from_bits((next() & 0b11) as u8));
            }
            let mut per_line = [0u64; 4];
            for line in 0..lines {
                per_line[a.get(line).bits() as usize] += 1;
            }
            assert_eq!(a.census(), per_line, "{lines} lines");
        }
    }

    #[test]
    fn state_masks_match_the_per_line_states() {
        killi_check::check_cases("dfh_state_masks", 256, |g| {
            let lines = g.usize_in(1, 200);
            let mut a = DfhArray::new(lines);
            for line in 0..lines {
                a.set(line, Dfh::from_bits(g.u64_below(4) as u8));
            }
            let first = g.usize_in(0, lines);
            let n = g.usize_in(0, (lines - first).min(64) + 1);
            let masks = a.state_masks(first, n);
            let mut expected = [0u64; 4];
            for i in 0..n {
                expected[a.get(first + i).bits() as usize] |= 1 << i;
            }
            assert_eq!(masks, expected, "lines {first}..{}", first + n);
        });
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn array_rejects_out_of_range() {
        DfhArray::new(10).get(10);
    }
}
