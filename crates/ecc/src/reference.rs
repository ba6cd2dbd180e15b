//! Scalar reference codecs, the oracles the word-level kernels are tested
//! against (test builds only):
//!
//! - OLSC block by block and cell by cell, with one `bool` per checkbit,
//! - the bit-serial DEC-TED encoder (one LFSR step per data bit),
//! - DEC-TED syndromes from per-byte tables over the whole codeword,
//! - the two-error DEC-TED locator as a Chien search over all 532 degrees.

use std::sync::OnceLock;

use crate::bch::{DectedCode, DectedDecode, DectedObservation, BCH_BITS, CODE_LEN};
use crate::bits::{Line512, LINE_BITS};
use crate::gf1024::{minimal_polynomial, Gf10};
use crate::olsc::{gf_mul_small, OlscCheck, OlscDecode};

/// A `k = m^2`-bit OLSC data block (bits beyond `k` stay zero).
type OlscBlock = [u64; 4];

/// Verdict of the scalar OLSC decoder, with the data bits it flipped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlscRefDecode {
    Clean,
    Corrected { bits: Vec<usize> },
    Detected,
}

impl OlscRefDecode {
    /// The verdict without the flipped bits.
    pub fn verdict(&self) -> OlscDecode {
        match self {
            OlscRefDecode::Clean => OlscDecode::Clean,
            OlscRefDecode::Corrected { .. } => OlscDecode::Corrected,
            OlscRefDecode::Detected => OlscDecode::Detected,
        }
    }
}

/// A `t`-error-correcting OLSC over one `m x m` data block.
struct Olsc {
    m: usize,
    t: usize,
    k: usize,
    /// `class_of[g][cell]` = parity class of `cell` within group `g`.
    class_of: Vec<Vec<u16>>,
    /// `masks[g][class]` = data bits belonging to that parity class.
    masks: Vec<Vec<OlscBlock>>,
}

impl Olsc {
    fn new(m: usize, t: usize) -> Self {
        let k = m * m;
        let groups = 2 * t;
        let mut class_of = vec![vec![0u16; k]; groups];
        for (g, table) in class_of.iter_mut().enumerate() {
            for i in 0..m {
                for j in 0..m {
                    table[i * m + j] = match g {
                        0 => i as u16,
                        1 => j as u16,
                        _ => (gf_mul_small(m, g - 1, i) ^ j) as u16,
                    };
                }
            }
        }
        let mut masks = vec![vec![[0u64; 4]; m]; groups];
        for g in 0..groups {
            for cell in 0..k {
                let cls = class_of[g][cell] as usize;
                masks[g][cls][cell / 64] |= 1u64 << (cell % 64);
            }
        }
        Olsc {
            m,
            t,
            k,
            class_of,
            masks,
        }
    }

    fn check_bits(&self) -> usize {
        2 * self.t * self.m
    }

    fn block_parity(block: &OlscBlock, mask: &OlscBlock) -> bool {
        let mut folded = 0u64;
        for (w, m) in block.iter().zip(mask.iter()) {
            folded ^= w & m;
        }
        folded.count_ones() % 2 == 1
    }

    fn encode(&self, data: &OlscBlock) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.check_bits());
        for group in &self.masks {
            for mask in group {
                out.push(Self::block_parity(data, mask));
            }
        }
        out
    }

    fn decode(&self, data: &mut OlscBlock, stored: &[bool]) -> OlscRefDecode {
        assert_eq!(stored.len(), self.check_bits(), "checkbit count mismatch");
        let groups = 2 * self.t;
        let mut sums = vec![false; groups * self.m];
        let mut any = false;
        for (g, group) in self.masks.iter().enumerate() {
            for (cls, mask) in group.iter().enumerate() {
                let b = Self::block_parity(data, mask) ^ stored[g * self.m + cls];
                sums[g * self.m + cls] = b;
                any |= b;
            }
        }
        if !any {
            return OlscRefDecode::Clean;
        }
        let mut flipped = Vec::new();
        for cell in 0..self.k {
            let mut votes = 0usize;
            for g in 0..groups {
                if sums[g * self.m + self.class_of[g][cell] as usize] {
                    votes += 1;
                }
            }
            if votes > self.t {
                flipped.push(cell);
            }
        }
        for &cell in &flipped {
            data[cell / 64] ^= 1u64 << (cell % 64);
        }
        for (g, group) in self.masks.iter().enumerate() {
            for (cls, mask) in group.iter().enumerate() {
                if Self::block_parity(data, mask) != stored[g * self.m + cls] {
                    let residual = self.residual_count(data, stored);
                    if residual > self.t {
                        return OlscRefDecode::Detected;
                    }
                    return if flipped.is_empty() {
                        OlscRefDecode::Clean
                    } else {
                        OlscRefDecode::Corrected { bits: flipped }
                    };
                }
            }
        }
        OlscRefDecode::Corrected { bits: flipped }
    }

    fn residual_count(&self, data: &OlscBlock, stored: &[bool]) -> usize {
        let mut n = 0;
        for (g, group) in self.masks.iter().enumerate() {
            for (cls, mask) in group.iter().enumerate() {
                if Self::block_parity(data, mask) != stored[g * self.m + cls] {
                    n += 1;
                }
            }
        }
        n
    }
}

/// The scalar OLSC line codec: the line split bit by bit into blocks,
/// checkbits as one `bool` each, block-major.
pub struct OlscLine {
    codec: Olsc,
    blocks: usize,
}

impl OlscLine {
    pub fn new(m: usize, t: usize) -> Self {
        let codec = Olsc::new(m, t);
        let blocks = LINE_BITS / codec.k;
        OlscLine { codec, blocks }
    }

    pub fn check_bits(&self) -> usize {
        self.blocks * self.codec.check_bits()
    }

    fn split(&self, line: &Line512) -> Vec<OlscBlock> {
        let k = self.codec.k;
        let mut out = Vec::with_capacity(self.blocks);
        for b in 0..self.blocks {
            let mut block = [0u64; 4];
            for bit in 0..k {
                if line.bit(b * k + bit) {
                    block[bit / 64] |= 1u64 << (bit % 64);
                }
            }
            out.push(block);
        }
        out
    }

    pub fn encode(&self, line: &Line512) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.check_bits());
        for block in self.split(line) {
            out.extend(self.codec.encode(&block));
        }
        out
    }

    pub fn decode(&self, line: &mut Line512, stored: &[bool]) -> OlscRefDecode {
        assert_eq!(stored.len(), self.check_bits(), "checkbit count mismatch");
        let k = self.codec.k;
        let per_block = self.codec.check_bits();
        let mut all_flipped = Vec::new();
        let mut clean = true;
        for (b, mut block) in self.split(line).into_iter().enumerate() {
            let stored_block = &stored[b * per_block..(b + 1) * per_block];
            match self.codec.decode(&mut block, stored_block) {
                OlscRefDecode::Clean => {}
                OlscRefDecode::Corrected { bits } => {
                    clean = false;
                    for bit in bits {
                        let idx = b * k + bit;
                        line.flip_bit(idx);
                        all_flipped.push(idx);
                    }
                }
                OlscRefDecode::Detected => return OlscRefDecode::Detected,
            }
        }
        if clean {
            OlscRefDecode::Clean
        } else {
            OlscRefDecode::Corrected { bits: all_flipped }
        }
    }
}

/// Packs checkbits into payload words, bit `i` at word `i / 64`.
pub fn pack_olsc(bits: &[bool]) -> OlscCheck {
    let mut out = [0u64; 4];
    for (i, &b) in bits.iter().enumerate() {
        if b {
            out[i / 64] |= 1 << (i % 64);
        }
    }
    out
}

/// The first `n` checkbits of payload words.
pub fn unpack_olsc(words: &OlscCheck, n: usize) -> Vec<bool> {
    (0..n)
        .map(|i| (words[i / 64] >> (i % 64)) & 1 == 1)
        .collect()
}

/// DEC-TED generator polynomial and whole-codeword syndrome tables.
struct DectedTables {
    /// `m1(x) * m3(x)`, degree 20.
    generator: u64,
    /// `s1[byte_idx][byte]`: XOR of `alpha^degree` over the set bits.
    s1: Vec<[u16; 256]>,
    /// Likewise for `alpha^(3 * degree)`.
    s3: Vec<[u16; 256]>,
}

fn dected_tables() -> &'static DectedTables {
    static TABLES: OnceLock<DectedTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let m1 = minimal_polynomial(1) as u64;
        let m3 = minimal_polynomial(3) as u64;
        let mut generator = 0u64;
        for i in 0..=10 {
            if (m1 >> i) & 1 == 1 {
                generator ^= m3 << i;
            }
        }
        let nbytes = CODE_LEN.div_ceil(8);
        let mut s1 = vec![[0u16; 256]; nbytes];
        let mut s3 = vec![[0u16; 256]; nbytes];
        for (byte_idx, (t1, t3)) in s1.iter_mut().zip(s3.iter_mut()).enumerate() {
            for byte in 0u16..256 {
                let mut a1 = Gf10::ZERO;
                let mut a3 = Gf10::ZERO;
                for bit in 0..8 {
                    let degree = byte_idx * 8 + bit;
                    if (byte >> bit) & 1 == 1 && degree < CODE_LEN {
                        a1 = a1.add(Gf10::alpha_pow(degree));
                        a3 = a3.add(Gf10::alpha_pow(3 * degree));
                    }
                }
                t1[byte as usize] = a1.0;
                t3[byte as usize] = a3.0;
            }
        }
        DectedTables { generator, s1, s3 }
    })
}

/// DEC-TED checkbits from an LFSR stepped once per data bit, highest
/// degree first.
pub fn dected_encode(data: &Line512) -> DectedCode {
    let generator = dected_tables().generator;
    let mut reg: u64 = 0;
    for i in (0..LINE_BITS).rev() {
        let fb = ((reg >> (BCH_BITS - 1)) & 1) ^ u64::from(data.bit(i));
        reg = (reg << 1) & ((1 << BCH_BITS) - 1);
        if fb == 1 {
            reg ^= generator & ((1 << BCH_BITS) - 1);
        }
    }
    let mut code = reg as u32;
    if data.parity() ^ ((reg.count_ones() % 2) == 1) {
        code |= 1 << BCH_BITS;
    }
    DectedCode(code)
}

/// DEC-TED syndromes from per-byte tables over all 532 codeword bits.
pub fn dected_observe(data: &Line512, stored: DectedCode) -> DectedObservation {
    let tables = dected_tables();
    let check = stored.0 & ((1 << BCH_BITS) - 1);
    let mut buf = [0u8; CODE_LEN / 8 + 1];
    buf[0] = (check & 0xFF) as u8;
    buf[1] = ((check >> 8) & 0xFF) as u8;
    buf[2] = ((check >> 16) & 0x0F) as u8;
    for (w_idx, w) in data.words().iter().enumerate() {
        for b in 0..8 {
            let byte = ((w >> (8 * b)) & 0xFF) as u8;
            let bit_base = w_idx * 64 + b * 8 + BCH_BITS;
            buf[bit_base / 8] |= byte << (bit_base % 8);
            if !bit_base.is_multiple_of(8) && bit_base / 8 + 1 < buf.len() {
                buf[bit_base / 8 + 1] |= byte >> (8 - bit_base % 8);
            }
        }
    }
    let mut s1 = Gf10::ZERO;
    let mut s3 = Gf10::ZERO;
    let mut ones = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        s1 = s1.add(Gf10(tables.s1[i][byte as usize]));
        s3 = s3.add(Gf10(tables.s3[i][byte as usize]));
        ones += byte.count_ones();
    }
    let stored_overall = (stored.0 >> BCH_BITS) & 1 == 1;
    DectedObservation {
        s1,
        s3,
        parity_mismatch: (ones % 2 == 1) != stored_overall,
    }
}

fn degree_to_data_bit(degree: usize) -> Option<usize> {
    (degree >= BCH_BITS).then(|| degree - BCH_BITS)
}

/// Interprets DEC-TED syndromes, locating two errors by trying every
/// codeword degree (Chien search).
pub fn dected_interpret(obs: DectedObservation) -> DectedDecode {
    let DectedObservation {
        s1,
        s3,
        parity_mismatch,
    } = obs;
    if parity_mismatch {
        if s1.is_zero() && s3.is_zero() {
            return DectedDecode::Corrected { bits: [None, None] };
        }
        if !s1.is_zero() && s3 == s1.pow(3) {
            let degree = s1.log();
            if degree < CODE_LEN {
                return DectedDecode::Corrected {
                    bits: [degree_to_data_bit(degree), None],
                };
            }
        }
        return DectedDecode::Detected;
    }
    if s1.is_zero() && s3.is_zero() {
        return DectedDecode::Clean;
    }
    if s1.is_zero() {
        return DectedDecode::Detected;
    }
    let prod = s3.add(s1.pow(3)).mul(s1.inv());
    if prod.is_zero() {
        return DectedDecode::Detected;
    }
    let mut found: [Option<usize>; 2] = [None, None];
    let mut count = 0;
    for degree in 0..CODE_LEN {
        let x = Gf10::alpha_pow(degree);
        if x.mul(x).add(s1.mul(x)).add(prod).is_zero() {
            if count == 2 {
                return DectedDecode::Detected;
            }
            found[count] = Some(degree);
            count += 1;
        }
    }
    match found {
        [Some(a), Some(b)] => DectedDecode::Corrected {
            bits: [degree_to_data_bit(a), degree_to_data_bit(b)],
        },
        _ => DectedDecode::Detected,
    }
}

/// Scalar DEC-TED decode: byte-table syndromes, then the Chien search.
pub fn dected_decode(data: &Line512, stored: DectedCode) -> DectedDecode {
    dected_interpret(dected_observe(data, stored))
}
