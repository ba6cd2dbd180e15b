//! Main-memory model.
//!
//! Memory is the architectural source of truth: the L2 is write-through, so
//! any detected-but-uncorrectable L2 error is recoverable by refetching from
//! here. Content is synthesized on demand — every line address maps to a
//! deterministic pseudo-random payload, and stores bump a per-line version —
//! so whole-GPU footprints cost a few bytes per *written* line only.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use killi_ecc::bits::Line512;
use killi_fault::rng::{hash3, splitmix64};

/// A fixed (unseeded) hasher for the simulator's integer-keyed maps. They
/// are only probed, never iterated, so their order cannot reach a result.
/// Their keys are line addresses and line ids of the trace being
/// simulated, so colliding keys could only slow the run of whoever chose
/// that trace; SipHash's flood resistance buys nothing here. A folded
/// 64x64-bit multiply spreads line addresses, whose low bits are all zero,
/// over the table.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        let full = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (full as u64) ^ ((full >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// A hash map keyed by simulator-made integers (see [`IntHasher`]).
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// Fixed-latency main memory with synthesized content.
#[derive(Debug, Clone)]
pub struct MainMemory {
    seed: u64,
    latency: u32,
    versions: IntMap<u64, u32>,
    reads: u64,
    writes: u64,
}

impl MainMemory {
    /// Creates a memory with the given access latency in cycles.
    pub fn new(seed: u64, latency: u32) -> Self {
        MainMemory {
            seed,
            latency,
            versions: IntMap::default(),
            reads: 0,
            writes: 0,
        }
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u32 {
        self.latency
    }

    /// The architecturally-correct content of the line containing
    /// `line_addr` (a line-aligned address).
    pub fn line_data(&self, line_addr: u64) -> Line512 {
        let version = self.versions.get(&line_addr).copied().unwrap_or(0);
        Line512::from_seed(hash3(self.seed, splitmix64(line_addr), u64::from(version)))
    }

    /// Performs a read access (for stats) and returns the line content.
    pub fn read(&mut self, line_addr: u64) -> Line512 {
        self.reads += 1;
        self.line_data(line_addr)
    }

    /// Performs a write access: the line's content changes to a fresh
    /// deterministic value (the simulator does not track store payloads at
    /// byte granularity; a store rewrites its line).
    pub fn write(&mut self, line_addr: u64) {
        self.writes += 1;
        *self.versions.entry(line_addr).or_insert(0) += 1;
    }

    /// Advances the *architectural* content of a line without memory
    /// traffic — a store absorbed by a write-back cache. The new value
    /// reaches memory only on [`Self::writeback`].
    pub fn bump_version(&mut self, line_addr: u64) {
        *self.versions.entry(line_addr).or_insert(0) += 1;
    }

    /// A write-back of an already-tracked dirty line: traffic without a
    /// content change.
    pub fn writeback(&mut self, line_addr: u64) {
        self.writes += 1;
        let _ = line_addr;
    }

    /// Clears the access counters (content versions persist).
    pub fn reset_counters(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }

    /// Number of reads serviced.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of writes serviced.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_is_deterministic() {
        let m = MainMemory::new(1, 300);
        assert_eq!(m.line_data(0x1000), m.line_data(0x1000));
        assert_ne!(m.line_data(0x1000), m.line_data(0x1040));
    }

    #[test]
    fn writes_change_content() {
        let mut m = MainMemory::new(1, 300);
        let before = m.line_data(0x40);
        m.write(0x40);
        let after = m.line_data(0x40);
        assert_ne!(before, after);
        m.write(0x40);
        assert_ne!(after, m.line_data(0x40));
        assert_eq!(m.writes(), 2);
    }

    #[test]
    fn writes_do_not_alias_other_lines() {
        let mut m = MainMemory::new(2, 300);
        let other = m.line_data(0x80);
        m.write(0x40);
        assert_eq!(m.line_data(0x80), other);
    }

    #[test]
    fn read_counts() {
        let mut m = MainMemory::new(3, 300);
        let a = m.read(0);
        let b = m.read(0);
        assert_eq!(a, b);
        assert_eq!(m.reads(), 2);
    }

    #[test]
    fn bump_version_changes_content_without_traffic() {
        let mut m = MainMemory::new(4, 300);
        let before = m.line_data(0x40);
        m.bump_version(0x40);
        assert_ne!(m.line_data(0x40), before);
        assert_eq!(m.writes(), 0);
        m.writeback(0x40);
        assert_eq!(m.writes(), 1);
    }

    #[test]
    fn different_seeds_differ() {
        let a = MainMemory::new(10, 300);
        let b = MainMemory::new(11, 300);
        assert_ne!(a.line_data(0x40), b.line_data(0x40));
    }
}
