//! Deterministic counter-based pseudo-random primitives.
//!
//! Fault maps must be *pure functions* of (seed, voltage, frequency) so that
//! the paper's monotonicity property — a cell failing at voltage `V` fails at
//! every voltage below `V` — holds by construction: each cell draws one
//! uniform threshold from a stateless hash and is faulty whenever the
//! voltage-dependent failure probability exceeds it.
//!
//! Every persistent fault is drawn through one crate-private kernel,
//! `for_each_failing_cell`: given a line's hoisted [`hash3_base`] it
//! visits, in cell order, each cell whose draw falls below its
//! threshold. On x86-64 it hashes 64 cells per block into a branch-free
//! hit mask, compiled for AVX-512 or AVX2 and picked at run time; other
//! CPUs run the per-cell loop, which is also the test oracle of the
//! blocked clones. The `transient` overlay hashes no cell it does not
//! flip: its flips are drawn per flip, as geometric gaps or bursts (see
//! [`crate::model`]).

use std::ops::Range;

/// SplitMix64 finalizer: avalanches a 64-bit value.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless hash of a (seed, a, b) triple.
#[inline]
pub fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407)) ^ b)
}

/// First stage of [`hash3`]: the per-`a` base. Inner loops that hash many
/// `b` values under one `(seed, a)` pair hoist this out and finish each
/// draw with [`hash3_with_base`]; the composition is bit-identical to
/// calling `hash3` directly.
#[inline]
pub fn hash3_base(seed: u64, a: u64) -> u64 {
    splitmix64(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407))
}

/// Second stage of [`hash3`]: finishes a draw from a hoisted
/// [`hash3_base`]. `hash3_with_base(hash3_base(seed, a), b) == hash3(seed, a, b)`.
#[inline]
pub fn hash3_with_base(base: u64, b: u64) -> u64 {
    splitmix64(base ^ b)
}

/// Maps a hash to a uniform double in `[0, 1)`.
#[inline]
pub fn to_unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Exact integer form of the threshold test `to_unit(h) < p`:
/// `(h >> 11) < unit_threshold(p)` holds for precisely the same `(h, p)`
/// pairs, but costs one integer compare per draw instead of an
/// int-to-float conversion and a float compare.
///
/// Why it is exact: `to_unit(h)` is the real number `k * 2^-53` with
/// `k = h >> 11 < 2^53`, so `to_unit(h) < p  iff  k < p * 2^53` in real
/// arithmetic. Scaling an f64 by `2^53` only shifts its exponent (no
/// rounding, and `p <= 1` rules out overflow), `ceil` of an f64 below
/// `2^53` is exact, and for integer `k` the conditions `k < x` and
/// `k < ceil(x)` agree for every real `x`.
#[inline]
pub fn unit_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Converts 64 uniform bits to a standard-normal deviate via the inverse
/// CDF (Acklam's rational approximation; far more accuracy than the fault
/// model needs): the variation draw of every line, column group and die.
pub fn standard_normal(h: u64) -> f64 {
    let u = to_unit(h).clamp(1e-12, 1.0 - 1e-12);
    // Coefficients of Acklam's approximation.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if u < P_LOW {
        let q = (-2.0 * u.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if u <= 1.0 - P_LOW {
        let q = u - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - u).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// The failure thresholds of one line's cells in a
/// [`for_each_failing_cell`] pass: a cell fails when its key `h >> 11`
/// is below its threshold.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellThresholds<'a> {
    /// One threshold for every cell.
    Uniform(u64),
    /// Cell `c`'s threshold is `per_cell[c]`.
    PerCell(&'a [u64]),
}

impl CellThresholds<'_> {
    #[inline]
    fn at(self, cell: usize) -> u64 {
        match self {
            CellThresholds::Uniform(t) => t,
            CellThresholds::PerCell(per_cell) => per_cell[cell],
        }
    }
}

/// Visits, in cell order, each cell `c` of `cells` whose draw `h =
/// hash3_with_base(base, c)` fails, `(h >> 11) < thresholds.at(c)`, and
/// passes `(c, h)` to `hit`. Hashes nothing when every threshold is 0.
/// Bit-identical to hashing cell by cell on every CPU.
///
/// # Panics
///
/// Panics if per-cell thresholds do not cover `cells`.
pub(crate) fn for_each_failing_cell(
    base: u64,
    cells: Range<u16>,
    thresholds: CellThresholds<'_>,
    mut hit: impl FnMut(u16, u64),
) {
    let none_fail = match thresholds {
        CellThresholds::Uniform(t) => t == 0,
        CellThresholds::PerCell(per_cell) => per_cell
            [usize::from(cells.start)..usize::from(cells.end)]
            .iter()
            .all(|&t| t == 0),
    };
    if none_fail {
        return;
    }
    Kernel::detect().run(base, cells, thresholds, &mut hit);
}

/// One implementation of [`for_each_failing_cell`]'s draw pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// One hash and one compare per cell: other CPUs, and the oracle.
    PerCell,
    /// The blocked pass compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// The blocked pass compiled for AVX-512 (F, DQ, VL and BW); DQ turns
    /// the hash's 64-bit multiplies into `vpmullq`.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl Kernel {
    /// The fastest kernel this CPU runs.
    #[inline]
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        {
            if Kernel::Avx512.supported() {
                return Kernel::Avx512;
            }
            if Kernel::Avx2.supported() {
                return Kernel::Avx2;
            }
        }
        Kernel::PerCell
    }

    /// Whether this CPU has every feature the kernel is compiled with.
    #[inline]
    fn supported(self) -> bool {
        match self {
            Kernel::PerCell => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
                    && is_x86_feature_detected!("avx512bw")
            }
        }
    }

    /// Runs the draw pass with this kernel.
    ///
    /// # Panics
    ///
    /// Panics if this CPU does not support the kernel.
    fn run<F: FnMut(u16, u64)>(
        self,
        base: u64,
        cells: Range<u16>,
        thresholds: CellThresholds<'_>,
        hit: &mut F,
    ) {
        assert!(
            self.supported(),
            "{self:?} kernel needs CPU features this host lacks"
        );
        match self {
            Kernel::PerCell => per_cell_pass(base, cells, thresholds, hit),
            // SAFETY: `supported()` just checked that this CPU has AVX2,
            // the one feature `blocked_pass_avx2` is compiled with.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { blocked_pass_avx2(base, cells, thresholds, hit) },
            // SAFETY: `supported()` just checked that this CPU has
            // AVX-512 F, DQ, VL and BW, every feature
            // `blocked_pass_avx512` is compiled with.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => unsafe { blocked_pass_avx512(base, cells, thresholds, hit) },
        }
    }
}

/// The per-cell draw pass: one hash and one compare per cell.
fn per_cell_pass<F: FnMut(u16, u64)>(
    base: u64,
    cells: Range<u16>,
    thresholds: CellThresholds<'_>,
    hit: &mut F,
) {
    for cell in cells {
        let h = hash3_with_base(base, u64::from(cell));
        if (h >> 11) < thresholds.at(usize::from(cell)) {
            hit(cell, h);
        }
    }
}

/// Cells per block of [`blocked_pass`]: one bit of the hit mask each.
#[cfg(any(target_arch = "x86_64", test))]
const BLOCK: usize = 64;

/// The blocked draw pass, in plain Rust for the compiler to vectorize:
/// it hashes a block of 64 cells, ORs their compares into a hit mask
/// without branches, clears the lanes past the range and walks the set
/// bits. Compiled for baseline x86-64 it is slower than
/// [`per_cell_pass`], so only the `#[target_feature]` clones run it.
#[cfg(any(target_arch = "x86_64", test))]
#[inline(always)]
fn blocked_pass<F: FnMut(u16, u64)>(
    base: u64,
    cells: Range<u16>,
    thresholds: CellThresholds<'_>,
    hit: &mut F,
) {
    let start = usize::from(cells.start);
    let count = usize::from(cells.end.saturating_sub(cells.start));
    let uniform = match thresholds {
        CellThresholds::Uniform(t) => [t; BLOCK],
        CellThresholds::PerCell(_) => [0; BLOCK],
    };
    let mut gathered = [0u64; BLOCK];
    let mut hashes = [0u64; BLOCK];
    for first in (0..count).step_by(BLOCK) {
        let lanes = (count - first).min(BLOCK);
        let block_start = start + first;
        for (k, h) in hashes.iter_mut().enumerate() {
            *h = hash3_with_base(base, (block_start + k) as u64);
        }
        let block_thresholds: &[u64; BLOCK] = match thresholds {
            CellThresholds::Uniform(_) => &uniform,
            CellThresholds::PerCell(per_cell) if lanes == BLOCK => per_cell
                [block_start..block_start + BLOCK]
                .try_into()
                .expect("a block is 64 cells"),
            CellThresholds::PerCell(per_cell) => {
                gathered[..lanes].copy_from_slice(&per_cell[block_start..block_start + lanes]);
                &gathered
            }
        };
        let mut mask = 0u64;
        for (k, (&h, &t)) in hashes.iter().zip(block_thresholds).enumerate() {
            mask |= u64::from((h >> 11) < t) << k;
        }
        if lanes < BLOCK {
            mask &= (1 << lanes) - 1;
        }
        while mask != 0 {
            let k = mask.trailing_zeros() as usize;
            hit((block_start + k) as u16, hashes[k]);
            mask &= mask - 1;
        }
    }
}

/// [`blocked_pass`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blocked_pass_avx2<F: FnMut(u16, u64)>(
    base: u64,
    cells: Range<u16>,
    thresholds: CellThresholds<'_>,
    hit: &mut F,
) {
    blocked_pass(base, cells, thresholds, hit);
}

/// [`blocked_pass`] compiled for AVX-512.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx512bw")]
fn blocked_pass_avx512<F: FnMut(u16, u64)>(
    base: u64,
    cells: Range<u16>,
    thresholds: CellThresholds<'_>,
    hit: &mut F,
) {
    blocked_pass(base, cells, thresholds, hit);
}

/// Hierarchical deterministic seed derivation: folds a domain label and a
/// path of indices into a root seed. Used by the Monte-Carlo sweep engine
/// so that e.g. replicate 3's die seed is a pure function of
/// `(root, "die", 3)` — identical across thread counts and job orders.
///
/// Collision behaviour matches the rest of the counter-based RNG: each
/// step is a full SplitMix64 avalanche, so distinct paths yield
/// independent-looking seeds.
pub fn derive_seed(root: u64, domain: &str, path: &[u64]) -> u64 {
    let mut state = splitmix64(root ^ 0x4B49_4C4C_4944_5256); // "KILLIDRV"
    for byte in domain.bytes() {
        state = splitmix64(state ^ u64::from(byte));
    }
    for &index in path {
        state = splitmix64(state ^ index.wrapping_mul(0xA24B_AED4_963E_E407));
    }
    state
}

/// A small, fast, seedable stream RNG (SplitMix64 sequence) for places that
/// want sequential draws rather than counter addressing.
#[derive(Debug, Clone)]
pub struct StreamRng {
    state: u64,
}

impl StreamRng {
    /// Creates a stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        StreamRng {
            state: splitmix64(seed),
        }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// Uniform double in `[0, 1)`.
    #[inline]
    pub fn next_unit(&mut self) -> f64 {
        to_unit(self.next_u64())
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift; bias is negligible for simulation bounds << 2^64.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash3_is_deterministic_and_sensitive() {
        assert_eq!(hash3(1, 2, 3), hash3(1, 2, 3));
        assert_ne!(hash3(1, 2, 3), hash3(1, 2, 4));
        assert_ne!(hash3(1, 2, 3), hash3(1, 3, 3));
        assert_ne!(hash3(1, 2, 3), hash3(2, 2, 3));
    }

    #[test]
    fn hash3_base_composition_matches_hash3() {
        for seed in [0u64, 1, 42, u64::MAX, 0xDEAD_BEEF] {
            for a in [0u64, 1, 7, 1 << 40, u64::MAX] {
                let base = hash3_base(seed, a);
                for b in [0u64, 1, 559, 0xF00D, u64::MAX] {
                    assert_eq!(hash3_with_base(base, b), hash3(seed, a, b));
                }
            }
        }
    }

    #[test]
    fn unit_threshold_matches_float_comparison() {
        // Exhaustive over interesting hash values crossed with probabilities
        // spanning the model's range, plus thresholds adjacent to exact
        // representable boundaries.
        let hashes: Vec<u64> = (0..4096)
            .map(splitmix64)
            .chain([0, 1, u64::MAX, u64::MAX - 1, 1 << 11, (1 << 11) - 1])
            .collect();
        let ps = [
            0.0,
            1e-12,
            1e-9,
            1e-6,
            1e-3,
            0.25,
            0.5,
            0.5 - f64::EPSILON,
            1.0,
            2.0_f64.powi(-53),
            3.0 * 2.0_f64.powi(-53),
        ];
        for &p in &ps {
            let t = unit_threshold(p);
            for &h in &hashes {
                assert_eq!(
                    (h >> 11) < t,
                    to_unit(h) < p,
                    "mismatch at p={p:e} h={h:#x}"
                );
            }
        }
    }

    /// The draws a pass must visit: the per-cell `hash3_with_base` loop,
    /// written out independently of every kernel.
    fn per_cell_draws(
        base: u64,
        cells: Range<u16>,
        thresholds: CellThresholds<'_>,
    ) -> Vec<(u16, u64)> {
        let mut draws = Vec::new();
        let mut cell = cells.start;
        while cell < cells.end {
            let h = hash3_with_base(base, u64::from(cell));
            if (h >> 11) < thresholds.at(usize::from(cell)) {
                draws.push((cell, h));
            }
            cell += 1;
        }
        draws
    }

    /// The draws of every pass this host can run, each called directly:
    /// the per-cell kernel, each supported blocked clone, the blocked
    /// body compiled for the baseline CPU, and the dispatching entry
    /// point.
    fn every_pass(
        base: u64,
        cells: Range<u16>,
        thresholds: CellThresholds<'_>,
    ) -> Vec<(String, Vec<(u16, u64)>)> {
        let mut kernels = vec![Kernel::PerCell];
        #[cfg(target_arch = "x86_64")]
        kernels.extend([Kernel::Avx2, Kernel::Avx512]);
        let mut passes = Vec::new();
        for kernel in kernels.into_iter().filter(|k| k.supported()) {
            let mut draws = Vec::new();
            kernel.run(base, cells.clone(), thresholds, &mut |c, h| {
                draws.push((c, h));
            });
            passes.push((format!("{kernel:?}"), draws));
        }
        let mut draws = Vec::new();
        blocked_pass(base, cells.clone(), thresholds, &mut |c, h| {
            draws.push((c, h))
        });
        passes.push(("baseline blocked".to_string(), draws));
        let mut draws = Vec::new();
        for_each_failing_cell(base, cells, thresholds, |c, h| draws.push((c, h)));
        passes.push(("dispatched".to_string(), draws));
        passes
    }

    fn assert_every_pass_matches(base: u64, cells: Range<u16>, thresholds: CellThresholds<'_>) {
        let expected = per_cell_draws(base, cells.clone(), thresholds);
        for (name, draws) in every_pass(base, cells.clone(), thresholds) {
            assert_eq!(
                draws, expected,
                "{name} pass differs on base {base:#x}, cells {cells:?}, \
                 thresholds {thresholds:?}"
            );
        }
    }

    /// One group threshold: none, the smallest, every cell, a
    /// log-uniform probability in [1e-9, 0.5], or exactly the key of a
    /// cell in `cells` (which must then not fail).
    fn group_threshold(g: &mut killi_check::Gen, base: u64, cells: Range<u16>) -> u64 {
        match g.usize_in(0, 4) {
            0 => *g.pick(&[0, 1, 1 << 53]),
            1 | 2 => unit_threshold(10f64.powf(g.f64_in(-9.0, 0.5f64.log10()))),
            _ if cells.is_empty() => 1,
            _ => {
                let cell = g.usize_in(usize::from(cells.start), usize::from(cells.end));
                hash3_with_base(base, cell as u64) >> 11
            }
        }
    }

    #[test]
    fn every_kernel_visits_the_per_cell_draws() {
        const CELLS: u16 = 560;
        killi_check::check_cases("every_kernel_visits_the_per_cell_draws", 512, |g| {
            let base = g.u64();
            let start = g.usize_in(0, usize::from(CELLS) + 1) as u16;
            // A quarter of the ranges end at the line's last cell, so
            // most of those end in a partial block.
            let end = if g.bool() && g.bool() {
                CELLS
            } else {
                g.usize_in(usize::from(start), usize::from(CELLS) + 1) as u16
            };
            let uniform = group_threshold(g, base, start..end);
            assert_every_pass_matches(base, start..end, CellThresholds::Uniform(uniform));
            let group = g.usize_in(1, usize::from(CELLS) + 1);
            let mut per_cell = vec![0; usize::from(CELLS)];
            for first in (0..usize::from(CELLS)).step_by(group) {
                let last = (first + group).min(usize::from(CELLS));
                let t = group_threshold(g, base, first as u16..last as u16);
                per_cell[first..last].fill(t);
            }
            assert_every_pass_matches(base, start..end, CellThresholds::PerCell(&per_cell));
        });
    }

    #[test]
    fn every_kernel_visits_every_cell_of_whole_partial_and_empty_blocks() {
        let base = hash3_base(42, 7);
        for cells in [0..560, 7..560, 500..560, 0..64, 1..65, 559..560, 560..560] {
            assert_every_pass_matches(base, cells, CellThresholds::Uniform(1 << 53));
        }
    }

    #[test]
    fn to_unit_in_range() {
        for x in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            let u = to_unit(splitmix64(x));
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn derive_seed_is_deterministic_and_path_sensitive() {
        assert_eq!(derive_seed(42, "die", &[3]), derive_seed(42, "die", &[3]));
        assert_ne!(derive_seed(42, "die", &[3]), derive_seed(42, "die", &[4]));
        assert_ne!(derive_seed(42, "die", &[3]), derive_seed(42, "trace", &[3]));
        assert_ne!(derive_seed(42, "die", &[3]), derive_seed(43, "die", &[3]));
        // Path structure matters: [1, 2] != [2, 1] and != the flat hash.
        assert_ne!(derive_seed(7, "x", &[1, 2]), derive_seed(7, "x", &[2, 1]));
        assert_ne!(derive_seed(7, "x", &[1, 2]), derive_seed(7, "x", &[1]));
    }

    #[test]
    fn stream_is_reproducible() {
        let mut a = StreamRng::new(7);
        let mut b = StreamRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_unit_mean_is_about_half() {
        let mut r = StreamRng::new(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_unit()).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean = {mean}");
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = StreamRng::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
    }
}
