//! Synthetic GPGPU workload traces — the stand-in for the paper's ten HPC
//! gem5 workloads (§5.1).
//!
//! The paper's traces (XSBench, FFT and eight more DOE proxy apps run under
//! gem5's GCN3 model) are not public. Figures 4 and 5 depend on three
//! workload properties the generators here control directly: memory
//! footprint relative to the 2 MB L2, reuse pattern (random-reuse, strided
//! passes, stencil neighbourhoods, streaming), and compute-to-memory ratio.
//! Each generator is named for the proxy app whose L2-level access signature
//! it imitates, and is calibrated so the suite splits into the paper's
//! compute-bound (MPKI < 50) and memory-bound (MPKI > 100) buckets.
//!
//! All traces are deterministic functions of `(workload, params, cu)`.

pub mod analysis;

use killi_fault::rng::StreamRng;
use killi_sim::trace::{Trace, TraceOp};

/// Trace generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TraceParams {
    /// Number of compute units (one op stream each).
    pub cus: usize,
    /// Approximate operations per CU stream.
    pub ops_per_cu: usize,
    /// Trace seed.
    pub seed: u64,
    /// L2 capacity the footprints are scaled against.
    pub l2_bytes: usize,
}

impl TraceParams {
    /// The paper's configuration: 8 CUs over a 2 MB L2.
    pub fn paper(ops_per_cu: usize, seed: u64) -> Self {
        TraceParams {
            cus: 8,
            ops_per_cu,
            seed,
            l2_bytes: 2 * 1024 * 1024,
        }
    }
}

/// The ten workloads of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Monte-Carlo neutronics: random lookups into a cross-section table
    /// about the size of the L2. Memory-bound, capacity-sensitive.
    Xsbench,
    /// Radix-2 passes with doubling strides over a >L2 array; read-modify-
    /// write. Memory-bound, capacity- and conflict-sensitive.
    Fft,
    /// Hydrodynamics stencil: 7-point neighbourhoods over a 2x-L2 grid.
    Lulesh,
    /// Molecular dynamics with cell lists: clustered neighbour reads, heavy
    /// force compute. Compute-bound.
    Comd,
    /// Multigrid V-cycles: level footprints halving from 1.25x L2 down.
    Hpgmg,
    /// Discrete-ordinates sweep: pure streaming over a footprint far beyond
    /// the L2. High MPKI but insensitive to capacity loss.
    Snap,
    /// Adaptive mesh refinement: long block-local phases with occasional
    /// jumps between blocks. Compute-bound.
    Miniamr,
    /// Unstructured-mesh hydro: indirection-driven gathers over a 0.75x-L2
    /// mesh. Mid memory-bound.
    Pennant,
    /// Cosmology particle forces: small resident chunk, very high compute.
    Hacc,
    /// Spectral-element solver: small dense matrices, cache-resident.
    Nekbone,
}

impl Workload {
    /// All ten workloads in the order figures report them.
    pub const ALL: [Workload; 10] = [
        Workload::Xsbench,
        Workload::Fft,
        Workload::Lulesh,
        Workload::Comd,
        Workload::Hpgmg,
        Workload::Snap,
        Workload::Miniamr,
        Workload::Pennant,
        Workload::Hacc,
        Workload::Nekbone,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Xsbench => "xsbench",
            Workload::Fft => "fft",
            Workload::Lulesh => "lulesh",
            Workload::Comd => "comd",
            Workload::Hpgmg => "hpgmg",
            Workload::Snap => "snap",
            Workload::Miniamr => "miniamr",
            Workload::Pennant => "pennant",
            Workload::Hacc => "hacc",
            Workload::Nekbone => "nekbone",
        }
    }

    /// The comma-separated list of every workload name (for error
    /// messages and CLI help).
    pub fn all_names() -> String {
        Self::ALL
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Expected Figure 5 bucket: true for the MPKI > 100 (memory-bound)
    /// plot.
    pub fn is_memory_bound(&self) -> bool {
        matches!(
            self,
            Workload::Xsbench
                | Workload::Fft
                | Workload::Snap
                | Workload::Pennant
                | Workload::Lulesh
        )
    }

    /// Generates the multi-CU trace.
    ///
    /// # Panics
    ///
    /// Panics if `params.cus == 0`.
    pub fn trace(&self, params: &TraceParams) -> Trace {
        Trace::from_vecs(self.ops(params))
    }

    /// Generates the raw per-CU op vectors behind [`Self::trace`]. Callers
    /// that replay one workload trace many times (the sweep's scheme grid)
    /// generate these once, share them in an `Arc`, and wrap each replay
    /// with [`Trace::from_shared`].
    ///
    /// # Panics
    ///
    /// Panics if `params.cus == 0`.
    pub fn ops(&self, params: &TraceParams) -> Vec<Vec<TraceOp>> {
        assert!(params.cus > 0, "need at least one CU");
        (0..params.cus)
            .map(|cu| self.ops_for_cu(params, cu))
            .collect()
    }

    fn ops_for_cu(&self, params: &TraceParams, cu: usize) -> Vec<TraceOp> {
        let mut rng = StreamRng::new(
            params.seed ^ (cu as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ self.id(),
        );
        let l2 = params.l2_bytes as u64;
        let n = params.ops_per_cu;
        match self {
            Workload::Xsbench => gen_table_lookup(&mut rng, n, cu, l2),
            Workload::Fft => gen_fft(&mut rng, n, cu, l2),
            Workload::Lulesh => gen_stencil(&mut rng, n, cu, l2),
            Workload::Comd => gen_cell_list(&mut rng, n, cu, l2),
            Workload::Hpgmg => gen_multigrid(&mut rng, n, cu, l2),
            Workload::Snap => gen_stream(&mut rng, n, cu, l2),
            Workload::Miniamr => gen_amr_blocks(&mut rng, n, cu, l2),
            Workload::Pennant => gen_gather(&mut rng, n, cu, l2),
            Workload::Hacc => gen_particle(&mut rng, n, cu, l2),
            Workload::Nekbone => gen_small_matrix(&mut rng, n, cu, l2),
        }
    }

    fn id(&self) -> u64 {
        Workload::ALL.iter().position(|w| w == self).unwrap() as u64 * 0x1234_5677
    }
}

/// The error of an unrecognized workload name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownWorkload(pub String);

impl std::fmt::Display for UnknownWorkload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "a known workload (choose from {})",
            Workload::all_names()
        )
    }
}

impl std::error::Error for UnknownWorkload {}

impl std::str::FromStr for Workload {
    type Err = UnknownWorkload;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Workload::ALL
            .iter()
            .copied()
            .find(|w| w.name() == s)
            .ok_or_else(|| UnknownWorkload(s.to_string()))
    }
}

/// XSBench: uniform random lookups into one shared table (~1.1x L2), 2
/// nuclide reads per lookup plus a little compute.
fn gen_table_lookup(rng: &mut StreamRng, n: usize, _cu: usize, l2: u64) -> Vec<TraceOp> {
    let table = l2 + l2 / 8;
    let mut ops = Vec::with_capacity(n);
    while ops.len() + 4 <= n {
        let e = rng.next_below(table / 64) * 64;
        ops.push(TraceOp::Load(e));
        ops.push(TraceOp::Load(e + 64));
        ops.push(TraceOp::Compute(2));
        ops.push(TraceOp::Load(table + rng.next_below(l2 / 4 / 64) * 64));
    }
    ops
}

/// FFT: butterfly passes over a 1.5x-L2 array interleaved with
/// bit-reversal permutation gathers (random reuse), read-modify-write.
/// The permutation phase gives the graded capacity sensitivity the paper's
/// FFT exhibits (it is their most scheme-sensitive workload).
fn gen_fft(rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let array = l2 + l2 / 2;
    let points = array / 64;
    let mut ops = Vec::with_capacity(n);
    let mut stride: u64 = 1;
    let mut idx = (cu as u64 * 977) % points;
    while ops.len() + 7 <= n {
        // Butterfly: two strided operands, updated in place.
        let a = (idx % points) * 64;
        let b = ((idx + stride) % points) * 64;
        ops.push(TraceOp::Load(a));
        ops.push(TraceOp::Load(b));
        ops.push(TraceOp::Compute(1));
        ops.push(TraceOp::Store(a));
        // Bit-reversal permutation: a uniformly random partner element.
        ops.push(TraceOp::Load(rng.next_below(points) * 64));
        ops.push(TraceOp::Load(rng.next_below(points) * 64));
        ops.push(TraceOp::Compute(1));
        idx += 2 * stride;
        if idx >= points {
            idx = rng.next_below(stride.min(points));
            stride *= 2;
            if stride >= points / 2 {
                stride = 1;
            }
        }
    }
    ops
}

/// LULESH: 7-point stencil over a 2x-L2 grid with planes assigned per CU.
fn gen_stencil(rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let grid = 2 * l2;
    let lines = grid / 64;
    let dim = 64u64; // lines per row
    let plane = dim * dim;
    let mut ops = Vec::with_capacity(n);
    let mut i = (cu as u64 * plane * 3) % lines;
    while ops.len() + 9 <= n {
        for neighbour in [0, 1, dim, plane] {
            let fwd = neighbour % lines;
            ops.push(TraceOp::Load(((i + fwd) % lines) * 64));
            ops.push(TraceOp::Load(((i + lines - fwd.max(1)) % lines) * 64));
        }
        ops.push(TraceOp::Compute(4));
        if rng.next_below(4) == 0 {
            ops.push(TraceOp::Store((i % lines) * 64));
        }
        i = (i + 1) % lines;
    }
    ops
}

/// CoMD: per-CU particle cells (~0.2x L2 total), long force loops over the
/// cell neighbourhood, occasional neighbour-cell reads.
fn gen_cell_list(rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let footprint = l2 / 5;
    let cell_bytes = 8 * 1024u64;
    let cells = (footprint / cell_bytes).max(1);
    let mut ops = Vec::with_capacity(n);
    let mut cell = cu as u64 % cells;
    while ops.len() + 8 <= n {
        let base = cell * cell_bytes;
        for _ in 0..3 {
            ops.push(TraceOp::Load(base + rng.next_below(cell_bytes / 64) * 64));
        }
        ops.push(TraceOp::Compute(24));
        ops.push(TraceOp::Load(
            ((cell + 1) % cells) * cell_bytes + rng.next_below(cell_bytes / 64) * 64,
        ));
        ops.push(TraceOp::Compute(12));
        if rng.next_below(8) == 0 {
            ops.push(TraceOp::Store(base + rng.next_below(cell_bytes / 64) * 64));
        }
        if rng.next_below(16) == 0 {
            cell = rng.next_below(cells);
        }
    }
    ops
}

/// HPGMG: V-cycles over levels whose footprints halve from 1.25x L2.
fn gen_multigrid(rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let top = l2 + l2 / 4;
    let mut ops = Vec::with_capacity(n);
    let levels = 5;
    let mut level = 0usize;
    let mut down = true;
    let mut idx = cu as u64 * 131;
    while ops.len() + 4 <= n {
        let size = (top >> level).max(64 * 64);
        let lines = size / 64;
        // Smooth: a short sequential burst with occasional writes.
        for _ in 0..2 {
            ops.push(TraceOp::Load((idx % lines) * 64));
            idx += 1;
        }
        ops.push(TraceOp::Compute(3));
        if rng.next_below(8) == 0 {
            ops.push(TraceOp::Store(((idx + 7) % lines) * 64));
        }
        if idx.is_multiple_of((lines / 4).max(1)) {
            if down {
                level += 1;
                if level == levels {
                    down = false;
                }
            } else if level == 0 {
                down = true;
            } else {
                level -= 1;
            }
        }
    }
    ops
}

/// SNAP: pure wavefront streaming over an 8x-L2 footprint — compulsory
/// misses dominate, so capacity loss barely matters.
fn gen_stream(_rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let space = 8 * l2;
    let lines = space / 64;
    let mut ops = Vec::with_capacity(n);
    let mut i = (cu as u64 * lines / 8) % lines;
    while ops.len() + 4 <= n {
        ops.push(TraceOp::Load((i % lines) * 64));
        ops.push(TraceOp::Load(((i + 1) % lines) * 64));
        ops.push(TraceOp::Compute(5));
        ops.push(TraceOp::Store(((i + lines / 2) % lines) * 64));
        i += 2;
    }
    ops
}

/// miniAMR: long dwell inside a 32 KB block, then jump to another block of
/// a 0.4x-L2 set; mostly compute.
fn gen_amr_blocks(rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let footprint = 2 * l2 / 5;
    let block_bytes = 32 * 1024u64;
    let blocks = (footprint / block_bytes).max(1);
    let mut ops = Vec::with_capacity(n);
    let mut block = cu as u64 % blocks;
    while ops.len() + 6 <= n {
        let base = block * block_bytes;
        for _ in 0..2 {
            ops.push(TraceOp::Load(base + rng.next_below(block_bytes / 64) * 64));
        }
        ops.push(TraceOp::Compute(14));
        ops.push(TraceOp::Load(base + rng.next_below(block_bytes / 64) * 64));
        ops.push(TraceOp::Compute(10));
        if rng.next_below(32) == 0 {
            block = rng.next_below(blocks);
            ops.push(TraceOp::Store(base));
        }
    }
    ops
}

/// PENNANT: gathers driven by an indirection array over a 1.5x-L2 mesh.
fn gen_gather(rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let mesh = l2 + l2 / 2;
    let index = l2 / 8;
    let mut ops = Vec::with_capacity(n);
    let mut i = cu as u64 * 59;
    while ops.len() + 5 <= n {
        ops.push(TraceOp::Load((i % (index / 64)) * 64)); // indirection read
        let target = mesh / 64;
        ops.push(TraceOp::Load(index + rng.next_below(target) * 64));
        ops.push(TraceOp::Load(index + rng.next_below(target) * 64));
        ops.push(TraceOp::Compute(3));
        if rng.next_below(6) == 0 {
            ops.push(TraceOp::Store(index + rng.next_below(target) * 64));
        }
        i += 1;
    }
    ops
}

/// HACC: a small per-CU resident particle chunk with very heavy compute.
fn gen_particle(rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let chunk = (l2 / 64).max(4096); // per-CU slice of a ~0.125x-L2 set
    let base = cu as u64 * chunk;
    let mut ops = Vec::with_capacity(n);
    while ops.len() + 5 <= n {
        ops.push(TraceOp::Load(base + rng.next_below(chunk / 64) * 64));
        ops.push(TraceOp::Load(base + rng.next_below(chunk / 64) * 64));
        ops.push(TraceOp::Compute(40));
        if rng.next_below(10) == 0 {
            ops.push(TraceOp::Store(base + rng.next_below(chunk / 64) * 64));
        }
    }
    ops
}

/// Nekbone: tiny dense-matrix kernels, essentially cache-resident.
fn gen_small_matrix(rng: &mut StreamRng, n: usize, cu: usize, l2: u64) -> Vec<TraceOp> {
    let matrices = (l2 / 80).max(4096);
    let base = cu as u64 * matrices;
    let mut ops = Vec::with_capacity(n);
    let mut row = 0u64;
    while ops.len() + 4 <= n {
        ops.push(TraceOp::Load(base + (row % (matrices / 64)) * 64));
        ops.push(TraceOp::Compute(30));
        row += 1;
        if rng.next_below(64) == 0 {
            ops.push(TraceOp::Store(base + rng.next_below(matrices / 64) * 64));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> TraceParams {
        TraceParams {
            cus: 2,
            ops_per_cu: 2000,
            seed: 42,
            l2_bytes: 64 * 1024,
        }
    }

    #[test]
    fn all_ten_workloads_generate() {
        for w in Workload::ALL {
            let t = w.trace(&params());
            assert_eq!(t.cus(), 2, "{}", w.name());
            let ops = &t.per_cu()[0];
            assert!(
                ops.len() >= params().ops_per_cu - 16,
                "{}: {} ops",
                w.name(),
                ops.len()
            );
        }
    }

    #[test]
    fn traces_are_deterministic() {
        for w in [Workload::Xsbench, Workload::Comd, Workload::Fft] {
            let a = w.trace(&params());
            let b = w.trace(&params());
            assert_eq!(a.per_cu(), b.per_cu(), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut p2 = params();
        p2.seed = 43;
        let a = Workload::Xsbench.trace(&params());
        let b = Workload::Xsbench.trace(&p2);
        assert_ne!(a.per_cu()[0], b.per_cu()[0]);
    }

    #[test]
    fn cus_see_different_streams() {
        let t = Workload::Lulesh.trace(&params());
        assert_ne!(t.per_cu()[0], t.per_cu()[1]);
    }

    #[test]
    fn addresses_are_line_aligned() {
        for w in Workload::ALL {
            for &op in w.trace(&params()).per_cu()[0].iter().take(500) {
                if let TraceOp::Load(a) | TraceOp::Store(a) = op {
                    assert_eq!(a % 64, 0, "{}: unaligned {a:#x}", w.name());
                }
            }
        }
    }

    #[test]
    fn compute_bound_workloads_have_more_compute() {
        let ratio = |w: Workload| {
            let mut mem = 0u64;
            let mut comp = 0u64;
            for &op in &w.trace(&params()).per_cu()[0] {
                match op {
                    TraceOp::Compute(c) => comp += u64::from(c),
                    _ => mem += 1,
                }
            }
            comp as f64 / mem as f64
        };
        assert!(ratio(Workload::Hacc) > ratio(Workload::Xsbench));
        assert!(ratio(Workload::Nekbone) > ratio(Workload::Fft));
        assert!(ratio(Workload::Comd) > ratio(Workload::Snap));
    }

    #[test]
    fn memory_bound_bucket_is_five_and_five() {
        let memory = Workload::ALL.iter().filter(|w| w.is_memory_bound()).count();
        assert_eq!(memory, 5);
    }

    #[test]
    fn paper_params_shape() {
        let p = TraceParams::paper(1000, 1);
        assert_eq!(p.cus, 8);
        assert_eq!(p.l2_bytes, 2 * 1024 * 1024);
        let t = Workload::Snap.trace(&p);
        assert_eq!(t.cus(), 8);
    }
}
