//! Trace characterization: the workload-level properties Figures 4/5
//! actually depend on (footprint, op mix, reuse, write share), computable
//! for any trace — generated or recorded.

use std::collections::HashMap;

use killi_sim::trace::{Trace, TraceOp};

/// Summary statistics of a multi-CU trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Compute units.
    pub cus: usize,
    /// Total operations (memory + compute ops).
    pub ops: u64,
    /// Total instructions (compute ops weighted by their cycle count).
    pub instructions: u64,
    /// Load operations.
    pub loads: u64,
    /// Store operations.
    pub stores: u64,
    /// Distinct 64-byte lines touched.
    pub footprint_lines: u64,
    /// Footprint in bytes.
    pub footprint_bytes: u64,
    /// Mean accesses per touched line (a coarse reuse measure).
    pub mean_reuse: f64,
    /// Fraction of memory accesses that are stores.
    pub write_share: f64,
    /// Compute cycles per memory access.
    pub compute_per_access: f64,
}

impl TraceProfile {
    /// Profiles a trace.
    pub fn of(trace: &Trace) -> Self {
        let cus = trace.cus();
        let mut ops = 0u64;
        let mut instructions = 0u64;
        let mut loads = 0u64;
        let mut stores = 0u64;
        let mut compute = 0u64;
        let mut lines: HashMap<u64, u64> = HashMap::new();
        for stream in trace.per_cu() {
            for &op in stream {
                ops += 1;
                match op {
                    TraceOp::Load(a) => {
                        loads += 1;
                        instructions += 1;
                        *lines.entry(a / 64).or_insert(0) += 1;
                    }
                    TraceOp::Store(a) => {
                        stores += 1;
                        instructions += 1;
                        *lines.entry(a / 64).or_insert(0) += 1;
                    }
                    TraceOp::Compute(c) => {
                        compute += u64::from(c);
                        instructions += u64::from(c);
                    }
                }
            }
        }
        let accesses = loads + stores;
        let footprint_lines = lines.len() as u64;
        TraceProfile {
            cus,
            ops,
            instructions,
            loads,
            stores,
            footprint_lines,
            footprint_bytes: footprint_lines * 64,
            mean_reuse: if footprint_lines == 0 {
                0.0
            } else {
                accesses as f64 / footprint_lines as f64
            },
            write_share: if accesses == 0 {
                0.0
            } else {
                stores as f64 / accesses as f64
            },
            compute_per_access: if accesses == 0 {
                0.0
            } else {
                compute as f64 / accesses as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceParams, Workload};

    fn params() -> TraceParams {
        TraceParams {
            cus: 2,
            ops_per_cu: 5_000,
            seed: 42,
            l2_bytes: 256 * 1024,
        }
    }

    #[test]
    fn profile_counts_are_consistent() {
        let p = TraceProfile::of(&Workload::Xsbench.trace(&params()));
        assert_eq!(p.cus, 2);
        assert!(p.ops > 0);
        assert_eq!(
            p.instructions,
            p.loads + p.stores + ((p.compute_per_access * (p.loads + p.stores) as f64) as u64)
        );
        assert!(p.footprint_bytes > 0);
        assert!((0.0..=1.0).contains(&p.write_share));
    }

    #[test]
    fn footprints_scale_with_the_configured_l2() {
        let small = TraceProfile::of(&Workload::Xsbench.trace(&params()));
        let mut big_params = params();
        big_params.l2_bytes *= 4;
        big_params.ops_per_cu *= 8; // enough ops to touch the larger table
        let big = TraceProfile::of(&Workload::Xsbench.trace(&big_params));
        assert!(
            big.footprint_bytes > 2 * small.footprint_bytes,
            "{} vs {}",
            big.footprint_bytes,
            small.footprint_bytes
        );
    }

    #[test]
    fn compute_bound_kernels_have_high_compute_per_access() {
        let hacc = TraceProfile::of(&Workload::Hacc.trace(&params()));
        let snap = TraceProfile::of(&Workload::Snap.trace(&params()));
        assert!(hacc.compute_per_access > 4.0 * snap.compute_per_access);
    }

    #[test]
    fn streaming_kernels_have_low_reuse() {
        let mut p = params();
        p.ops_per_cu = 20_000;
        let snap = TraceProfile::of(&Workload::Snap.trace(&p));
        let hacc = TraceProfile::of(&Workload::Hacc.trace(&p));
        assert!(snap.mean_reuse < hacc.mean_reuse / 4.0);
    }

    #[test]
    fn write_shares_differ_by_kernel_character() {
        let fft = TraceProfile::of(&Workload::Fft.trace(&params()));
        let xsbench = TraceProfile::of(&Workload::Xsbench.trace(&params()));
        assert!(fft.write_share > xsbench.write_share);
    }
}
