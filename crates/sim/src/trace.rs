//! Trace operations consumed by the compute-unit model.
//!
//! Workload generators (the `killi-workloads` crate) produce one op stream
//! per compute unit; the simulator executes them in order with a bounded
//! outstanding-load window, which is how a GPU wavefront scheduler hides
//! memory latency.

use std::sync::Arc;

/// One operation in a compute unit's instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Load from a byte address.
    Load(u64),
    /// Store to a byte address (write-through; bypasses the L2 per the
    /// paper's footnote 2).
    Store(u64),
    /// `n` cycles of compute, counting `n` instructions.
    Compute(u32),
}

/// A complete multi-CU workload trace: one op buffer per compute unit,
/// shared rather than copied, so every simulation of one (workload, seed)
/// — e.g. every scheme cell of a sweep replicate — replays the same
/// buffer.
pub struct Trace {
    per_cu: Arc<Vec<Vec<TraceOp>>>,
}

impl Trace {
    /// Builds a trace from in-memory per-CU op vectors.
    ///
    /// # Panics
    ///
    /// Panics if `per_cu` is empty.
    pub fn from_vecs(per_cu: Vec<Vec<TraceOp>>) -> Self {
        Self::from_shared(Arc::new(per_cu))
    }

    /// Builds a trace over a shared op buffer without copying it. Many
    /// simulations of the same (workload, seed) can each call this on one
    /// `Arc`'d buffer and replay exactly the ops `from_vecs` would.
    ///
    /// # Panics
    ///
    /// Panics if `per_cu` is empty.
    pub fn from_shared(per_cu: Arc<Vec<Vec<TraceOp>>>) -> Self {
        assert!(!per_cu.is_empty(), "trace needs at least one CU stream");
        Trace { per_cu }
    }

    /// Number of compute units in the trace.
    pub fn cus(&self) -> usize {
        self.per_cu.len()
    }

    /// The op streams, one per compute unit.
    pub fn per_cu(&self) -> &[Vec<TraceOp>] {
        &self.per_cu
    }
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace").field("cus", &self.cus()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vecs_roundtrip() {
        let t = Trace::from_vecs(vec![
            vec![TraceOp::Load(0), TraceOp::Compute(5)],
            vec![TraceOp::Store(64)],
        ]);
        assert_eq!(t.cus(), 2);
        assert_eq!(t.per_cu()[0], vec![TraceOp::Load(0), TraceOp::Compute(5)]);
    }

    #[test]
    #[should_panic(expected = "at least one CU")]
    fn empty_trace_rejected() {
        Trace::from_vecs(Vec::new());
    }

    #[test]
    fn shared_trace_yields_same_ops_as_owned() {
        let ops = vec![
            vec![TraceOp::Load(0), TraceOp::Compute(5), TraceOp::Store(64)],
            vec![TraceOp::Store(128)],
            vec![],
        ];
        let shared = Arc::new(ops.clone());
        // Two traces over one buffer, plus the owned reference.
        for _ in 0..2 {
            let t = Trace::from_shared(Arc::clone(&shared));
            assert_eq!(t.cus(), 3);
            assert_eq!(t.per_cu(), Trace::from_vecs(ops.clone()).per_cu());
            assert!(std::ptr::eq(t.per_cu(), shared.as_slice()), "no copy");
        }
    }
}
