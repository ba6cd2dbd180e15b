//! Validating a sweep checks each scheme against the cache geometry and
//! builds none: a global allocator that counts every byte holds the
//! validation of a sweep over every registered scheme on the paper's
//! 2 MiB L2 under 64 KiB. A build of each scheme on a fault-free map of
//! that L2 allocates megabytes of per-line state and checkbits.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use killi_repro::bench::schemes::{default_registry, SchemeConfig};
use killi_repro::bench::sweep::SweepConfig;
use killi_repro::sim::cache::CacheGeometry;

/// The system allocator, counting the bytes it is asked for.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn validating_a_sweep_of_every_scheme_builds_none() {
    let config = SweepConfig {
        schemes: default_registry()
            .names()
            .into_iter()
            .map(SchemeConfig::new)
            .collect(),
        ..SweepConfig::paper(1000, 42, 1)
    };
    assert_eq!(config.schemes.len(), 13);
    assert_eq!(config.gpu.l2, CacheGeometry::PAPER_L2);
    assert_eq!(config.gpu.l2.size_bytes, 2 << 20);
    // The registries are built once per process, on first use.
    config.validate().expect("a valid sweep");
    let before = ALLOCATED.load(Ordering::Relaxed);
    let validated = config.validated().expect("a valid sweep");
    let bytes = ALLOCATED.load(Ordering::Relaxed) - before;
    assert!(bytes < 64 * 1024, "validation allocated {bytes} bytes");
    drop(validated);
}
