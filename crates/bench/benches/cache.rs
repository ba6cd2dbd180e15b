//! Micro-benchmarks for the simulator substrate: fault-map construction,
//! the protected L2 access paths and whole GPU runs.
//!
//! Runs on the in-repo [`killi_bench::timing`] harness (`cargo bench`);
//! tune the per-benchmark budget with `KILLI_BENCH_MS`.

use std::hint::black_box;
use std::sync::Arc;

use killi::scheme::{KilliConfig, KilliScheme};
use killi_bench::fault_models::{build_fault_model, stuck_at};
use killi_bench::runner::trace_params;
use killi_bench::schemes::{build_scheme, BuildCtx, SchemeConfig};
use killi_bench::timing::bench;
use killi_fault::cell_model::{FreqGhz, NormVdd};
use killi_fault::map::FaultMap;
use killi_sim::cache::{CacheGeometry, L2Cache};
use killi_sim::gpu::{GpuConfig, GpuSim};
use killi_sim::mem::MainMemory;
use killi_sim::protection::Unprotected;
use killi_sim::trace::Trace;
use killi_workloads::Workload;

fn geometry() -> CacheGeometry {
    CacheGeometry {
        size_bytes: 256 * 1024,
        ways: 16,
        line_bytes: 64,
    }
}

fn bench_fault_map() {
    let model = build_fault_model(&stuck_at()).expect("stuck-at always builds");
    bench("fault_map/build_4096_lines", || {
        black_box(&model).map(4096, NormVdd::LV_0_625, FreqGhz::PEAK, 42)
    });
}

fn bench_l2_paths() {
    let geom = geometry();
    let model = build_fault_model(&stuck_at()).expect("stuck-at always builds");
    let map = Arc::new(model.map(geom.lines(), NormVdd::LV_0_625, FreqGhz::PEAK, 1));

    {
        let mut l2 = L2Cache::new(
            geom,
            8,
            2,
            2,
            Arc::new(FaultMap::fault_free(geom.lines())),
            Box::new(Unprotected::new()),
        );
        let mut mem = MainMemory::new(1, 300);
        l2.access_load(0x40, 0, &mut mem);
        let mut now = 1000u64;
        bench("l2/unprotected_hit", || {
            now += 10;
            l2.access_load(black_box(0x40), now, &mut mem)
        });
    }

    {
        let killi = KilliScheme::new(
            KilliConfig::with_ratio(64),
            Arc::clone(&map),
            geom.lines(),
            geom.ways,
        );
        let mut l2 = L2Cache::new(geom, 8, 2, 2, Arc::clone(&map), Box::new(killi));
        let mut mem = MainMemory::new(1, 300);
        l2.access_load(0x40, 0, &mut mem);
        let mut now = 1000u64;
        bench("l2/killi_hit", || {
            now += 10;
            l2.access_load(black_box(0x40), now, &mut mem)
        });
    }

    {
        let killi = KilliScheme::new(
            KilliConfig::with_ratio(64),
            Arc::clone(&map),
            geom.lines(),
            geom.ways,
        );
        let mut l2 = L2Cache::new(geom, 8, 2, 2, Arc::clone(&map), Box::new(killi));
        let mut mem = MainMemory::new(1, 300);
        let mut addr = 0u64;
        let mut now = 0u64;
        bench("l2/killi_miss_fill", || {
            addr = addr.wrapping_add(64 * 257); // always a fresh line
            now += 10;
            l2.access_load(black_box(addr), now, &mut mem)
        });
    }
}

/// One 8-CU xsbench `GpuSim::run` (3,000 ops per CU) on a 512 KiB L2,
/// scheme build included, for the fault-free baseline and for Killi at
/// 0.625 x VDD: once on a trace that carries its L1 outcomes, as every
/// sweep cell after the first replays it, and once computing them in the
/// run.
fn bench_gpu_runs() {
    let gpu = GpuConfig {
        l2: CacheGeometry {
            size_bytes: 512 * 1024,
            ..CacheGeometry::PAPER_L2
        },
        ..GpuConfig::default()
    };
    let lines = gpu.l2.lines();
    let model = build_fault_model(&stuck_at()).expect("stuck-at always builds");
    let faulty = Arc::new(model.map(lines, NormVdd::LV_0_625, FreqGhz::PEAK, 1));
    let ops = Arc::new(Workload::Xsbench.ops(&trace_params(&gpu, 3_000, 7)));
    for (name, map) in [
        ("baseline", Arc::new(FaultMap::fault_free(lines))),
        ("killi", faulty),
    ] {
        let scheme = SchemeConfig::new(name);
        let ctx = BuildCtx::new(Arc::clone(&map), gpu.l2);
        let run = |trace: Trace| {
            let protection = build_scheme(&scheme, &ctx).expect("registered schemes build");
            GpuSim::new(gpu, Arc::clone(&map), protection, 7).run(trace)
        };
        let shared = Trace::from_shared(Arc::clone(&ops)).with_l1(gpu.l1);
        bench(&format!("gpu/run_{name}_shared_l1"), || {
            run(black_box(&shared).clone())
        });
        let unshared = Trace::from_shared(Arc::clone(&ops));
        bench(&format!("gpu/run_{name}_l1_in_run"), || {
            run(black_box(&unshared).clone())
        });
    }
}

fn main() {
    bench_fault_map();
    bench_l2_paths();
    bench_gpu_runs();
}
