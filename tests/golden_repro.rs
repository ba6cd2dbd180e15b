//! Golden bytes of every paper artifact: all `killi repro` experiments at
//! `--ops 2000 --replications 2` must render exactly the files under
//! `tests/golden/repro/`, which equal what `killi repro --ops 2000
//! --replications 2` writes to `results/`.
//!
//! A mismatch names every artifact that differs, not just the first. To
//! re-bless after an *intentional* output change, run:
//!
//! ```sh
//! KILLI_BLESS=1 cargo test --test golden_repro
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};

use killi_repro::bench::experiments::{Repro, EXPERIMENTS};

mod common;
use common::check_or_bless;

#[test]
fn every_paper_artifact_matches_golden_bytes() {
    let repro = Repro::new(2000, 2);
    let mut diverged = Vec::new();
    for experiment in EXPERIMENTS {
        for (name, contents) in experiment.run(&repro) {
            let golden = format!("repro/{name}");
            if catch_unwind(AssertUnwindSafe(|| check_or_bless(&golden, &contents))).is_err() {
                diverged.push(name);
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "artifacts diverged from tests/golden/repro/: {}",
        diverged.join(", ")
    );
}
