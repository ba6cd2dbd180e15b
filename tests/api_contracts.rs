//! API-contract tests per the Rust API guidelines: thread-safety of the
//! core types (C-SEND-SYNC), non-empty Debug output (C-DEBUG-NONEMPTY),
//! and constructor/Default agreement (C-COMMON-TRAITS).

use std::sync::Arc;

use killi_repro::core::scheme::{KilliConfig, KilliScheme};
use killi_repro::ecc::bits::Line512;
use killi_repro::ecc::secded::Secded;
use killi_repro::fault::cell_model::CellFailureModel;
use killi_repro::fault::map::FaultMap;
use killi_repro::sim::cache::CacheGeometry;
use killi_repro::sim::stats::SimStats;

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_types_are_send_and_sync() {
    // The experiment runner farms simulations across threads; everything a
    // worker owns or shares must be Send/Sync.
    assert_send_sync::<Line512>();
    assert_send_sync::<FaultMap>();
    assert_send_sync::<Arc<FaultMap>>();
    assert_send_sync::<CellFailureModel>();
    assert_send_sync::<KilliScheme>();
    assert_send_sync::<SimStats>();
    assert_send_sync::<Secded>();
}

#[test]
fn protection_trait_objects_are_send() {
    fn assert_send<T: Send + ?Sized>() {}
    assert_send::<dyn killi_repro::sim::protection::LineProtection + Send>();
}

#[test]
fn debug_representations_are_never_empty() {
    let line = Line512::zero();
    assert!(!format!("{line:?}").is_empty());
    let map = FaultMap::fault_free(4);
    assert!(!format!("{map:?}").is_empty());
    let geom = CacheGeometry::PAPER_L2;
    assert!(!format!("{geom:?}").is_empty());
    let config = KilliConfig::with_ratio(64);
    assert!(!format!("{config:?}").is_empty());
    let stats = SimStats::default();
    assert!(format!("{stats:?}").contains("cycles"));
}

#[test]
fn default_and_new_agree() {
    // C-COMMON-TRAITS: where both exist they must match.
    let data = Line512::from_seed(3);
    assert_eq!(Secded::default().encode(&data), Secded::new().encode(&data));
    assert_eq!(Line512::default(), Line512::zero());
    assert_eq!(
        CellFailureModel::default().p_cell_median(
            killi_repro::fault::cell_model::NormVdd(0.6),
            killi_repro::fault::cell_model::FreqGhz::PEAK,
            killi_repro::fault::cell_model::FailureKind::Combined,
        ),
        CellFailureModel::finfet14().p_cell_median(
            killi_repro::fault::cell_model::NormVdd(0.6),
            killi_repro::fault::cell_model::FreqGhz::PEAK,
            killi_repro::fault::cell_model::FailureKind::Combined,
        )
    );
    // And the registry's stuck-at model is that same curve: the default
    // fault-model config is the default cell model.
    let registry = killi_repro::fault::model::default_registry();
    let stuck_at = registry
        .build(&killi_repro::fault::model::FaultModelConfig::default(), &())
        .expect("stuck-at always builds");
    assert_eq!(
        stuck_at
            .cell_model()
            .expect("stuck-at exposes its curve")
            .p_cell_median(
                killi_repro::fault::cell_model::NormVdd(0.6),
                killi_repro::fault::cell_model::FreqGhz::PEAK,
                killi_repro::fault::cell_model::FailureKind::Combined,
            ),
        CellFailureModel::default().p_cell_median(
            killi_repro::fault::cell_model::NormVdd(0.6),
            killi_repro::fault::cell_model::FreqGhz::PEAK,
            killi_repro::fault::cell_model::FailureKind::Combined,
        )
    );
}

#[test]
fn line512_binary_operators_compose() {
    let a = Line512::from_seed(1);
    let b = Line512::from_seed(2);
    // XOR then OR behave set-theoretically.
    let sym_diff = a ^ b;
    let union = a | b;
    // The symmetric difference is a subset of the union.
    assert!(sym_diff.count_ones() <= union.count_ones());
    for i in 0..512 {
        if sym_diff.bit(i) {
            assert!(union.bit(i), "bit {i}");
        }
    }
}
