//! The fault-model axis of the bench harness: thin re-exports of the
//! `killi-fault` registry plus the helpers every experiment shares, so
//! there is exactly one way to name a fault model outside `crates/fault`
//! — a [`FaultModelConfig`] resolved against the default registry.

use std::sync::Arc;

use killi_fault::cell_model::CellFailureModel;
pub use killi_fault::model::{
    default_registry as default_fault_registry, BuildError as FaultModelBuildError, FaultModel,
    FaultModelConfig, FaultModelRegistry, STUCK_AT,
};

/// Builds a config into a live model against the default registry.
pub fn build_fault_model(
    config: &FaultModelConfig,
) -> Result<Arc<dyn FaultModel>, FaultModelBuildError> {
    default_fault_registry().build(config, &())
}

/// The report label of a config (e.g. `stuck-at`,
/// `clustered:rows=4,corr=0.8`).
pub fn fault_model_label(config: &FaultModelConfig) -> Result<String, FaultModelBuildError> {
    default_fault_registry().label(config)
}

/// The default config: the paper's `stuck-at` model with no overrides.
pub fn stuck_at() -> FaultModelConfig {
    FaultModelConfig::default()
}

/// The cell-failure curve behind the registry's `stuck-at` model, for
/// analytic figures that integrate over the curve instead of drawing
/// fault maps.
pub fn stuck_at_cell_model() -> CellFailureModel {
    build_fault_model(&stuck_at())
        .expect("stuck-at always builds")
        .cell_model()
        .expect("stuck-at exposes its cell curve")
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_at_label_is_the_gating_constant() {
        // Report/obs emission is gated on this exact label (the golden
        // sweep bytes predate the fault-model axis).
        assert_eq!(fault_model_label(&stuck_at()).unwrap(), STUCK_AT);
    }

    #[test]
    fn stuck_at_cell_model_matches_finfet14() {
        let a = stuck_at_cell_model();
        let b = CellFailureModel::finfet14();
        assert_eq!(a.anchors(), b.anchors());
        assert_eq!(a.sigma().to_bits(), b.sigma().to_bits());
    }
}
