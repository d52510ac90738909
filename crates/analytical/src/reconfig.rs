//! The value of reconfigurability.
//!
//! The paper's related work discusses morphable arrays (DyHard-DNN) but its
//! own Sec. IV-B picks a single fixed configuration for a workload set.
//! This module quantifies the gap between the two: how much faster would
//! the workload run if the accelerator could re-shape itself per layer
//! (same MAC budget, any grid × aspect ratio) versus the best *fixed*
//! configuration chosen by the pareto method?

use serde::{Deserialize, Serialize};

use scalesim_topology::MappedDims;

use crate::pareto::pareto_optimal;
use crate::partition::{best_scaleout, scaleout_runtime, ScaleOutConfig};

/// Outcome of the fixed-vs-reconfigurable comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigGain {
    /// The best fixed configuration (pareto over per-layer candidates).
    pub fixed_config: ScaleOutConfig,
    /// Total cycles on the fixed configuration.
    pub fixed_cycles: u64,
    /// Per-layer optimal configurations, in workload order.
    pub per_layer_configs: Vec<ScaleOutConfig>,
    /// Total cycles when reconfiguring to each layer's optimum.
    pub reconfigurable_cycles: u64,
}

impl ReconfigGain {
    /// Speedup of per-layer reconfiguration over the fixed choice (≥ 1).
    pub fn speedup(&self) -> f64 {
        self.fixed_cycles as f64 / self.reconfigurable_cycles as f64
    }

    /// How many layers would actually switch away from the fixed config.
    pub fn layers_that_switch(&self) -> usize {
        self.per_layer_configs
            .iter()
            .filter(|c| **c != self.fixed_config)
            .count()
    }
}

/// Computes the reconfiguration gain for `workloads` under `mac_budget`.
///
/// The fixed baseline follows the paper's method exactly: candidates are
/// the per-layer optima, the fixed pick minimizes total runtime. The
/// reconfigurable bound runs each layer on its own optimum
/// (reconfiguration latency is assumed free — this is the *upper* bound on
/// what morphable hardware could buy).
///
/// # Panics
///
/// Panics if `workloads` is empty or the budget cannot fit the `min_dim`
/// floor.
pub fn reconfiguration_gain(
    workloads: &[MappedDims],
    mac_budget: u64,
    min_dim: u64,
) -> ReconfigGain {
    assert!(!workloads.is_empty(), "workload set must be nonempty");
    let per_layer: Vec<(ScaleOutConfig, u64)> = workloads
        .iter()
        .map(|w| best_scaleout(w, mac_budget, min_dim))
        .collect();
    let reconfigurable_cycles = per_layer.iter().map(|(_, c)| *c).sum();

    let mut candidates: Vec<ScaleOutConfig> = per_layer.iter().map(|(c, _)| *c).collect();
    candidates.sort();
    candidates.dedup();
    let outcome = pareto_optimal(workloads, &candidates, scaleout_runtime);

    ReconfigGain {
        fixed_config: outcome.best().config,
        fixed_cycles: outcome.best().total_cycles,
        per_layer_configs: per_layer.into_iter().map(|(c, _)| c).collect(),
        reconfigurable_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::{Dataflow, GemmShape};

    fn dims(m: u64, k: u64, n: u64) -> MappedDims {
        GemmShape::new(m, k, n).project(Dataflow::OutputStationary)
    }

    #[test]
    fn reconfiguration_never_loses() {
        let ws = [
            dims(31999, 84, 1024),
            dims(128, 4096, 2048),
            dims(2048, 128, 1),
        ];
        let gain = reconfiguration_gain(&ws, 1 << 14, 8);
        assert!(gain.reconfigurable_cycles <= gain.fixed_cycles);
        assert!(gain.speedup() >= 1.0);
        assert_eq!(gain.per_layer_configs.len(), 3);
    }

    #[test]
    fn homogeneous_workloads_gain_nothing() {
        // Identical layers: the fixed optimum is every layer's optimum.
        let ws = [dims(512, 64, 512); 3];
        let gain = reconfiguration_gain(&ws, 1 << 12, 8);
        assert_eq!(gain.fixed_cycles, gain.reconfigurable_cycles);
        assert_eq!(gain.layers_that_switch(), 0);
    }

    #[test]
    fn skewed_mix_shows_real_gains() {
        // A tall-skinny and a wide-flat GEMM want opposite shapes; a fixed
        // config must compromise.
        let ws = [dims(30000, 32, 16), dims(16, 32, 30000)];
        let gain = reconfiguration_gain(&ws, 1 << 12, 8);
        assert!(gain.speedup() > 1.1, "speedup {}", gain.speedup());
        assert!(gain.layers_that_switch() >= 1);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_workloads_panic() {
        reconfiguration_gain(&[], 1 << 10, 8);
    }
}
