//! The scaling advisor — the paper's "heuristic-driven approach that
//! efficiently identifies the optimal scaling strategy, along with the
//! design configuration within a particular scaling strategy, for a given
//! set of workloads" (Section I, contribution 3 / Section IV).
//!
//! The heuristic is the paper's own: the fundamental trade-off is
//! performance vs. DRAM bandwidth (Fig. 11), so the advisor enumerates
//! every scale-up and scale-out configuration of the MAC budget, *prunes*
//! the ones whose first-order stall-free bandwidth requirement exceeds the
//! available interface bandwidth, and returns the runtime-optimal survivor
//! (falling back to the least-bandwidth-hungry configuration when nothing
//! fits). Runtime and bandwidth are both closed-form here — no simulation
//! in the loop — which is exactly how the paper uses the analytical model
//! to "chart and prune the search space".

use serde::{Deserialize, Serialize};

use scalesim_systolic::{fold_duration, ArrayShape, FoldPlan};
use scalesim_topology::{Dataflow, MappedDims};

use crate::partition::{scaleout_configs, scaleout_runtime, split_dims, ScaleOutConfig};

/// First-order stall-free DRAM bandwidth requirement of `dims` on `array`,
/// in *elements per cycle*, assuming dense operands (no convolution window
/// reuse — a conservative estimate, matching the GEMM workloads the paper
/// sweeps analytically).
///
/// Per fold, the operands that must be resident are the streamed/filled
/// tiles; under double buffering they arrive during the previous
/// (same-sized, steady-state) fold, so the requirement is
/// `fold demand / fold duration`, maximized over the fold-shape classes.
/// Only *fresh* data counts: tiles kept across consecutive folds (the
/// stationary operand of the inner loop) are not refetched.
pub fn estimate_bandwidth(dims: &MappedDims, array: ArrayShape) -> f64 {
    let plan = FoldPlan::new(dims, array);
    let t = dims.temporal;
    let mut worst: f64 = 0.0;
    for (count, ru, cu) in plan.shape_classes() {
        if count == 0 {
            continue;
        }
        let duration = fold_duration(ru, cu, t);
        // Fresh demand per fold: both operand tiles change every fold in
        // the row-major fold order (columns advance fastest: the B tile
        // always changes; the A tile repeats within a fold row).
        let (a_elems, b_elems) = match dims.dataflow {
            Dataflow::OutputStationary => (ru * t, cu * t),
            Dataflow::WeightStationary => (ru * t, ru * cu),
            Dataflow::InputStationary => (ru * cu, ru * t),
        };
        // Outputs stream out concurrently.
        let o_elems = match dims.dataflow {
            Dataflow::OutputStationary => ru * cu,
            _ => t * cu,
        };
        let rate = (a_elems + b_elems + o_elems) as f64 / duration as f64;
        worst = worst.max(rate);
    }
    worst
}

/// Aggregate bandwidth estimate for a scale-out configuration: the
/// per-partition estimate of the ceiling share, summed over partitions
/// (concurrent interfaces add — Sec. IV-A).
pub fn estimate_scaleout_bandwidth(dims: &MappedDims, config: &ScaleOutConfig) -> f64 {
    let share = split_dims(dims, config.grid);
    estimate_bandwidth(&share, config.array) * config.grid.count() as f64
}

/// What the advisor concluded.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// The chosen configuration (grid 1×1 means "scale up").
    pub config: ScaleOutConfig,
    /// Predicted total stall-free runtime over the workload set.
    pub total_cycles: u64,
    /// Worst per-workload first-order bandwidth estimate (elements/cycle).
    pub peak_bandwidth: f64,
    /// Whether the configuration fits the stated bandwidth budget.
    pub within_budget: bool,
}

impl Recommendation {
    /// Convenience: is the advice to scale *out* (more than one partition)?
    pub fn is_scale_out(&self) -> bool {
        !self.config.is_monolithic()
    }
}

/// Recommends a configuration for `workloads` under `mac_budget` MACs and
/// (optionally) `bandwidth_budget` elements/cycle of DRAM bandwidth.
///
/// Enumerates every power-of-two scale-up and scale-out configuration
/// (min dimension `min_dim`), scores each with total runtime
/// ([`scaleout_runtime`]) and peak bandwidth estimate across workloads,
/// and picks the fastest configuration that fits the bandwidth budget. If
/// none fits, returns the configuration with the lowest bandwidth
/// requirement (flagged `within_budget: false`), mirroring the paper's
/// observation that at large MAC counts even the sweet spot may exceed
/// traditional DRAM.
///
/// # Panics
///
/// Panics if `workloads` is empty or the budget cannot fit a
/// `min_dim × min_dim` array.
pub fn recommend(
    workloads: &[MappedDims],
    mac_budget: u64,
    min_dim: u64,
    bandwidth_budget: Option<f64>,
) -> Recommendation {
    assert!(!workloads.is_empty(), "workload set must be nonempty");
    let mut best_fit: Option<Recommendation> = None;
    let mut least_hungry: Option<Recommendation> = None;

    for config in scaleout_configs(mac_budget, min_dim) {
        let mut total_cycles = 0u64;
        let mut peak_bw: f64 = 0.0;
        for w in workloads {
            total_cycles += scaleout_runtime(w, &config);
            peak_bw = peak_bw.max(estimate_scaleout_bandwidth(w, &config));
        }
        let within = bandwidth_budget.is_none_or(|limit| peak_bw <= limit);
        let candidate = Recommendation {
            config,
            total_cycles,
            peak_bandwidth: peak_bw,
            within_budget: within,
        };
        if within {
            let better = best_fit
                .as_ref()
                .is_none_or(|b| candidate.total_cycles < b.total_cycles);
            if better {
                best_fit = Some(candidate);
            }
        }
        let thriftier = least_hungry
            .as_ref()
            .is_none_or(|b| candidate.peak_bandwidth < b.peak_bandwidth);
        if thriftier {
            least_hungry = Some(candidate);
        }
    }

    best_fit
        .or(least_hungry)
        .expect("scaleout_configs returns at least one configuration")
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::GemmShape;

    fn dims(m: u64, k: u64, n: u64) -> MappedDims {
        GemmShape::new(m, k, n).project(Dataflow::OutputStationary)
    }

    #[test]
    fn bandwidth_estimate_is_positive_and_scales_with_partitions() {
        let d = dims(31999, 84, 1024);
        let mono = estimate_bandwidth(&d, ArrayShape::square(64));
        assert!(mono > 0.0);
        let quad = ScaleOutConfig {
            grid: crate::PartitionGrid::new(2, 2),
            array: ArrayShape::square(32),
        };
        // Same MAC count split four ways: aggregate demand goes up.
        assert!(estimate_scaleout_bandwidth(&d, &quad) > mono);
    }

    #[test]
    fn unlimited_bandwidth_recommends_the_fastest_config() {
        let ws = [dims(31999, 84, 1024)];
        let rec = recommend(&ws, 1 << 14, 8, None);
        assert!(rec.within_budget);
        let (best_cfg, best_cycles) = crate::partition::best_scaleout(&ws[0], 1 << 14, 8);
        assert_eq!(rec.total_cycles, best_cycles);
        assert_eq!(rec.config, best_cfg);
        assert!(rec.is_scale_out(), "TF0 at 2^14 wants partitions");
    }

    #[test]
    fn tight_bandwidth_pushes_toward_monolithic() {
        let ws = [dims(31999, 84, 1024)];
        let free = recommend(&ws, 1 << 14, 8, None);
        // Clamp the budget below the free optimum's appetite.
        let tight = recommend(&ws, 1 << 14, 8, Some(free.peak_bandwidth / 4.0));
        assert!(tight.peak_bandwidth <= free.peak_bandwidth);
        assert!(tight.config.grid.count() <= free.config.grid.count());
        // Bandwidth costs runtime: the constrained pick cannot be faster.
        assert!(tight.total_cycles >= free.total_cycles);
    }

    #[test]
    fn impossible_budget_falls_back_to_thriftiest() {
        let ws = [dims(1024, 64, 1024)];
        let rec = recommend(&ws, 1 << 12, 8, Some(1e-9));
        assert!(!rec.within_budget);
        assert!(rec.peak_bandwidth > 0.0);
    }

    #[test]
    fn multi_workload_advice_considers_the_whole_set() {
        let ws = [dims(31999, 84, 1024), dims(128, 4096, 2048)];
        let rec = recommend(&ws, 1 << 12, 8, None);
        let sum: u64 = ws
            .iter()
            .map(|w| crate::partition::scaleout_runtime(w, &rec.config))
            .sum();
        assert_eq!(rec.total_cycles, sum);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_workloads_panic() {
        recommend(&[], 1 << 10, 8, None);
    }
}
