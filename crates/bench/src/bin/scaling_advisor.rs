//! The scaling advisor: "scale up or scale out, and to what shape?"
//!
//! The paper's "heuristic-driven approach that efficiently identifies the
//! optimal scaling strategy, along with the design configuration within a
//! particular scaling strategy, for a given set of workloads" (Section I,
//! contribution 3 / Section IV), as one decision procedure. The
//! fundamental trade-off is performance against DRAM bandwidth (Fig. 11):
//! enumerate every scale-up and scale-out configuration of the MAC budget,
//! prune those whose first-order stall-free bandwidth requirement exceeds
//! the interface, and take the fastest survivor (the least
//! bandwidth-hungry configuration when nothing fits). Runtime and
//! bandwidth are both closed form, with no simulation in the loop.
//!
//! For a workload mix and a MAC budget this recommends a configuration
//! first with unlimited DRAM bandwidth, then under increasingly tight
//! interface budgets: the advice moves from a many-partition grid back
//! toward the monolithic array as the memory system gets poorer.
//!
//! Run: `cargo run --release -p scalesim-bench --bin scaling_advisor`

use scalesim_analytical::{
    scaleout_configs, scaleout_runtime, split_dims, ArrayShape, Dataflow, MappedDims,
    ScaleOutConfig,
};
use scalesim_systolic::{fold_duration, FoldPlan};
use scalesim_topology::networks;

/// The smallest array dimension a configuration may have.
const MIN_DIM: u64 = 8;

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
fn estimate_bandwidth(dims: &MappedDims, array: ArrayShape) -> f64 {
    let t = dims.temporal;
    let mut worst: f64 = 0.0;
    for (count, ru, cu) in FoldPlan::new(dims, array).shape_classes() {
        if count == 0 {
            continue;
        }
        // Fresh demand per fold: both operand tiles change every fold in
        // the row-major fold order (columns advance fastest: the B tile
        // always changes; the A tile repeats within a fold row). Outputs
        // stream out concurrently.
        let elems = match dims.dataflow {
            Dataflow::OutputStationary => ru * t + cu * t + ru * cu,
            Dataflow::WeightStationary => ru * t + ru * cu + t * cu,
            Dataflow::InputStationary => ru * cu + ru * t + t * cu,
        };
        worst = worst.max(elems as f64 / fold_duration(ru, cu, t) as f64);
    }
    worst
}

/// Aggregate bandwidth estimate for a scale-out configuration: the
/// per-partition estimate of the ceiling share, summed over partitions
/// (concurrent interfaces add — Sec. IV-A).
fn estimate_scaleout_bandwidth(dims: &MappedDims, config: &ScaleOutConfig) -> f64 {
    let share = split_dims(dims, config.grid);
    estimate_bandwidth(&share, config.array) * config.grid.count() as f64
}

/// What the advisor concluded.
#[derive(Clone, Copy)]
struct Recommendation {
    /// The chosen configuration (grid 1×1 means "scale up").
    config: ScaleOutConfig,
    /// Predicted total stall-free runtime over the workload set.
    total_cycles: u64,
    /// Worst per-workload first-order bandwidth estimate (elements/cycle).
    peak_bandwidth: f64,
    /// Whether the configuration fits the stated bandwidth budget.
    within_budget: bool,
}

/// Recommends a configuration for `workloads` under `mac_budget` MACs and
/// (optionally) `bandwidth_budget` elements/cycle of DRAM bandwidth: the
/// fastest power-of-two scale-up or scale-out configuration
/// ([`scaleout_runtime`] summed over the workloads) whose peak bandwidth
/// estimate fits the budget. If none fits, the configuration with the
/// lowest requirement (`within_budget: false`), after the paper's
/// observation that at large MAC counts even the sweet spot may exceed
/// traditional DRAM. Ties go to the first configuration of
/// [`scaleout_configs`].
///
/// # Panics
///
/// Panics if `workloads` is empty.
fn recommend(
    workloads: &[MappedDims],
    mac_budget: u64,
    bandwidth_budget: Option<f64>,
) -> Recommendation {
    assert!(!workloads.is_empty(), "workload set must be nonempty");
    let candidates: Vec<Recommendation> = scaleout_configs(mac_budget, MIN_DIM)
        .into_iter()
        .map(|config| {
            let peak_bandwidth = workloads
                .iter()
                .map(|w| estimate_scaleout_bandwidth(w, &config))
                .fold(0.0, f64::max);
            Recommendation {
                config,
                total_cycles: workloads.iter().map(|w| scaleout_runtime(w, &config)).sum(),
                peak_bandwidth,
                within_budget: bandwidth_budget.is_none_or(|limit| peak_bandwidth <= limit),
            }
        })
        .collect();
    candidates
        .iter()
        .filter(|c| c.within_budget)
        .min_by_key(|c| c.total_cycles)
        .or_else(|| {
            candidates
                .iter()
                .min_by(|a, b| a.peak_bandwidth.total_cmp(&b.peak_bandwidth))
        })
        .copied()
        .expect("scaleout_configs returns at least one configuration")
}

fn main() {
    // A service mix: two Transformer layers, a GNMT layer, and the ResNet
    // backbone's heaviest convolution.
    let resnet = networks::resnet50();
    let mut layers = vec![
        networks::language_model("TF0").unwrap(),
        networks::language_model("TF1").unwrap(),
        networks::language_model("GNMT0").unwrap(),
    ];
    layers.push(resnet.layer("CB2a_2").unwrap().clone());

    let workloads: Vec<MappedDims> = layers
        .iter()
        .map(|l| l.shape().project(Dataflow::OutputStationary))
        .collect();

    let budget: u64 = 1 << 16;

    println!("workloads: TF0, TF1, GNMT0, CB2a_2 — {budget} MACs\n");
    println!(
        "{:>22} {:>26} {:>14} {:>14} {:>8}",
        "bandwidth budget", "recommended config", "total cycles", "BW estimate", "fits?"
    );
    let mut budgets: Vec<Option<f64>> = vec![None];
    budgets.extend([4096.0, 1024.0, 256.0, 64.0, 16.0].map(Some));
    for bw in budgets {
        let rec = recommend(&workloads, budget, bw);
        println!(
            "{:>22} {:>26} {:>14} {:>14.1} {:>8}",
            bw.map(|b| format!("{b} elem/cycle"))
                .unwrap_or_else(|| "unlimited".into()),
            rec.config.to_string(),
            rec.total_cycles,
            rec.peak_bandwidth,
            if rec.within_budget { "yes" } else { "NO" },
        );
    }

    println!();
    println!("the fundamental trade-off of the paper, as one decision procedure:");
    println!("rich interfaces justify scale-out; starved ones favour the monolithic array.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_analytical::{best_scaleout, PartitionGrid};
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
            grid: PartitionGrid::new(2, 2),
            array: ArrayShape::square(32),
        };
        // Same MAC count split four ways: aggregate demand goes up.
        assert!(estimate_scaleout_bandwidth(&d, &quad) > mono);
    }

    #[test]
    fn unlimited_bandwidth_recommends_the_fastest_config() {
        let ws = [dims(31999, 84, 1024)];
        let rec = recommend(&ws, 1 << 14, None);
        assert!(rec.within_budget);
        let (best_cfg, best_cycles) = best_scaleout(&ws[0], 1 << 14, MIN_DIM);
        assert_eq!(rec.total_cycles, best_cycles);
        assert_eq!(rec.config, best_cfg);
        assert!(rec.config.grid.count() != 1, "TF0 at 2^14 wants partitions");
    }

    #[test]
    fn tight_bandwidth_pushes_toward_monolithic() {
        let ws = [dims(31999, 84, 1024)];
        let free = recommend(&ws, 1 << 14, None);
        // Clamp the budget below the free optimum's appetite.
        let tight = recommend(&ws, 1 << 14, Some(free.peak_bandwidth / 4.0));
        assert!(tight.peak_bandwidth <= free.peak_bandwidth);
        assert!(tight.config.grid.count() <= free.config.grid.count());
        // Bandwidth costs runtime: the constrained pick cannot be faster.
        assert!(tight.total_cycles >= free.total_cycles);
    }

    #[test]
    fn impossible_budget_falls_back_to_thriftiest() {
        let ws = [dims(1024, 64, 1024)];
        let rec = recommend(&ws, 1 << 12, Some(1e-9));
        assert!(!rec.within_budget);
        assert!(rec.peak_bandwidth > 0.0);
    }

    #[test]
    fn multi_workload_advice_considers_the_whole_set() {
        let ws = [dims(31999, 84, 1024), dims(128, 4096, 2048)];
        let rec = recommend(&ws, 1 << 12, None);
        let sum: u64 = ws.iter().map(|w| scaleout_runtime(w, &rec.config)).sum();
        assert_eq!(rec.total_cycles, sum);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_workloads_panic() {
        recommend(&[], 1 << 10, None);
    }
}
