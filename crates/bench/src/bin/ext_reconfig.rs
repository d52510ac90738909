//! Extension experiment: the value of a morphable (per-layer
//! reconfigurable) array versus the paper's fixed pareto-optimal pick.
//!
//! Related work (DyHard-DNN) proposes arrays that re-shape per layer; the
//! paper's own method commits to one configuration per workload set. This
//! harness reports, per MAC budget, how much total runtime free per-layer
//! reconfiguration would save on ResNet-50 and on the Table IV suite —
//! an upper bound on morphable-hardware benefit under this cost model.
//!
//! Run: `cargo run --release -p scalesim-bench --bin ext_reconfig`

use scalesim_analytical::{
    best_scaleout, pareto_optimal, scaleout_runtime, Dataflow, MappedDims, ScaleOutConfig,
};
use scalesim_topology::{networks, Topology};

/// The smallest array dimension a configuration may have.
const MIN_DIM: u64 = 8;

/// The best fixed configuration against per-layer reconfiguration.
struct Gain {
    /// The paper's pick: the per-layer optimum with the least total runtime.
    fixed: ScaleOutConfig,
    fixed_cycles: u64,
    /// Total cycles when every layer runs on its own optimum.
    reconfig_cycles: u64,
    /// Layers whose own optimum is not `fixed`.
    switching: usize,
}

/// Reconfiguration is assumed free, so `reconfig_cycles` is the upper
/// bound on what morphable hardware could buy.
///
/// # Panics
///
/// Panics if `workloads` is empty.
fn gain(workloads: &[MappedDims], mac_budget: u64) -> Gain {
    assert!(!workloads.is_empty(), "workload set must be nonempty");
    let per_layer: Vec<(ScaleOutConfig, u64)> = workloads
        .iter()
        .map(|w| best_scaleout(w, mac_budget, MIN_DIM))
        .collect();
    let mut candidates: Vec<ScaleOutConfig> = per_layer.iter().map(|(c, _)| *c).collect();
    candidates.sort();
    candidates.dedup();
    let outcome = pareto_optimal(workloads, &candidates, scaleout_runtime);
    let fixed = outcome.best();
    Gain {
        fixed: fixed.config,
        fixed_cycles: fixed.total_cycles,
        reconfig_cycles: per_layer.iter().map(|(_, c)| c).sum(),
        switching: per_layer.iter().filter(|(c, _)| *c != fixed.config).count(),
    }
}

fn report(title: &str, topo: &Topology) {
    println!("# Extension: reconfiguration gain — {title}");
    println!("mac_budget,fixed_config,fixed_cycles,reconfig_cycles,speedup,layers_switching");
    let workloads: Vec<MappedDims> = topo
        .iter()
        .map(|l| l.shape().project(Dataflow::OutputStationary))
        .collect();
    for exp in [10u32, 12, 14, 16] {
        let gain = gain(&workloads, 1 << exp);
        println!(
            "2^{exp},{},{},{},{:.3},{}/{}",
            gain.fixed,
            gain.fixed_cycles,
            gain.reconfig_cycles,
            gain.fixed_cycles as f64 / gain.reconfig_cycles as f64,
            gain.switching,
            workloads.len(),
        );
    }
    println!();
}

fn main() {
    report("ResNet-50", &networks::resnet50());
    report("language models", &networks::language_models());
    report("VGG-16", &networks::vgg16());
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::GemmShape;

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
        let gain = gain(&ws, 1 << 14);
        assert!(gain.reconfig_cycles <= gain.fixed_cycles);
        assert!(gain.switching <= 3);
    }

    #[test]
    fn homogeneous_workloads_gain_nothing() {
        // Identical layers: the fixed optimum is every layer's optimum.
        let ws = [dims(512, 64, 512); 3];
        let gain = gain(&ws, 1 << 12);
        assert_eq!(gain.fixed_cycles, gain.reconfig_cycles);
        assert_eq!(gain.switching, 0);
    }

    #[test]
    fn skewed_mix_shows_real_gains() {
        // A tall-skinny and a wide-flat GEMM want opposite shapes; a fixed
        // config must compromise.
        let ws = [dims(30000, 32, 16), dims(16, 32, 30000)];
        let gain = gain(&ws, 1 << 12);
        let speedup = gain.fixed_cycles as f64 / gain.reconfig_cycles as f64;
        assert!(speedup > 1.1, "speedup {speedup}");
        assert!(gain.switching >= 1);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_workloads_panic() {
        gain(&[], 1 << 10);
    }
}
