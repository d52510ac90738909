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

use scalesim_analytical::{reconfiguration_gain, Dataflow, MappedDims};
use scalesim_topology::{networks, Topology};

fn report(title: &str, topo: &Topology) {
    println!("# Extension: reconfiguration gain — {title}");
    println!("mac_budget,fixed_config,fixed_cycles,reconfig_cycles,speedup,layers_switching");
    let workloads: Vec<MappedDims> = topo
        .iter()
        .map(|l| l.shape().project(Dataflow::OutputStationary))
        .collect();
    for exp in [10u32, 12, 14, 16] {
        let gain = reconfiguration_gain(&workloads, 1 << exp, 8);
        println!(
            "2^{exp},{},{},{},{:.3},{}/{}",
            gain.fixed_config,
            gain.fixed_cycles,
            gain.reconfigurable_cycles,
            gain.speedup(),
            gain.layers_that_switch(),
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
