//! Fig. 14: multi-workload pareto optimization over *scale-out* candidates.
//!
//! The scale-out twin of Fig. 13: each layer's runtime-optimal partitioned
//! configuration (grid × per-partition aspect ratio) is a candidate;
//! candidates are ranked by total runtime across the workload set and
//! their loss versus the pareto optimum reported.
//!
//! Run: `cargo run --release -p scalesim-bench --bin fig14_pareto_scaleout`

use scalesim_analytical::{
    best_scaleout, pareto_optimal, scaleout_runtime, Dataflow, MappedDims, ScaleOutConfig,
};
use scalesim_topology::{networks, Topology};

fn report(title: &str, topology: &Topology) {
    println!("# Fig. 14: {title} — loss vs. pareto-optimal scale-out config");
    println!("mac_budget,rank,config,total_cycles,loss");
    let workloads: Vec<MappedDims> = topology
        .iter()
        .map(|l| l.shape().project(Dataflow::OutputStationary))
        .collect();
    for exp in [8u32, 10, 12, 14, 16] {
        let budget = 1u64 << exp;
        let mut candidates: Vec<ScaleOutConfig> = workloads
            .iter()
            .map(|w| best_scaleout(w, budget, 8).0)
            .collect();
        candidates.sort();
        candidates.dedup();
        let outcome = pareto_optimal(&workloads, &candidates, scaleout_runtime);
        for (rank, c) in outcome.ranked.iter().enumerate() {
            println!(
                "2^{exp},{},{},{},{:.4}",
                rank + 1,
                c.config,
                c.total_cycles,
                c.loss_versus(outcome.best().total_cycles)
            );
        }
    }
    println!();
}

fn main() {
    report("ResNet-50", &networks::resnet50());
    report("language models", &networks::language_models());
}
