//! Fig. 13: multi-workload pareto optimization over *scale-up* candidates.
//!
//! Following Sec. IV-B: each layer's runtime-optimal monolithic aspect
//! ratio becomes a candidate; every candidate is scored on the whole
//! workload set (total runtime is additive); the loss of each ranked
//! candidate versus the pareto optimum is reported per MAC budget.
//! Expected shape: 2nd/3rd best within ~20% at small budgets, the spread
//! (and the worst candidate's loss, up to ~8×) growing with scale.
//!
//! Run: `cargo run --release -p scalesim-bench --bin fig13_pareto_scaleup`

use scalesim_analytical::{
    best_scaleup, exact_scaleup, pareto_optimal, ArrayShape, Dataflow, MappedDims,
};
use scalesim_topology::{networks, Topology};

fn report(title: &str, topology: &Topology) {
    println!("# Fig. 13: {title} — loss vs. pareto-optimal scale-up config");
    println!("mac_budget,rank,array,total_cycles,loss");
    let workloads: Vec<MappedDims> = topology
        .iter()
        .map(|l| l.shape().project(Dataflow::OutputStationary))
        .collect();
    for exp in [8u32, 10, 12, 14, 16] {
        let budget = 1u64 << exp;
        let mut candidates: Vec<ArrayShape> = workloads
            .iter()
            .map(|w| best_scaleup(w, budget, 8).array)
            .collect();
        candidates.sort();
        candidates.dedup();
        let outcome = pareto_optimal(&workloads, &candidates, |w, a| exact_scaleup(w, *a));
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
