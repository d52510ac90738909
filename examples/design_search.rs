//! Designing one accelerator for many workloads (Sec. IV-B of the paper).
//!
//! Given a mixed workload set — a few ResNet-50 convolutions plus two
//! language-model GEMMs — find each layer's individually optimal monolithic
//! aspect ratio under a 2^14-MAC budget, then pick the configuration that
//! minimizes *total* runtime across the set (the paper's pareto method),
//! and finally sanity-check the analytical winner against the full
//! cycle-accurate simulator.
//!
//! Run: `cargo run --release --example design_search`

use scalesim::{Dataflow, SimConfig, Simulator};
use scalesim_analytical::{best_scaleup, exact_scaleup, pareto_optimal, ArrayShape, MappedDims};
use scalesim_topology::{networks, Layer};

fn main() {
    let resnet = networks::resnet50();
    let mut layers: Vec<Layer> = ["Conv1", "CB2a_2", "ID4b_3"]
        .iter()
        .map(|n| resnet.layer(n).expect("built-in layer").clone())
        .collect();
    layers.push(networks::language_model("TF1").unwrap());
    layers.push(networks::language_model("GNMT0").unwrap());

    let budget: u64 = 1 << 14;
    let workloads: Vec<MappedDims> = layers
        .iter()
        .map(|l| l.shape().project(Dataflow::OutputStationary))
        .collect();

    println!("per-layer optimal aspect ratios at {budget} MACs:");
    let mut candidates: Vec<ArrayShape> = Vec::new();
    for (layer, dims) in layers.iter().zip(&workloads) {
        let best = best_scaleup(dims, budget, 8);
        println!(
            "  {:<8} -> {:>9}  ({} cycles)",
            layer.name(),
            best.array.to_string(),
            best.cycles
        );
        candidates.push(best.array);
    }
    candidates.sort();
    candidates.dedup();

    let outcome = pareto_optimal(&workloads, &candidates, |w, a| exact_scaleup(w, *a));
    println!();
    println!("candidates ranked by total runtime across the set:");
    for (rank, c) in outcome.ranked.iter().enumerate() {
        println!(
            "  #{} {:>9}: {:>9} cycles ({:.2}x the optimum)",
            rank + 1,
            c.config.to_string(),
            c.total_cycles,
            c.loss_versus(outcome.best().total_cycles)
        );
    }

    // The analytical model's stall-free cycles must agree with the
    // cycle-accurate simulator (same fold schedule).
    let winner = outcome.best().config;
    let sim = Simulator::new(SimConfig::builder().array(winner).build());
    let simulated: u64 = layers.iter().map(|l| sim.run_layer(l).total_cycles).sum();
    println!();
    println!(
        "analytical total for winner {winner}: {} cycles; simulator: {} cycles",
        outcome.best().total_cycles,
        simulated
    );
    assert_eq!(outcome.best().total_cycles, simulated);
    println!("exact agreement — the analytical model is the simulator's schedule in closed form.");
}
