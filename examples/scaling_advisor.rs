//! The scaling advisor: "scale up or scale out, and to what shape?"
//!
//! Gives the paper's methodology as a single call: for a workload mix and
//! a MAC budget, recommend the best configuration — first with unlimited
//! DRAM bandwidth, then under increasingly tight interface budgets. Watch
//! the advice move from a many-partition grid back toward the monolithic
//! array as the memory system gets poorer.
//!
//! Run: `cargo run --release --example scaling_advisor`

use scalesim::Dataflow;
use scalesim_analytical::{recommend, MappedDims};
use scalesim_topology::networks;

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
        let rec = recommend(&workloads, budget, 8, bw);
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
