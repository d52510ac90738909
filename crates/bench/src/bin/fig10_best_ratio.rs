//! Fig. 10: best monolithic vs. best partitioned runtime.
//!
//! For (a) the first and last five ResNet-50 layers plus its FC layer, and
//! (b) the Table IV language-model layers, the stall-free runtime of the
//! best *scale-up* (monolithic) configuration divided by the best
//! *scale-out* (partitioned) configuration with the same number of MAC
//! units — the paper observes ratios up to ~25× (ResNet) and ~50×
//! (language models), never below 1, growing with the MAC budget.
//!
//! Run: `cargo run --release -p scalesim-bench --bin fig10_best_ratio`

use scalesim_analytical::{best_scaleout, best_scaleup, Dataflow};
use scalesim_bench::{mac_budgets, print_series, Series};
use scalesim_topology::{networks, Layer, Topology};

fn ratio_series(topology: &Topology, budgets: &[u64]) -> Vec<Series> {
    topology
        .iter()
        .map(|layer: &Layer| {
            let dims = layer.shape().project(Dataflow::OutputStationary);
            let mut series = Series::new(layer.name());
            for &budget in budgets {
                let up = best_scaleup(&dims, budget, 8).cycles;
                let (_, out) = best_scaleout(&dims, budget, 8);
                series.push(
                    format!("2^{}", budget.trailing_zeros()),
                    up as f64 / out as f64,
                );
            }
            series
        })
        .collect()
}

fn main() {
    let budgets = mac_budgets(10, 16)
        .into_iter()
        .step_by(2)
        .collect::<Vec<_>>();

    let resnet = networks::resnet50_edges();
    print_series(
        "Fig. 10(a): best scale-up / best scale-out runtime ratio, ResNet-50 edge layers",
        "layer",
        &ratio_series(&resnet, &budgets),
    );

    let lang = networks::language_models();
    print_series(
        "Fig. 10(b): best scale-up / best scale-out runtime ratio, language models",
        "layer",
        &ratio_series(&lang, &budgets),
    );
}
