//! Fig. 9: the scale-up × scale-out search space for the TF0 layer.
//!
//! (a) For each MAC budget, every `(partition grid, per-partition aspect
//!     ratio)` point with its stall-free runtime normalized to the *worst*
//!     configuration at that budget (the paper's color scale). Monolithic
//!     configurations are the `1x1` grid rows.
//! (b-c) The aspect-ratio sweep for monolithic arrays at 2^14 and 2^16
//!     MACs: runtime and array (mapping) utilization per ratio.
//!
//! Run: `cargo run --release -p scalesim-bench --bin fig9_search_space`

use scalesim_analytical::{rank_scaleup, scaleout_configs, scaleout_runtime, Dataflow};
use scalesim_topology::networks;

fn main() {
    let tf0 = networks::language_model("TF0").expect("TF0 is built in");
    let dims = tf0.shape().project(Dataflow::OutputStationary);

    println!("# Fig. 9(a): normalized stall-free runtime, TF0, OS dataflow");
    println!("# (normalized to the slowest configuration at each MAC budget; lower is better)");
    println!("mac_budget,partitions,grid,array,cycles,normalized_runtime");
    for exp in [10u32, 12, 14, 16, 18] {
        let budget = 1u64 << exp;
        let configs = scaleout_configs(budget, 8);
        let scored: Vec<(u64, String, String, u64)> = configs
            .iter()
            .map(|c| {
                (
                    c.grid.count(),
                    c.grid.to_string(),
                    c.array.to_string(),
                    scaleout_runtime(&dims, c),
                )
            })
            .collect();
        let worst = scored.iter().map(|s| s.3).max().unwrap() as f64;
        for (parts, grid, array, cycles) in scored {
            println!(
                "2^{exp},{parts},{grid},{array},{cycles},{:.6}",
                cycles as f64 / worst
            );
        }
    }
    println!();

    for exp in [14u32, 16] {
        println!(
            "# Fig. 9({}): TF0 monolithic aspect-ratio sweep, 2^{exp} MACs",
            if exp == 14 { 'b' } else { 'c' }
        );
        println!("array,cycles,mapping_utilization");
        let mut ranked = rank_scaleup(&dims, 1 << exp, 8);
        // Present tall-to-wide (the paper's x axis), not by rank.
        ranked.sort_by_key(|s| std::cmp::Reverse(s.array.rows()));
        for s in ranked {
            println!("{},{},{:.4}", s.array, s.cycles, s.mapping_utilization);
        }
        println!();
    }
}
