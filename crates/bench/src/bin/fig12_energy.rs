//! Fig. 12: energy vs. partition count.
//!
//! Same cycle-accurate sweep as Fig. 11, reporting the energy model's
//! totals and breakdown. Expected shape (Sec. IV-A): for small MAC budgets
//! (2^8–2^12) the minimum-energy point is the monolithic configuration;
//! as the budget grows the minimum moves toward more partitions, because
//! the idle energy a slow monolithic array burns across its huge PE count
//! outweighs the reuse (SRAM/DRAM) energy partitioning sacrifices.
//!
//! Points are evaluated by [`scalesim_bench::partition_sweep`], a one-layer
//! plan on the parallel `SweepEngine`; each row is byte-identical to a
//! direct single-shot `Simulator::run_layer` of the same point.
//!
//! Run: `cargo run --release -p scalesim-bench --bin fig12_energy`

use scalesim_bench::partition_sweep;
use scalesim_topology::{networks, Layer};

fn sweep_layer(layer: &Layer, budget_exp: u32) {
    println!(
        "# Fig. 12: energy for {} at 2^{budget_exp} MACs",
        layer.name()
    );
    println!("partitions,grid,array,cycles,e_total,e_mac,e_idle,e_sram,e_dram");
    let mut best: Option<(u64, f64)> = None;
    for point in partition_sweep(layer, 1 << budget_exp) {
        let report = &point.report.layers()[0];
        let e = &report.energy;
        println!(
            "{},{},{},{},{:.0},{:.0},{:.0},{:.0},{:.0}",
            point.spec.partitions(),
            point.spec.grid,
            point.spec.array,
            report.total_cycles,
            e.total(),
            e.mac,
            e.idle,
            e.sram,
            e.dram,
        );
        if best.is_none_or(|(_, b)| e.total() < b) {
            best = Some((point.spec.partitions(), e.total()));
        }
    }
    if let Some((parts, _)) = best {
        println!("# minimum-energy partition count: {parts}");
    }
    println!();
}

fn main() {
    let resnet = networks::resnet50();
    let cb2a3 = resnet.layer("CB2a_3").expect("CB2a_3 is built in").clone();
    let tf0 = networks::language_model("TF0").expect("TF0 is built in");

    for layer in [&cb2a3, &tf0] {
        for exp in [8u32, 10, 12, 14, 16, 18] {
            sweep_layer(layer, exp);
        }
    }
}
