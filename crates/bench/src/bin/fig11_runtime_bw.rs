//! Fig. 11: stall-free runtime vs. DRAM bandwidth requirement as the
//! partition count grows — the central trade-off of the paper.
//!
//! Cycle-accurate runs (compute schedule + double-buffered DRAM model) of
//! the ResNet-50 `CB2a_3` layer and the Transformer `TF0` layer, for MAC
//! budgets 2^14 / 2^16 / 2^18, sweeping the number of partitions from
//! monolithic up to the 8×8-array floor. Total SRAM is the paper's
//! 512 KB IFMAP + 512 KB filter + 256 KB OFMAP, divided evenly among
//! partitions. Expected shape: runtime falls monotonically with partitions
//! while the aggregate DRAM bandwidth requirement rises — the sweet spot is
//! where the curves cross.
//!
//! Points are evaluated by [`scalesim_bench::partition_sweep`], a one-layer
//! plan on the parallel `SweepEngine`; each row is byte-identical to a
//! direct single-shot `Simulator::run_layer` of the same point.
//!
//! Run: `cargo run --release -p scalesim-bench --bin fig11_runtime_bw`

use scalesim_bench::partition_sweep;
use scalesim_topology::{networks, Layer};

fn sweep_layer(layer: &Layer, budget_exp: u32) {
    println!(
        "# Fig. 11: {} at 2^{budget_exp} MACs (OS dataflow, 512/512/256 KB SRAM)",
        layer.name()
    );
    println!(
        "partitions,grid,array,cycles,req_bw_bytes_per_cycle,avg_bw_bytes_per_cycle,dram_bytes"
    );
    for point in partition_sweep(layer, 1 << budget_exp) {
        let report = &point.report.layers()[0];
        println!(
            "{},{},{},{},{:.3},{:.3},{}",
            point.spec.partitions(),
            point.spec.grid,
            point.spec.array,
            report.total_cycles,
            report.required_bandwidth(),
            report.average_bandwidth(),
            report.dram.total_bytes(),
        );
    }
    println!();
}

fn main() {
    let resnet = networks::resnet50();
    let cb2a3 = resnet.layer("CB2a_3").expect("CB2a_3 is built in").clone();
    let tf0 = networks::language_model("TF0").expect("TF0 is built in");

    // Paper panels (a)-(c): ResNet layer at 2^18, 2^16, 2^14 MACs.
    for exp in [18u32, 16, 14] {
        sweep_layer(&cb2a3, exp);
    }
    // Panels (d)-(f): TF0 at the same budgets.
    for exp in [18u32, 16, 14] {
        sweep_layer(&tf0, exp);
    }
}
