//! Extension experiment: runtime under *finite* DRAM bandwidth.
//!
//! The paper reports the bandwidth each configuration needs for stall-free
//! operation (Fig. 11) and notes that at large MAC counts the sweet spot
//! exceeds traditional DRAM. This harness closes the loop: for TF0 at a
//! fixed MAC budget, it sweeps the *available* bandwidth and reports the
//! stalled runtime of a monolithic configuration vs. two partitioned ones.
//! Expected shape: with scarce bandwidth the monolithic array (more reuse,
//! less traffic) wins or ties; as bandwidth grows the partitioned
//! configurations overtake it and approach their stall-free runtimes — the
//! scaling choice literally depends on the memory system.
//!
//! Run: `cargo run --release -p scalesim-bench --bin ext_stall_sweep`

use scalesim::sweep::squareish;
use scalesim::{ArrayShape, PartitionGrid, SimConfig, Simulator};
use scalesim_topology::networks;

fn main() {
    let layer = networks::language_model("TF0").expect("TF0 is built in");
    let budget: u64 = 1 << 14;

    println!("# Extension: TF0 stalled runtime vs available DRAM bandwidth, 2^14 MACs");
    println!("bandwidth_bytes_per_cycle,partitions,array,compute_cycles,stalled_cycles,slowdown");
    for bw_exp in [2u32, 4, 6, 8, 10, 12] {
        let bandwidth = (1u64 << bw_exp) as f64;
        for partitions in [1u64, 16, 256] {
            let (gr, gc) = squareish(partitions);
            let per = budget / partitions;
            let (ar, ac) = squareish(per);
            let config = SimConfig::builder()
                .array(ArrayShape::new(ar, ac))
                .dram_bandwidth(bandwidth)
                .build();
            let report = Simulator::new(config)
                .with_grid(PartitionGrid::new(gr, gc))
                .run_layer(&layer);
            let stall = report.stall.expect("bandwidth was configured");
            println!(
                "{bandwidth},{partitions},{}x{},{},{},{:.3}",
                ar,
                ac,
                report.total_cycles,
                stall.stalled_cycles,
                stall.slowdown(),
            );
        }
    }
    println!();
    println!("# reading guide: at each bandwidth, compare stalled_cycles across partition");
    println!("# counts — the winner flips from monolithic to partitioned as bandwidth grows.");
}
