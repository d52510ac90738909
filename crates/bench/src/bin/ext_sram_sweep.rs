//! Ablation: sensitivity of the DRAM traffic to SRAM provisioning.
//!
//! Figs. 11–12 fix the SRAM budget at the paper's 512+512+256 KB; this
//! ablation sweeps it. Expected shape: above the layer's working set, DRAM
//! traffic flattens at the compulsory minimum (every unique element once);
//! below it, refetch traffic and the bandwidth requirement climb steeply —
//! the double-buffer model's capacity misses at work. Run on a convolution
//! (window reuse to lose) and a GEMM (no reuse to lose) for contrast.
//!
//! Run: `cargo run --release -p scalesim-bench --bin ext_sram_sweep`

use scalesim::{ArrayShape, Dataflow, SimConfig, Simulator};
use scalesim_memory::{AddrRuns, ConvAddressMap, GemmAddressMap, RegionOffsets, ReuseProfile};
use scalesim_systolic::fold_demand_runs;
use scalesim_topology::{networks, Layer};

fn sweep(layer: &Layer) {
    println!("# Ablation: DRAM traffic vs SRAM size for {}", layer.name());
    println!("sram_kb_each,dram_read_bytes,dram_write_bytes,req_bw_bytes_per_cycle");
    for kb in [4u64, 16, 64, 256, 1024, 4096] {
        let config = SimConfig::builder()
            .array(ArrayShape::square(32))
            .sram_kb(kb, kb, kb / 2)
            .build();
        let report = Simulator::new(config).run_layer(layer);
        println!(
            "{kb},{},{},{:.3}",
            report.dram.read_bytes(),
            report.dram.write_bytes(),
            report.required_bandwidth(),
        );
    }
    println!();
}

/// One-pass LRU reuse analysis of the IFMAP demand stream: LRU's miss
/// curve beside the FIFO double-buffer numbers above, not a floor under
/// them (`ReuseProfile`'s docs show FIFO missing less).
fn reuse_curve(layer: &Layer) {
    println!(
        "# Reuse-distance (LRU) miss curve for {}'s IFMAP stream",
        layer.name()
    );
    println!("capacity_elems,misses,hit_rate");
    let array = ArrayShape::square(32);
    let dims = layer.shape().project(Dataflow::OutputStationary);
    let offsets = RegionOffsets::default();
    let mut demands = AddrRuns::new();
    match layer {
        Layer::Conv(conv) => {
            let map = ConvAddressMap::new(conv, offsets);
            for d in fold_demand_runs(&dims, array, &map) {
                demands.extend_runs(&d.a);
            }
        }
        Layer::Gemm { shape, .. } => {
            let map = GemmAddressMap::from_shape(*shape, offsets);
            for d in fold_demand_runs(&dims, array, &map) {
                demands.extend_runs(&d.a);
            }
        }
    }
    let profile = ReuseProfile::from_runs(&demands);
    for exp in [10u32, 12, 14, 16, 18, 20] {
        let cap = 1usize << exp;
        println!(
            "{cap},{},{:.4}",
            profile.misses_at(cap),
            profile.hit_rate_at(cap)
        );
    }
    println!(
        "# compulsory floor: {} misses ({} accesses total)",
        profile.cold_accesses(),
        profile.total_accesses()
    );
    println!();
}

fn main() {
    let resnet = networks::resnet50();
    let conv = resnet.layer("CB2a_2").expect("built in");
    sweep(conv);
    sweep(&networks::language_model("TF1").expect("built in"));
    reuse_curve(conv);
}
