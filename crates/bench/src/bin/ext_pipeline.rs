//! Extension experiment: inter-layer pipelining (Tangram-style).
//!
//! SCALE-Sim serializes layers; tiled accelerators can pipeline them. For
//! AlexNet and ResNet-18 on equal total hardware, this harness compares
//! serial execution on one big partitioned accelerator against a pipeline
//! of S smaller accelerators (the same MACs split S ways), for a stream of
//! 256 inputs. Expected shape: pipelines win on throughput once stages
//! balance, with diminishing returns as the bottleneck stage stops
//! shrinking.
//!
//! Run: `cargo run --release -p scalesim-bench --bin ext_pipeline`

use scalesim::sweep::squareish;
use scalesim::{run_pipeline, ArrayShape, PartitionGrid, SimConfig, Simulator};
use scalesim_topology::{networks, Topology};

const INPUTS: u64 = 256;
const TOTAL_MACS: u64 = 1 << 14;

fn study(net: &Topology) {
    println!(
        "# Extension: pipelining {} over equal total hardware ({TOTAL_MACS} MACs, {INPUTS} inputs)",
        net.name()
    );
    println!("stages,per_stage_array,bottleneck_cycles,fill_cycles,total_cycles,speedup_vs_serial,imbalance");

    // Serial baseline: all MACs in one (partitioned) accelerator, inputs
    // processed back to back.
    let (ar, ac) = squareish(TOTAL_MACS);
    let serial_cfg = SimConfig::builder().array(ArrayShape::new(ar, ac)).build();
    let serial_once: u64 = Simulator::new(serial_cfg)
        .run_topology(net)
        .layers()
        .iter()
        .map(|l| l.total_cycles)
        .sum();
    let serial_total = serial_once * INPUTS;
    println!(
        "1,{}x{},{serial_once},{serial_once},{serial_total},1.000,1.00",
        ar, ac
    );

    for stages in [2usize, 4, 8] {
        let per_stage = TOTAL_MACS / stages as u64;
        let (sr, sc) = squareish(per_stage);
        let cfg = SimConfig::builder().array(ArrayShape::new(sr, sc)).build();
        let pipe = run_pipeline(net, &cfg, PartitionGrid::monolithic(), stages);
        let total = pipe.total_cycles(INPUTS);
        println!(
            "{stages},{}x{},{},{},{},{:.3},{:.2}",
            sr,
            sc,
            pipe.bottleneck_cycles,
            pipe.fill_cycles,
            total,
            serial_total as f64 / total as f64,
            pipe.imbalance(),
        );
    }
    println!();
}

fn main() {
    study(&networks::alexnet());
    study(&networks::resnet18());
}
