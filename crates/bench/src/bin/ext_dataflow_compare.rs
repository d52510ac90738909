//! Extension experiment: dataflow choice per workload.
//!
//! Section III-B: for a fixed workload and array, the dataflow decides
//! which dimensions map to space and which to time, "which could be
//! selected to minimize τ". This harness ranks OS/WS/IS for every Table IV
//! layer and for representative ResNet-50 layers on a 128×128 array, and
//! reports each layer's winner and the spread.
//!
//! Run: `cargo run --release -p scalesim-bench --bin ext_dataflow_compare`

use scalesim::ArrayShape;
use scalesim_analytical::rank_dataflows;
use scalesim_topology::networks;

fn main() {
    let array = ArrayShape::square(128);

    println!("# Extension: best dataflow per layer on a {array} array (stall-free cycles)");
    println!("layer,os_cycles,ws_cycles,is_cycles,winner,worst_over_best");

    let resnet = networks::resnet50();
    let picks = ["Conv1", "CB2a_2", "CB3a_3", "ID4b_1", "ID5c_2", "FC1000"];
    let mut layers: Vec<scalesim_topology::Layer> = picks
        .iter()
        .map(|n| resnet.layer(n).expect("built-in layer").clone())
        .collect();
    layers.extend(networks::language_models());

    for layer in &layers {
        let ranked = rank_dataflows(layer.shape(), array);
        let by = |df: scalesim_topology::Dataflow| {
            ranked
                .iter()
                .find(|s| s.dataflow == df)
                .expect("all three present")
                .cycles
        };
        use scalesim_topology::Dataflow::*;
        println!(
            "{},{},{},{},{},{:.2}",
            layer.name(),
            by(OutputStationary),
            by(WeightStationary),
            by(InputStationary),
            ranked[0].dataflow,
            ranked[2].cycles as f64 / ranked[0].cycles as f64,
        );
    }
}
