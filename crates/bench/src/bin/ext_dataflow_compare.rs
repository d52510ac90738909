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
use scalesim_analytical::exact_scaleup;
use scalesim_topology::{networks, Dataflow, GemmShape, Layer};

/// Stall-free cycles of each projection of `shape` on `array`, in
/// `Dataflow::ALL` order, and the index of the fastest (the first on a
/// tie).
fn rank(shape: GemmShape, array: ArrayShape) -> ([u64; 3], usize) {
    let cycles = Dataflow::ALL.map(|df| exact_scaleup(&shape.project(df), array));
    let best = (0..3).min_by_key(|&i| cycles[i]).expect("three dataflows");
    (cycles, best)
}

fn main() {
    let array = ArrayShape::square(128);

    println!("# Extension: best dataflow per layer on a {array} array (stall-free cycles)");
    println!("layer,os_cycles,ws_cycles,is_cycles,winner,worst_over_best");

    let resnet = networks::resnet50();
    let picks = ["Conv1", "CB2a_2", "CB3a_3", "ID4b_1", "ID5c_2", "FC1000"];
    let mut layers: Vec<Layer> = picks
        .iter()
        .map(|n| resnet.layer(n).expect("built-in layer").clone())
        .collect();
    layers.extend(networks::language_models());

    for layer in &layers {
        let (cycles, best) = rank(layer.shape(), array);
        let [os, ws, is] = cycles;
        let worst = cycles.into_iter().max().expect("three dataflows");
        println!(
            "{},{os},{ws},{is},{},{:.2}",
            layer.name(),
            Dataflow::ALL[best],
            worst as f64 / cycles[best] as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_analytical::best_dataflow;

    #[test]
    fn ranking_is_in_dataflow_order_and_names_the_fastest() {
        let shape = GemmShape::new(100, 50, 80);
        let array = ArrayShape::new(16, 16);
        let (cycles, best) = rank(shape, array);
        for (df, c) in Dataflow::ALL.into_iter().zip(cycles) {
            assert_eq!(c, exact_scaleup(&shape.project(df), array), "{df}");
        }
        assert!(cycles.iter().all(|&c| cycles[best] <= c));
    }

    #[test]
    fn fat_contraction_prefers_output_stationary() {
        // k >> m, n: OS keeps the whole (small) output resident and
        // unrolls k in time.
        let (_, best) = rank(GemmShape::new(16, 10_000, 16), ArrayShape::square(16));
        assert_eq!(Dataflow::ALL[best], Dataflow::OutputStationary);
    }

    #[test]
    fn winner_is_the_simulators_auto_dataflow() {
        let shape = GemmShape::new(31999, 84, 1024);
        let array = ArrayShape::new(64, 16);
        let (_, best) = rank(shape, array);
        assert_eq!(Dataflow::ALL[best], best_dataflow(shape, array));
    }
}
