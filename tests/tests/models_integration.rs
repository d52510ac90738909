//! Cross-checks among the auxiliary models: the sweep API vs raw runs, and
//! the workload generators end to end.
//! The stall model's roofline floor is a property of `metamorphic.rs`.

use scalesim::{run_partition_sweep, sweet_spot, ArrayShape, SimConfig, Simulator};
use scalesim_topology::networks;

fn config() -> SimConfig {
    SimConfig::builder()
        .array(ArrayShape::square(16))
        .sram_kb(64, 64, 32)
        .build()
}

#[test]
fn sweep_points_match_individual_runs() {
    let layer = networks::language_model("NCF1").unwrap();
    let base = config();
    let points = run_partition_sweep(&layer, &base, 1 << 10, 8);
    for p in &points {
        let manual = Simulator::new(SimConfig {
            array: p.array,
            ..base
        })
        .with_grid(p.grid)
        .run_layer(&layer);
        assert_eq!(&manual, &p.report);
    }
    // The sweet spot is a real point of the sweep.
    let spot = sweet_spot(&points).unwrap();
    assert!(points.iter().any(|p| p == spot));
}

#[test]
fn transformer_generator_runs_end_to_end() {
    let net = networks::transformer_encoder("tiny_tf", 64, 128, 256, 2);
    let report = Simulator::new(config()).run_topology(&net);
    assert_eq!(report.layers().len(), 12);
    assert_eq!(report.total_macs(), net.total_macs());
}

#[test]
fn mlp_generator_with_batch_runs_end_to_end() {
    let net = networks::mlp("m", 16, &[256, 512, 128, 10]);
    let auto = Simulator::new(config()).with_auto_dataflow();
    let report = auto.run_topology(&net);
    assert_eq!(report.layers().len(), 3);
    assert!(report.total_cycles() > 0);
}
