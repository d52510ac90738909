//! Cross-checks among the auxiliary models: occupancy timelines vs the
//! simulator, the sweep API vs raw runs, the pipeline vs serial execution.
//! The stall model's roofline floor is a property of `metamorphic.rs`.

use scalesim::{
    run_partition_sweep, sweet_spot, ArrayShape, Dataflow, PartitionGrid, SimConfig, Simulator,
};
use scalesim_systolic::occupancy_histogram;
use scalesim_topology::networks;

fn config() -> SimConfig {
    SimConfig::builder()
        .array(ArrayShape::square(16))
        .sram_kb(64, 64, 32)
        .build()
}

#[test]
fn occupancy_mean_equals_simulator_utilization() {
    let sim = Simulator::new(config());
    for layer in &networks::yolo_tiny() {
        let report = sim.run_layer(layer);
        let dims = layer.shape().project(Dataflow::OutputStationary);
        let hist = occupancy_histogram(&dims, config().array);
        assert_eq!(hist.total_cycles(), report.total_cycles, "{}", layer.name());
        assert_eq!(hist.total_activity(), report.mac_ops, "{}", layer.name());
        let util_from_hist = hist.mean() / config().array.macs() as f64;
        assert!(
            (util_from_hist - report.compute_utilization).abs() < 1e-9,
            "{}",
            layer.name()
        );
    }
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
fn pipeline_stage_latencies_match_layer_reports() {
    let net = networks::alexnet();
    let base = config();
    let pipe = scalesim::run_pipeline(&net, &base, PartitionGrid::monolithic(), 3);
    let sim = Simulator::new(base);
    for stage in &pipe.stages {
        let expected: u64 = stage
            .layers
            .iter()
            .map(|name| sim.run_layer(net.layer(name).unwrap()).total_cycles)
            .sum();
        assert_eq!(stage.cycles, expected);
    }
    assert_eq!(
        pipe.fill_cycles,
        pipe.stages.iter().map(|s| s.cycles).sum::<u64>()
    );
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
