//! `scalesim_demand_elements_total` and `scalesim_demand_runs_total` count
//! work done — the tiles simulated, one per class — not work modeled. The
//! counters are process-global and unlabeled, so this test has a binary to
//! itself.

use scalesim::telemetry_names::{DEMAND_ELEMENTS, DEMAND_RUNS};
use scalesim::{ArrayShape, Layer, PartitionGrid, SimConfig, Simulator};

fn config(sram_kb: (u64, u64, u64), bandwidth: f64) -> SimConfig {
    SimConfig {
        dram_bandwidth: Some(bandwidth),
        ..SimConfig::builder()
            .array(ArrayShape::square(8))
            .sram_kb(sram_kb.0, sram_kb.1, sram_kb.2)
            .build()
    }
}

#[test]
fn an_even_4x4_gemm_split_adds_one_tile_s_demand_and_reports_all_sixteen() {
    let registry = scalesim_telemetry::global();
    let counters = || {
        [DEMAND_ELEMENTS, DEMAND_RUNS].map(|name| registry.counter_value(name, &[]).unwrap_or(0))
    };

    // One tile on its own: a monolithic run with a sixteenth of the SRAM
    // and of the bandwidth, which is what a 4x4 grid gives each partition.
    let before = counters();
    let tile = Simulator::new(config((4, 4, 2), 2.0)).run_layer(&Layer::gemm("tile", 48, 40, 56));
    let after_tile = counters();
    let split = Simulator::new(config((64, 64, 32), 32.0))
        .with_grid(PartitionGrid::new(4, 4))
        .run_layer(&Layer::gemm("split", 4 * 48, 40, 4 * 56));
    let after_split = counters();

    // Sixteen tiles of one class: one simulation's demand, in this (dev)
    // profile too, where the other fifteen are simulated as a cross-check.
    let one_tile = [after_tile[0] - before[0], after_tile[1] - before[1]];
    assert!(one_tile[0] > one_tile[1] && one_tile[1] > 0, "{one_tile:?}");
    assert_eq!(
        [
            after_split[0] - after_tile[0],
            after_split[1] - after_tile[1]
        ],
        one_tile
    );

    // The report is that of sixteen partitions all the same.
    assert_eq!(split.active_partitions, 16);
    assert_eq!(split.per_partition_cycles, vec![tile.total_cycles; 16]);
    assert_eq!(split.total_cycles, tile.total_cycles);
    assert_eq!(split.mac_ops, 16 * tile.mac_ops);
    assert_eq!(split.sram.total(), 16 * tile.sram.total());
    assert_eq!(split.dram.reads_a, 16 * tile.dram.reads_a);
    assert_eq!(split.dram.reads_b, 16 * tile.dram.reads_b);
    assert_eq!(split.dram.writes_o, 16 * tile.dram.writes_o);
    assert_eq!(split.dram.folds, tile.dram.folds);
    // Added up sixteen times over, as if each had been simulated.
    let sixteen = |x: f64| (0..16).fold(0.0, |sum, _| sum + x);
    assert_eq!(
        split.mapping_utilization,
        sixteen(tile.mapping_utilization) / 16.0
    );
    assert_eq!(
        split.required_bandwidth(),
        sixteen(tile.dram.read_bw.peak()) + sixteen(tile.dram.write_bw.peak())
    );
    let (split_stall, tile_stall) = (split.stall.unwrap(), tile.stall.unwrap());
    assert_eq!(split_stall.stalled_cycles, tile_stall.stalled_cycles);
    assert_eq!(split_stall.bandwidth, 32.0);
}
