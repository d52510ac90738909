//! Property tests on the scale-out machinery: tiling, conservation and
//! aggregation invariants across partition grids, and the DRAM traffic of
//! a partitioned layer against the element oracle, tile by tile.

use proptest::prelude::*;

use scalesim::{ArrayShape, Dataflow, PartitionGrid, SimConfig, Simulator};
use scalesim_analytical::{scaleout_runtime, split_dims, AnalyticalModel, ScaleOutConfig};
use scalesim_integration::oracle::tile_traffic;
use scalesim_memory::{AddressMap, ConvAddressMap, GemmAddressMap, SubGemmMap};
use scalesim_topology::{ConvLayer, GemmShape, Layer};

fn config(array_pow: u32) -> SimConfig {
    SimConfig::builder()
        .array(ArrayShape::square(1 << array_pow))
        .sram_kb(64, 64, 32)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// MACs and output writes are conserved under any partition grid, and
    /// the partitioned runtime never exceeds the monolithic runtime of the
    /// same per-partition array... while per-partition cycles match the
    /// slowest-partition rule.
    #[test]
    fn partitioning_conserves_work(
        m in 1u64..300,
        k in 1u64..40,
        n in 1u64..300,
        pr in 1u64..5,
        pc in 1u64..5,
        array_pow in 2u32..5,
        df_idx in 0usize..3,
    ) {
        let cfg = SimConfig {
            dataflow: Dataflow::ALL[df_idx],
            ..config(array_pow)
        };
        let layer = Layer::gemm("w", m, k, n);
        let grid = PartitionGrid::new(pr, pc);
        let report = Simulator::new(cfg).with_grid(grid).run_layer(&layer);

        prop_assert_eq!(report.mac_ops, m * k * n);
        prop_assert_eq!(
            report.total_cycles,
            *report.per_partition_cycles.iter().max().unwrap()
        );
        prop_assert!(report.active_partitions <= grid.count());
        prop_assert!(report.active_partitions >= 1);

        // Output writes across partitions cover the full output at least
        // once (WS/IS row folds rewrite, so >=).
        prop_assert!(report.sram.o_writes >= m * n);
    }

    /// Eq. 5/6: the analytical scale-out runtime equals the analytical
    /// scale-up runtime of the ceiling-share sub-workload.
    #[test]
    fn eq5_eq6_consistency(
        m in 1u64..500,
        k in 1u64..50,
        n in 1u64..500,
        pr in 1u64..8,
        pc in 1u64..8,
    ) {
        let dims = GemmShape::new(m, k, n).project(Dataflow::OutputStationary);
        let grid = PartitionGrid::new(pr, pc);
        let array = ArrayShape::new(8, 8);
        let cfg = ScaleOutConfig { grid, array };
        let model = AnalyticalModel;
        let split = split_dims(&dims, grid);
        prop_assert_eq!(
            scaleout_runtime(&dims, &cfg, &model),
            scalesim_analytical::exact_scaleup(&split, array)
        );
        // Splitting never enlarges a dimension.
        prop_assert!(split.spatial_rows <= dims.spatial_rows);
        prop_assert!(split.spatial_cols <= dims.spatial_cols);
        prop_assert_eq!(split.temporal, dims.temporal);
    }

    /// The cycle-accurate partitioned runtime matches the analytical Eq. 6
    /// prediction for GEMM workloads on even splits (the analytical model
    /// prices the ceiling share; with divisible dims they coincide).
    #[test]
    fn simulator_matches_eq6_on_divisible_splits(
        mb in 1u64..20,
        k in 1u64..30,
        nb in 1u64..20,
        pr in 1u64..4,
        pc in 1u64..4,
    ) {
        let m = mb * pr * 4;
        let n = nb * pc * 4;
        let layer = Layer::gemm("w", m, k, n);
        let grid = PartitionGrid::new(pr, pc);
        let cfg = config(2); // 4x4 arrays
        let report = Simulator::new(cfg).with_grid(grid).run_layer(&layer);
        let dims = GemmShape::new(m, k, n).project(Dataflow::OutputStationary);
        let model = AnalyticalModel;
        let predicted = scaleout_runtime(
            &dims,
            &ScaleOutConfig { grid, array: cfg.array },
            &model,
        );
        prop_assert_eq!(report.total_cycles, predicted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The memory side of scale-out against a model that shares nothing
    /// with it: every tile of the grid — each one, whatever class the
    /// simulator files it under — walked element by element through hash-set
    /// FIFOs, summed, is the DRAM traffic `run_layer` reports. Small conv
    /// and GEMM layers, every dataflow, ragged grids up to 3x3, operand
    /// SRAM from nothing to everything-fits.
    #[test]
    fn partitioned_dram_traffic_is_the_sum_of_the_oracle_s_tiles(
        conv in 0u8..2,
        ifmap in (3u64..11, 3u64..11, 1u64..4, 1u64..4),
        gemm in (1u64..40, 1u64..20, 1u64..30),
        stride in 1u64..3,
        df_idx in 0usize..3,
        pr in 1u64..4,
        pc in 1u64..4,
        array_pow in 1u32..4,
        sram_idx in 0usize..5,
    ) {
        let (m, k, n) = gemm;
        let layer: Layer = if conv == 1 {
            let (h, w, filter, channels) = ifmap;
            ConvLayer::new("c", h, w, filter, filter, channels, n, stride).unwrap().into()
        } else {
            Layer::gemm("g", m, k, n)
        };
        let sram_kb = [0, 1, 2, 5, 1 << 20][sram_idx];
        let cfg = SimConfig::builder()
            .array(ArrayShape::square(1 << array_pow))
            .dataflow(Dataflow::ALL[df_idx])
            .sram_kb(sram_kb, sram_kb, sram_kb)
            .build();
        let grid = PartitionGrid::new(pr, pc);
        let report = Simulator::new(cfg).with_grid(grid).run_layer(&layer);

        let map: Box<dyn AddressMap> = match &layer {
            Layer::Conv(conv) => Box::new(ConvAddressMap::new(conv, cfg.offsets)),
            Layer::Gemm { shape, .. } => Box::new(GemmAddressMap::from_shape(*shape, cfg.offsets)),
        };
        let capacities = [
            cfg.ifmap_buffer(grid.count()),
            cfg.filter_buffer(grid.count()),
            cfg.ofmap_buffer(grid.count()),
        ]
        .map(|spec| spec.capacity_elems());
        // Eq. 5 in output coordinates: ceiling shares, the last one short,
        // none for a partition that starts past the end.
        let shape = layer.shape();
        let (chunk_m, chunk_n) = (shape.m.div_ceil(pr), shape.n.div_ceil(pc));
        let mut expected = (0, 0, 0, 0);
        let mut tiles = 0;
        for m_off in (0..shape.m).step_by(chunk_m as usize) {
            for n_off in (0..shape.n).step_by(chunk_n as usize) {
                let tile = GemmShape::new(
                    chunk_m.min(shape.m - m_off),
                    shape.k,
                    chunk_n.min(shape.n - n_off),
                );
                let traffic = tile_traffic(
                    &tile.project(cfg.dataflow),
                    cfg.array,
                    &SubGemmMap::new(&*map, m_off, n_off),
                    capacities,
                );
                expected.0 += traffic.0;
                expected.1 += traffic.1;
                expected.2 += traffic.2;
                expected.3 += traffic.3;
                tiles += 1;
            }
        }
        prop_assert_eq!(report.active_partitions, tiles);
        let dram = &report.dram;
        prop_assert_eq!(
            (dram.reads_a, dram.reads_b, dram.reads_o, dram.writes_o),
            expected
        );
    }
}

/// A grid larger than the workload leaves partitions idle but still
/// produces the correct result and counts them as provisioned for energy.
#[test]
fn idle_partitions_cost_idle_energy() {
    let layer = Layer::gemm("tiny", 4, 8, 4);
    let cfg = config(2);
    let busy = Simulator::new(cfg).run_layer(&layer);
    let wasteful = Simulator::new(cfg)
        .with_grid(PartitionGrid::new(8, 8))
        .run_layer(&layer);
    assert_eq!(busy.mac_ops, wasteful.mac_ops);
    // 64 provisioned partitions, only 2x2(?) active — idle energy dominates.
    assert!(wasteful.energy.idle > busy.energy.idle);
    assert!(wasteful.provisioned_macs() > busy.provisioned_macs());
}
