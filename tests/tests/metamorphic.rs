//! Metamorphic relations: checks between two runs of the one simulator
//! that take different code paths, so no second simulator is needed.
//!
//! * *Context-free layers.* A layer's report depends on the layer, the
//!   configuration and the grid, and on nothing else: run alone, at any
//!   position of a topology, with the layer cache warm or cleared, in a
//!   sweep at any `--jobs`, or through the server's engine — whichever
//!   worker of the one pool took it — its `LayerReport` is the same, each
//!   `f64` bit for bit.
//! * *Bandwidth.* Stall cycles are non-increasing in the DRAM bandwidth,
//!   absent without one, and never below the roofline floor: the compute
//!   cycles, and the DRAM bytes at the bandwidth.
//! * *WS/IS duality (GEMM).* WS on `(M, K, N)` with IFMAP and filter SRAM
//!   `(x, y)` and IS on `(N, K, M)` with `(y, x)` map to the same fold
//!   plan: their reports are equal bit for bit once the IFMAP and filter
//!   counts are swapped.
//!   On a grid, WS over `P_R × P_C` and IS over `P_C × P_R` give WS tile
//!   `(i, j)` and IS tile `(j, i)` the same dual pair: integers are equal
//!   (per-partition cycles in the transposed tile order), and the two
//!   `f64` sums over tiles, mapping utilisation and bandwidth peaks, are
//!   equal to 1e-12 relative, since the tiles are added in another order.
//! * *OS transpose (GEMM).* OS on `(M, K, N)` with an `R × C` array and on
//!   `(N, K, M)` with a `C × R` one take the same cycles and mapping
//!   utilisation; when one fold dimension is 1 (`F_R = 1` or `F_C = 1`)
//!   the whole report is equal with the operand buffers swapped.

use std::sync::OnceLock;

use proptest::prelude::*;

use scalesim::sweep::{CsvSink, DataflowChoice, SweepPlan, SweepWorkload};
use scalesim::{
    layer_cache, ArrayShape, ConvLayer, Dataflow, Layer, LayerReport, PartitionGrid, PointSpec,
    SimConfig, Simulator, SweepEngine, Topology,
};
use scalesim_server::{Engine, NormalizedJob};

const DATAFLOWS: [Dataflow; 3] = [
    Dataflow::OutputStationary,
    Dataflow::WeightStationary,
    Dataflow::InputStationary,
];

/// A small convolution or GEMM from drawn dimensions: `kind` 0 is a
/// GEMM `a × b × c`, otherwise a convolution whose filter and stride are
/// clamped to fit its IFMAP.
fn layer(name: &str, kind: u64, a: u64, b: u64, c: u64, f: u64, s: u64) -> Layer {
    if kind == 0 {
        Layer::gemm(name, a, b, c)
    } else {
        let (h, w) = (a.max(3), b.max(3));
        let filter = f.min(h).min(w);
        ConvLayer::new(name, h, w, filter, filter, c.min(6), a.min(12), s)
            .expect("the filter fits the IFMAP")
            .into()
    }
}

/// A configuration of an `rows × cols` array under `dataflow`, with 1 KB
/// operand SRAMs that small layers overflow (`tight`) or 512 KB ones
/// they fit in.
fn config(rows: u64, cols: u64, dataflow: usize, tight: bool) -> SimConfig {
    let kb = if tight { 1 } else { 512 };
    SimConfig::builder()
        .array(ArrayShape::new(rows, cols))
        .dataflow(DATAFLOWS[dataflow])
        .sram_kb(kb, kb, kb)
        .build()
}

/// The `f64` fields of a report by their bits.
fn f64_bits(report: &LayerReport) -> Vec<u64> {
    let mut bits = vec![
        report.mapping_utilization.to_bits(),
        report.compute_utilization.to_bits(),
        report.energy.mac.to_bits(),
        report.energy.idle.to_bits(),
        report.energy.sram.to_bits(),
        report.energy.dram.to_bits(),
        report.dram.read_bw.peak().to_bits(),
        report.dram.read_bw.average().to_bits(),
        report.dram.write_bw.peak().to_bits(),
        report.dram.write_bw.average().to_bits(),
    ];
    if let Some(stall) = report.stall {
        bits.extend([stall.bandwidth.to_bits(), stall.bus_utilization.to_bits()]);
    }
    bits
}

/// Fails unless `got` is `want`: every field, and every `f64` by its bits.
fn same(want: &LayerReport, got: &LayerReport, path: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(f64_bits(want), f64_bits(got), "{}: f64 bits differ", path);
    prop_assert_eq!(format!("{want:?}"), format!("{got:?}"), "{}", path);
    Ok(())
}

/// One engine for every case: a server's pool of two workers.
fn engine() -> &'static Engine {
    static ENGINE: OnceLock<Engine> = OnceLock::new();
    ENGINE.get_or_init(|| Engine::new(2, 16))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_layer_s_report_does_not_depend_on_where_it_is_simulated(
        dims in (0u64..2, 1u64..24, 1u64..24, 1u64..24, 1u64..4, 1u64..3),
        hardware in (0usize..3, 0usize..3, 0usize..3, 1u64..4, 1u64..4, 0usize..2),
        others in proptest::collection::vec((0u64..2, 1u64..16, 1u64..16, 1u64..16), 0..3),
        position in 0usize..4,
    ) {
        let (kind, a, b, c, f, s) = dims;
        let (rows, cols, dataflow, grid_rows, grid_cols, tight) = hardware;
        let target = layer("target", kind, a, b, c, f, s);
        let config = config(2 << rows, 2 << cols, dataflow, tight == 0);
        let grid = PartitionGrid::new(grid_rows, grid_cols);
        let sim = Simulator::new(config).with_grid(grid);

        layer_cache::clear();
        let alone = sim.run_layer(&target);
        same(&alone, &sim.run_layer(&target), "warm layer cache")?;
        layer_cache::clear();
        same(&alone, &sim.run_layer(&target), "cleared layer cache")?;

        let mut layers: Vec<Layer> = others
            .iter()
            .enumerate()
            .map(|(i, &(kind, a, b, c))| layer(&format!("other{i}"), kind, a, b, c, 2, 1))
            .collect();
        let position = position.min(layers.len());
        layers.insert(position, target);
        let topology = Topology::from_layers("net", layers);
        same(&alone, &sim.run_topology(&topology).layers()[position], "in a topology")?;

        let plan = SweepPlan {
            workloads: vec![SweepWorkload { label: "net".into(), topology: topology.clone() }],
            base: config,
            ..SweepPlan::new("context-free")
        };
        let point = PointSpec {
            index: 0,
            workload: "net".into(),
            budget: config.array.macs() * grid.count(),
            grid,
            array: config.array,
            dataflow: DataflowChoice::Fixed(config.dataflow),
        };
        for jobs in [1, 2, 7] {
            let outcome = SweepEngine::default()
                .run_points(&plan, vec![point.clone()], jobs, &mut CsvSink::new(std::io::sink()))
                .expect("the point simulates");
            let report = &outcome.results[0].report.layers()[position];
            same(&alone, report, &format!("a sweep at --jobs {jobs}"))?;
        }

        let job = NormalizedJob { config, topology, grid, auto_dataflow: false };
        let (served, _) = engine().run_normalized(job).expect("the job simulates");
        same(&alone, &served.report.layers()[position], "the server's engine")?;
    }

    #[test]
    fn stalls_shrink_with_bandwidth_and_never_beat_the_roofline(
        dims in (0u64..2, 1u64..32, 1u64..32, 1u64..32, 1u64..4, 1u64..3),
        hardware in (0usize..3, 0usize..3, 0usize..3, 1u64..4, 1u64..4, 0usize..2),
        partitioned in 0usize..2,
        bandwidths in (0usize..8, 0usize..8),
    ) {
        let (kind, a, b, c, f, s) = dims;
        let (rows, cols, dataflow, grid_rows, grid_cols, tight) = hardware;
        let (narrow, wide) = bandwidths;
        const BANDWIDTHS: [f64; 8] = [0.5, 1.0, 2.0, 3.0, 8.0, 16.0, 64.0, 1024.0];
        let target = layer("bw", kind, a, b, c, f, s);
        let base = config(2 << rows, 2 << cols, dataflow, tight == 0);
        let grid = if partitioned == 0 {
            PartitionGrid::monolithic()
        } else {
            PartitionGrid::new(grid_rows, grid_cols)
        };
        let run = |bandwidth: Option<f64>| {
            let config = SimConfig { dram_bandwidth: bandwidth, ..base };
            Simulator::new(config).with_grid(grid).run_layer(&target)
        };

        let unbounded = run(None);
        prop_assert!(unbounded.stall.is_none());
        prop_assert_eq!(unbounded.effective_cycles(), unbounded.total_cycles);

        let (narrow, wide) = (BANDWIDTHS[narrow.min(wide)], BANDWIDTHS[narrow.max(wide)]);
        let stalled = |report: &LayerReport| report.stall.expect("a bandwidth was set").stalled_cycles;
        let (slow, fast) = (run(Some(narrow)), run(Some(wide)));
        prop_assert!(
            stalled(&slow) >= stalled(&fast),
            "{} B/cycle: {} cycles, {} B/cycle: {}",
            narrow, stalled(&slow), wide, stalled(&fast)
        );
        for (bandwidth, report) in [(narrow, &slow), (wide, &fast)] {
            let floor = (report.dram.total_bytes() as f64 / bandwidth).ceil() as u64;
            prop_assert!(
                stalled(report) >= report.total_cycles.max(floor),
                "{} B/cycle on grid {}: {} stalled cycles, {} compute, {} DRAM bytes",
                bandwidth, grid, stalled(report), report.total_cycles, report.dram.total_bytes()
            );
        }
    }
}

/// `report` with its IFMAP and filter figures exchanged: SRAM reads and
/// DRAM reads of operands A and B.
fn operands_swapped(report: &LayerReport) -> LayerReport {
    let mut swapped = report.clone();
    let (sram, dram) = (&mut swapped.sram, &mut swapped.dram);
    std::mem::swap(&mut sram.a_reads, &mut sram.b_reads);
    std::mem::swap(&mut dram.reads_a, &mut dram.reads_b);
    swapped
}

/// A GEMM configuration: an `rows × cols` array under `dataflow` with
/// IFMAP and filter SRAMs of `sram.0` and `sram.1` KB and `sram.2` KB of
/// OFMAP SRAM, and a DRAM bandwidth when `bandwidth` is nonzero.
fn gemm_config(
    array: ArrayShape,
    dataflow: Dataflow,
    sram: (u64, u64, u64),
    bandwidth: usize,
) -> SimConfig {
    let mut config = SimConfig::builder()
        .array(array)
        .dataflow(dataflow)
        .sram_kb(sram.0, sram.1, sram.2)
        .build();
    if bandwidth > 0 {
        config.dram_bandwidth = Some([0.5, 2.0, 16.0][bandwidth - 1]);
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    fn ws_and_is_are_duals_on_gemms(
        gemm in (1u64..40, 1u64..40, 1u64..40),
        array in (0u32..4, 0u32..4),
        sram in (1u64..3, 1u64..3, 1u64..3),
        bandwidth in 0usize..4,
    ) {
        let (m, k, n) = gemm;
        let array = ArrayShape::new(2 << array.0, 2 << array.1);
        let ws = gemm_config(array, Dataflow::WeightStationary, sram, bandwidth);
        let is = gemm_config(array, Dataflow::InputStationary, (sram.1, sram.0, sram.2), bandwidth);
        let ws = Simulator::new(ws).run_layer(&Layer::gemm("g", m, k, n));
        let is = Simulator::new(is).run_layer(&Layer::gemm("g", n, k, m));
        same(&operands_swapped(&ws), &is, "IS on the transposed GEMM")?;
    }

    fn ws_and_is_are_duals_on_partitioned_gemms(
        gemm in (1u64..40, 1u64..40, 1u64..40),
        array in (0u32..3, 0u32..3),
        grid in (1u64..4, 1u64..4),
        sram in (1u64..3, 1u64..3, 1u64..3),
        bandwidth in 0usize..4,
    ) {
        let (m, k, n) = gemm;
        let (pr, pc) = grid;
        let array = ArrayShape::new(2 << array.0, 2 << array.1);
        let ws = gemm_config(array, Dataflow::WeightStationary, sram, bandwidth);
        let is = gemm_config(array, Dataflow::InputStationary, (sram.1, sram.0, sram.2), bandwidth);
        let ws = Simulator::new(ws)
            .with_grid(PartitionGrid::new(pr, pc))
            .run_layer(&Layer::gemm("g", m, k, n));
        let is = Simulator::new(is)
            .with_grid(PartitionGrid::new(pc, pr))
            .run_layer(&Layer::gemm("g", n, k, m));
        let mut ws = operands_swapped(&ws);

        // Active tiles form an a_r x a_c block; WS lists tile (i, j) at
        // i·a_c + j, IS lists its dual (j, i) at j·a_r + i.
        let (a_r, a_c) = (m.div_ceil(m.div_ceil(pr)), n.div_ceil(n.div_ceil(pc)));
        prop_assert_eq!(ws.active_partitions, a_r * a_c);
        let transposed: Vec<u64> = (0..a_c * a_r)
            .map(|t| ws.per_partition_cycles[((t % a_r) * a_c + t / a_r) as usize])
            .collect();
        prop_assert_eq!(&transposed, &is.per_partition_cycles);

        let near = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
        prop_assert!(near(ws.mapping_utilization, is.mapping_utilization));
        prop_assert!(near(ws.dram.read_bw.peak(), is.dram.read_bw.peak()));
        prop_assert!(near(ws.dram.write_bw.peak(), is.dram.write_bw.peak()));
        // With the tile-order sums set aside, the rest is bit for bit.
        ws.grid = is.grid;
        ws.per_partition_cycles = transposed;
        ws.mapping_utilization = is.mapping_utilization;
        let mut bits = f64_bits(&ws);
        let mut want = f64_bits(&is);
        for peaks in [8, 6] {
            bits.remove(peaks);
            want.remove(peaks);
        }
        prop_assert_eq!(bits, want);
        let (ws_dram, is_dram) = (&ws.dram, &is.dram);
        prop_assert_eq!(
            (ws_dram.reads_a, ws_dram.reads_b, ws_dram.reads_o, ws_dram.writes_o, ws_dram.folds),
            (is_dram.reads_a, is_dram.reads_b, is_dram.reads_o, is_dram.writes_o, is_dram.folds)
        );
        prop_assert_eq!(
            format!("{:?}", (ws.total_cycles, ws.mac_ops, ws.sram, ws.stall.map(|s| s.stalled_cycles))),
            format!("{:?}", (is.total_cycles, is.mac_ops, is.sram, is.stall.map(|s| s.stalled_cycles)))
        );
    }

    fn os_transposes_on_gemms(
        gemm in (1u64..40, 1u64..40, 1u64..40),
        array in (0u32..4, 0u32..4),
        sram in (1u64..3, 1u64..3, 1u64..3),
    ) {
        let (m, k, n) = gemm;
        let (rows, cols) = (2u64 << array.0, 2u64 << array.1);
        let config = |array, sram| gemm_config(array, Dataflow::OutputStationary, sram, 0);
        let os = Simulator::new(config(ArrayShape::new(rows, cols), sram))
            .run_layer(&Layer::gemm("g", m, k, n));
        let transposed = Simulator::new(config(ArrayShape::new(cols, rows), (sram.1, sram.0, sram.2)))
            .run_layer(&Layer::gemm("g", n, k, m));
        prop_assert_eq!(
            os.mapping_utilization.to_bits(),
            transposed.mapping_utilization.to_bits()
        );
        // A fold of an r' x c' tile takes 2r' + c' + T - 2 cycles (the
        // paper's Eq. 3: outputs drain along the rows), so the transposed
        // run differs by the sum of r' - c' over the folds.
        let (fold_rows, fold_cols) = (m.div_ceil(rows), n.div_ceil(cols));
        prop_assert_eq!(
            i128::from(os.total_cycles) - i128::from(transposed.total_cycles),
            i128::from(fold_cols * m) - i128::from(fold_rows * n)
        );
        if fold_rows == 1 || fold_cols == 1 {
            let swapped = operands_swapped(&os);
            prop_assert_eq!(swapped.sram, transposed.sram);
            prop_assert_eq!(
                format!("{:?}", (swapped.dram.reads_a, swapped.dram.reads_b, swapped.dram.reads_o, swapped.dram.writes_o, swapped.dram.folds)),
                format!("{:?}", (transposed.dram.reads_a, transposed.dram.reads_b, transposed.dram.reads_o, transposed.dram.writes_o, transposed.dram.folds))
            );
        }
    }
}
