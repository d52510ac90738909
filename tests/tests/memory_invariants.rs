//! Property tests on the memory stack: demand/DRAM/buffer invariants that
//! must hold for any workload and buffer sizing.

use proptest::prelude::*;

use scalesim_memory::{
    ConvAddressMap, DramModel, GemmAddressMap, OperandBufferSpec, RegionOffsets,
};
use scalesim_systolic::{analyze, fold_demands, ArrayShape, Dataflow};
use scalesim_topology::{ConvLayerBuilder, GemmShape};

fn spec(bytes: u64) -> OperandBufferSpec {
    OperandBufferSpec {
        size_bytes: bytes,
        word_bytes: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DRAM reads are bounded below by the unique data (compulsory misses)
    /// and above by the SRAM read counts (you can never fetch more from
    /// DRAM than the array consumes from SRAM).
    #[test]
    fn dram_reads_bounded_by_unique_and_sram(
        m in 1u64..80,
        k in 1u64..40,
        n in 1u64..80,
        buf_bytes in 16u64..100_000,
        df_idx in 0usize..3,
    ) {
        let df = Dataflow::ALL[df_idx];
        let shape = GemmShape::new(m, k, n);
        let dims = shape.project(df);
        let array = ArrayShape::new(8, 8);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());

        let mut dram = DramModel::new(spec(buf_bytes), spec(buf_bytes), spec(buf_bytes));
        for d in fold_demands(&dims, array, &map) {
            dram.fold_runs(d.fold.duration, &d.a, &d.b, &d.o_spill, &d.o_writes);
        }
        let summary = dram.finish();
        let report = analyze(&dims, array);

        // Compulsory lower bound: every unique element is fetched at least
        // once (GEMM has no aliasing).
        prop_assert!(summary.reads_a >= map_a_unique_touched(&dims, shape));
        prop_assert!(summary.reads_b >= shape.k * shape.n);
        // Upper bound: interface traffic <= SRAM traffic.
        prop_assert!(summary.reads_a <= report.sram.a_reads);
        prop_assert!(summary.reads_b <= report.sram.b_reads);
        prop_assert!(summary.reads_o <= report.sram.o_reads);
        prop_assert_eq!(summary.writes_o, report.sram.o_writes);
        // Bandwidth requirement is positive whenever there is traffic.
        if summary.total_bytes() > 0 {
            prop_assert!(summary.required_bandwidth() > 0.0);
        }
    }

    /// An unbounded buffer fetches exactly the unique working set, for both
    /// GEMM and conv addressing (conv reuse collapses the A traffic).
    #[test]
    fn unbounded_buffer_fetches_unique_set(
        ih in 4u64..20,
        fdim in 1u64..4,
        ch in 1u64..4,
        nf in 1u64..6,
        df_idx in 0usize..3,
    ) {
        prop_assume!(fdim <= ih);
        let layer = ConvLayerBuilder::new("c")
            .ifmap(ih, ih)
            .filter(fdim, fdim)
            .channels(ch)
            .num_filters(nf)
            .stride(1)
            .build()
            .unwrap();
        let df = Dataflow::ALL[df_idx];
        let dims = layer.shape().project(df);
        let array = ArrayShape::new(4, 4);
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());

        let huge = spec(1 << 30);
        let mut dram = DramModel::new(huge, huge, huge);
        for d in fold_demands(&dims, array, &map) {
            dram.fold_runs(d.fold.duration, &d.a, &d.b, &d.o_spill, &d.o_writes);
        }
        let summary = dram.finish();
        // With infinite capacity each unique address misses exactly once.
        prop_assert!(summary.reads_a <= layer.ifmap_elems());
        prop_assert_eq!(summary.reads_b, layer.filter_elems());
        prop_assert_eq!(summary.reads_o, 0);
    }

    /// Shrinking a buffer never reduces DRAM traffic (miss monotonicity).
    #[test]
    fn smaller_buffers_never_fetch_less(
        m in 8u64..60,
        k in 4u64..30,
        n in 8u64..60,
    ) {
        let shape = GemmShape::new(m, k, n);
        let dims = shape.project(Dataflow::OutputStationary);
        let array = ArrayShape::new(8, 8);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());

        let mut totals = Vec::new();
        for bytes in [1u64 << 20, 4096, 256] {
            let mut dram = DramModel::new(spec(bytes), spec(bytes), spec(bytes));
            for d in fold_demands(&dims, array, &map) {
                dram.fold_runs(d.fold.duration, &d.a, &d.b, &d.o_spill, &d.o_writes);
            }
            totals.push(dram.finish().read_bytes());
        }
        prop_assert!(totals[0] <= totals[1]);
        prop_assert!(totals[1] <= totals[2]);
    }
}

/// For OS on a GEMM, every A element the workload touches is m*k (dense).
fn map_a_unique_touched(_dims: &scalesim_topology::MappedDims, shape: GemmShape) -> u64 {
    shape.m * shape.k
}

/// Conv reuse: stride-1 windows make DRAM ifmap traffic collapse to the
/// ifmap size while SRAM traffic stays at windows x elements.
#[test]
fn conv_reuse_collapses_dram_reads() {
    let layer = ConvLayerBuilder::new("c")
        .ifmap(18, 18)
        .filter(3, 3)
        .channels(4)
        .num_filters(8)
        .stride(1)
        .build()
        .unwrap();
    let dims = layer.shape().project(Dataflow::OutputStationary);
    let array = ArrayShape::new(16, 8);
    let map = ConvAddressMap::new(&layer, RegionOffsets::default());
    let huge = spec(1 << 30);
    let mut dram = DramModel::new(huge, huge, huge);
    for d in fold_demands(&dims, array, &map) {
        dram.fold_runs(d.fold.duration, &d.a, &d.b, &d.o_spill, &d.o_writes);
    }
    let summary = dram.finish();
    let report = analyze(&dims, array);
    assert_eq!(summary.reads_a, layer.ifmap_elems());
    // SRAM sees the full 9x window amplification; DRAM does not.
    assert!(report.sram.a_reads > 5 * summary.reads_a);
}
