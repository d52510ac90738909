//! Equivalence properties for the run-compressed hot path: the demand
//! streams of [`fold_demand_runs`] (canonical B/O labels, sealed A streams
//! answered from fixed points) driven through the DRAM model must be
//! indistinguishable — fold for fold, count for count, stall for stall —
//! from the reference enumeration [`fold_demands`] (real addresses pushed
//! one at a time, never sealed, so every epoch is walked; "legacy" below)
//! on any workload, dataflow and buffer sizing. The buffer under both is
//! `RunBuffer`, itself compared against the element-granular
//! `DoubleBuffer` of the oracle at the end of this file and in
//! `kernel_equiv_props.rs`.
//!
//! The contract being checked (see `scalesim_systolic::demand`): the A
//! stream carries *real* addresses in first-use order and must match the
//! legacy stream element for element; the B and O streams use canonical
//! labels, so they must be a per-layer bijective relabeling of the legacy
//! addresses — which is exactly the property that makes every FIFO
//! hit/miss/eviction decision, and therefore every traffic figure,
//! identical. (`SramCounts` come from the compute-side `analyze`, which
//! the demand representation never touches, so they are covered by the
//! layer-cache equality test on whole `LayerReport`s in `scalesim`.)

use proptest::prelude::*;
use std::collections::HashMap;

use scalesim_integration::oracle::DoubleBuffer;
use scalesim_memory::{
    AddrRuns, ConvAddressMap, DramModel, GemmAddressMap, IntervalSet, OperandBufferSpec,
    RegionOffsets, RunBuffer, StallModel, SubGemmMap,
};
use scalesim_systolic::{fold_demand_runs, fold_demands, ArrayShape, Dataflow, FoldPlan};
use scalesim_topology::{ConvLayerBuilder, GemmShape};

fn spec(bytes: u64) -> OperandBufferSpec {
    OperandBufferSpec {
        size_bytes: bytes,
        word_bytes: 1,
    }
}

/// Runs both demand paths over the same workload and checks every
/// observable: per-fold traffic, the final DRAM summary, and the stall
/// model's verdict under a starved interface.
fn check_paths_agree(
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
    bufs: (u64, u64, u64),
) -> Result<(), TestCaseError> {
    let mut legacy_dram = DramModel::new(spec(bufs.0), spec(bufs.1), spec(bufs.2));
    let mut runs_dram = DramModel::new(spec(bufs.0), spec(bufs.1), spec(bufs.2));
    let mut legacy_stall = StallModel::new(2.0);
    let mut runs_stall = StallModel::new(2.0);

    let legacy: Vec<_> = fold_demands(dims, array, map).collect();
    let runs: Vec<_> = fold_demand_runs(dims, array, map).collect();
    prop_assert_eq!(legacy.len(), runs.len(), "fold counts must agree");

    for (ld, rd) in legacy.into_iter().zip(runs) {
        prop_assert_eq!(ld.fold, rd.fold);
        let lt = legacy_dram.fold_runs(ld.fold.duration, &ld.a, &ld.b, &ld.o_spill, &ld.o_writes);
        let rt = runs_dram.fold_runs(rd.fold.duration, &rd.a, &rd.b, &rd.o_spill, &rd.o_writes);
        prop_assert_eq!(lt, rt, "per-fold traffic must agree");
        legacy_stall.fold(lt.duration, lt.read_bytes, lt.write_bytes);
        runs_stall.fold(rt.duration, rt.read_bytes, rt.write_bytes);
    }
    prop_assert_eq!(legacy_dram.finish(), runs_dram.finish());
    prop_assert_eq!(legacy_stall.finish(), runs_stall.finish());
    Ok(())
}

/// A stream: exact element equality. B/O streams: one layer-wide
/// bijection between legacy addresses and canonical labels.
fn check_streams_are_faithful(
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
) -> Result<(), TestCaseError> {
    let legacy: Vec<_> = fold_demands(dims, array, map).collect();
    let runs: Vec<_> = fold_demand_runs(dims, array, map).collect();
    prop_assert_eq!(legacy.len(), runs.len());

    // One bijection per operand buffer: B labels feed the filter FIFO,
    // while o_spill and o_writes share both the output FIFO and one label
    // space. (B and O label spaces are independent — a numeric collision
    // between them is harmless because the buffers are separate.)
    #[derive(Default)]
    struct Bijection {
        fwd: HashMap<u64, u64>,
        rev: HashMap<u64, u64>,
    }
    impl Bijection {
        fn check(&mut self, legacy: &AddrRuns, runs: &AddrRuns) -> Result<(), TestCaseError> {
            prop_assert_eq!(legacy.element_count(), runs.element_count());
            for (addr, label) in legacy.iter_elements().zip(runs.iter_elements()) {
                let seen = *self.fwd.entry(addr).or_insert(label);
                prop_assert_eq!(seen, label, "one address, two labels");
                let seen = *self.rev.entry(label).or_insert(addr);
                prop_assert_eq!(seen, addr, "one label, two addresses");
            }
            Ok(())
        }
    }
    let mut b_map = Bijection::default();
    let mut o_map = Bijection::default();

    for (ld, rd) in legacy.iter().zip(&runs) {
        // A: real addresses, first-use order, element for element.
        prop_assert_eq!(&ld.a, &rd.a, "A must carry real addresses");
        prop_assert_eq!(ld.a.seal(), 0, "the reference is walked, never answered");
        b_map.check(&ld.b, &rd.b)?;
        o_map.check(&ld.o_spill, &rd.o_spill)?;
        o_map.check(&ld.o_writes, &rd.o_writes)?;
    }
    Ok(())
}

/// The regime the fixed-point A epochs live in and the random cases below
/// rarely reach: OS and WS (one A stream per fold row), at least three
/// folds per fold row, and an IFMAP buffer smaller than that stream, so
/// the repeats thrash (rule 3) — next to sizes where they fit (rule 2)
/// and hit (rule 1). The `fold_demands` side yields unsealed streams and
/// is walked every fold: it is the oracle.
#[test]
fn fixed_point_epochs_match_the_element_path_on_thrashing_fold_rows() {
    let array = ArrayShape::new(4, 4);
    let gemm = GemmShape::new(40, 10, 18);
    let gemm_map = GemmAddressMap::from_shape(gemm, RegionOffsets::default());
    let conv = ConvLayerBuilder::new("t")
        .ifmap(9, 9)
        .filter(3, 3)
        .channels(2)
        .num_filters(14)
        .stride(1)
        .build()
        .unwrap();
    let conv_map = ConvAddressMap::new(&conv, RegionOffsets::default());
    for df in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
        for (dims, map) in [
            (
                gemm.project(df),
                &gemm_map as &dyn scalesim_memory::AddressMap,
            ),
            (conv.shape().project(df), &conv_map),
        ] {
            assert!(FoldPlan::new(&dims, array).fold_cols() >= 3, "{df:?}");
            let row_stream = fold_demand_runs(&dims, array, map)
                .map(|d| d.a.element_count())
                .min()
                .unwrap();
            assert!(row_stream > 16, "{df:?}: {row_stream}");
            // Smaller than any fold row's stream, then exactly the smallest
            // one, then everything fits.
            for a_buf in [7, 16, row_stream - 1, row_stream, 1 << 20] {
                check_paths_agree(&dims, array, map, (a_buf, 64, 24)).unwrap();
            }
        }
    }
}

/// How often the IFMAP buffer of a layer is walked, exactly. The seeded
/// GEMM of the spill workload, `4000 x 84 x 1024` under WS on 32x32 with
/// 64 KB of IFMAP SRAM: a fold row's A stream is 4000 runs of 32, twice
/// the buffer, and each of the 3 fold rows shows it to the buffer 32
/// times. The first showing is walked and arms rule 3; 96 walks before
/// the streams were sealed.
#[test]
fn thrashing_ws_gemm_walks_its_a_buffer_once_per_fold_row() {
    let shape = GemmShape::new(4000, 84, 1024);
    let dims = shape.project(Dataflow::WeightStationary);
    let array = ArrayShape::square(32);
    let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    let mut a_buf = RunBuffer::new(OperandBufferSpec::from_kb(64, 1).capacity_elems() as u64);
    let (mut folds, mut misses) = (0, 0);
    for demand in fold_demand_runs(&dims, array, &map) {
        assert!(demand.a.element_count() > a_buf.capacity());
        misses += a_buf.epoch(&demand.a).misses;
        folds += 1;
    }
    assert_eq!(folds, 96);
    assert_eq!(a_buf.walked_epochs(), 3);
    // Every showing misses everything: 32 fold columns x the whole of A.
    assert_eq!(misses, 32 * 4000 * 84);
}

/// An OS GEMM whose whole A operand fits the buffer: the first fold of a
/// fold row misses without evicting (rule 2), the rest of the row is
/// answered all-hit.
#[test]
fn fitting_os_gemm_walks_its_a_buffer_once_per_fold_row() {
    let shape = GemmShape::new(100, 48, 70);
    let dims = shape.project(Dataflow::OutputStationary);
    let array = ArrayShape::square(8);
    let plan = FoldPlan::new(&dims, array);
    assert_eq!((plan.fold_rows(), plan.fold_cols()), (13, 9));
    let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    let mut a_buf = RunBuffer::new(100 * 48);
    let mut misses = 0;
    for demand in fold_demand_runs(&dims, array, &map) {
        misses += a_buf.epoch(&demand.a).misses;
    }
    assert_eq!(a_buf.walked_epochs(), 13);
    assert_eq!(misses, 100 * 48);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GEMM, all dataflows: run path == element path on every observable.
    #[test]
    fn gemm_run_path_matches_element_path(
        m in 1u64..60,
        k in 1u64..32,
        n in 1u64..60,
        a_buf in 8u64..4096,
        b_buf in 8u64..4096,
        o_buf in 8u64..4096,
        df_idx in 0usize..3,
    ) {
        let shape = GemmShape::new(m, k, n);
        let dims = shape.project(Dataflow::ALL[df_idx]);
        let array = ArrayShape::new(8, 8);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        check_paths_agree(&dims, array, &map, (a_buf, b_buf, o_buf))?;
    }

    /// Convolution (window-overlap aliasing in the A stream), all
    /// dataflows and strides: run path == element path.
    #[test]
    fn conv_run_path_matches_element_path(
        ifmap in 4u64..12,
        filter in 1u64..4,
        channels in 1u64..5,
        filters in 1u64..8,
        stride in 1u64..3,
        a_buf in 8u64..2048,
        b_buf in 8u64..2048,
        o_buf in 8u64..2048,
        df_idx in 0usize..3,
    ) {
        prop_assume!(filter <= ifmap);
        let layer = ConvLayerBuilder::new("p")
            .ifmap(ifmap, ifmap)
            .filter(filter, filter)
            .channels(channels)
            .num_filters(filters)
            .stride(stride)
            .build()
            .unwrap();
        let dims = layer.shape().project(Dataflow::ALL[df_idx]);
        let array = ArrayShape::new(4, 4);
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        check_paths_agree(&dims, array, &map, (a_buf, b_buf, o_buf))?;
    }

    /// The stream contract itself: A is the legacy stream verbatim; B/O
    /// are bijective relabelings (GEMM).
    #[test]
    fn gemm_streams_are_faithful(
        m in 1u64..40,
        k in 1u64..24,
        n in 1u64..40,
        df_idx in 0usize..3,
    ) {
        let shape = GemmShape::new(m, k, n);
        let dims = shape.project(Dataflow::ALL[df_idx]);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        check_streams_are_faithful(&dims, ArrayShape::new(8, 8), &map)?;
    }

    /// The stream contract for convolutions.
    #[test]
    fn conv_streams_are_faithful(
        ifmap in 4u64..10,
        filter in 1u64..4,
        channels in 1u64..4,
        filters in 1u64..6,
        stride in 1u64..3,
        df_idx in 0usize..3,
    ) {
        prop_assume!(filter <= ifmap);
        let layer = ConvLayerBuilder::new("p")
            .ifmap(ifmap, ifmap)
            .filter(filter, filter)
            .channels(channels)
            .num_filters(filters)
            .stride(stride)
            .build()
            .unwrap();
        let dims = layer.shape().project(Dataflow::ALL[df_idx]);
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        check_streams_are_faithful(&dims, ArrayShape::new(4, 4), &map)?;
    }

    /// One tile of a partitioned convolution, as `run_partitions` builds it:
    /// the layer's map behind a `SubGemmMap` at a non-zero `(m_off, n_off)`,
    /// the tile's own `M x N` ragged against the array. Both contracts hold
    /// on the tile as they do on the layer.
    #[test]
    fn partition_tile_run_path_matches_element_path(
        m_off in 1u64..20,
        n_off in 1u64..5,
        m_len in 1u64..30,
        n_len in 1u64..8,
        stride in 1u64..3,
        bufs in (8u64..1024, 8u64..1024, 8u64..1024),
        df_idx in 0usize..3,
    ) {
        // 12x12 ifmap, 3x3x2 filters: 100 or 25 output pixels, 12 filters.
        let layer = ConvLayerBuilder::new("p")
            .ifmap(12, 12)
            .filter(3, 3)
            .channels(2)
            .num_filters(12)
            .stride(stride)
            .build()
            .unwrap();
        let shape = layer.shape();
        prop_assume!(m_off + m_len <= shape.m && n_off + n_len <= shape.n);
        // Not a multiple of the 4x4 array in either tile dimension.
        prop_assume!(m_len % 4 != 0 && n_len % 4 != 0);
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        let tile = SubGemmMap::new(&map, m_off, n_off);
        let dims = GemmShape::new(m_len, shape.k, n_len).project(Dataflow::ALL[df_idx]);
        let array = ArrayShape::new(4, 4);
        check_paths_agree(&dims, array, &tile, bufs)?;
        check_streams_are_faithful(&dims, array, &tile)?;
    }

    /// RunBuffer is the same FIFO double buffer as DoubleBuffer, for any
    /// epoch stream of runs and any capacity — including pathological
    /// capacities smaller than a single run.
    #[test]
    fn run_buffer_matches_double_buffer(
        epochs in prop::collection::vec(
            prop::collection::vec((0u64..400, 1u64..16), 1..12),
            1..10,
        ),
        capacity in 0u64..512,
    ) {
        let mut runs_buf = RunBuffer::new(capacity);
        let mut elems_buf = DoubleBuffer::new(capacity as usize);
        for epoch in &epochs {
            let mut demand = AddrRuns::new();
            let mut elems = Vec::new();
            for &(start, len) in epoch {
                demand.push(start, len);
                elems.extend(start..start + len);
            }
            let rs = runs_buf.epoch(&demand);
            let es = elems_buf.epoch(elems.iter().copied());
            prop_assert_eq!(rs, es, "epoch stats must agree");
            prop_assert_eq!(runs_buf.resident_count(), elems_buf.resident_count() as u64);
            for addr in (0..440).step_by(7) {
                prop_assert_eq!(runs_buf.contains(addr), elems_buf.contains(addr));
            }
        }
    }

    /// One sealed, duplicate-free stream shown to a RunBuffer up to five
    /// times from any pre-state is the element FIFO shown its elements as
    /// often — stats of every epoch and the working set after it — at the
    /// capacities on either side of every rule's boundary: no buffer, one
    /// element, half the stream, one short of it, exactly it (all-miss
    /// then all-hit: rule 3 must not fire), one more, twice, unbounded.
    #[test]
    fn sealed_repeats_match_double_buffer_at_every_rule_boundary(
        pre in prop::collection::vec((0u64..400, 1u64..16), 0..8),
        spans in prop::collection::vec((0u64..400, 1u64..16), 1..12),
        repeats in 1usize..=5,
    ) {
        // Dedup in first-use order, as the demand generator does.
        let mut seen = IntervalSet::new();
        let mut stream = AddrRuns::new();
        for &(start, len) in &spans {
            seen.insert_with_gaps(start, start + len, |s, e| stream.push(s, e - s));
        }
        stream.seal_distinct();
        let elems: Vec<u64> = stream.iter_elements().collect();
        let s = stream.element_count();
        let mut pre_runs = AddrRuns::new();
        for &(start, len) in &pre {
            pre_runs.push(start, len);
        }
        for capacity in [0, 1, s / 2, s - 1, s, s + 1, 2 * s, u64::MAX] {
            let mut runs_buf = RunBuffer::new(capacity);
            let mut elems_buf = DoubleBuffer::new(capacity as usize);
            runs_buf.epoch(&pre_runs);
            elems_buf.epoch(pre_runs.iter_elements());
            for repeat in 0..repeats {
                let rs = runs_buf.epoch(&stream);
                let es = elems_buf.epoch(elems.iter().copied());
                prop_assert_eq!(rs, es, "capacity {}, repeat {}", capacity, repeat);
                prop_assert_eq!(runs_buf.resident_count(), elems_buf.resident_count() as u64);
                for addr in 0..416 {
                    prop_assert_eq!(runs_buf.contains(addr), elems_buf.contains(addr));
                }
            }
        }
    }
}
