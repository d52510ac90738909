//! Equivalence properties for the run-compressed hot path: the demand
//! streams of [`fold_demand_runs`] (canonical B/O labels, sealed A streams
//! answered from fixed points) driven through the DRAM model must be
//! indistinguishable — fold for fold, count for count, stall for stall —
//! from the reference enumeration [`fold_demands`] (real addresses pushed
//! one at a time, never sealed, so every epoch is walked; "legacy" below)
//! on any workload, dataflow and buffer sizing. The buffer under both is
//! `RunBuffer`, itself compared against the element-granular
//! `DoubleBuffer` of the oracle at the end of this file and in
//! `kernel_equiv_props.rs`. On spilling WS/IS layers the run path is also
//! held, fold for fold, to `oracle::fold_traffic`, which shares no code
//! with `RunBuffer`.
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

use scalesim_integration::conv_case;
use scalesim_integration::oracle::{fold_traffic, DoubleBuffer};
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

/// The run path as the simulator drives it — sealed A streams, labels,
/// deferred installs — against `oracle::fold_traffic` on the same layer:
/// per-fold IFMAP, filter and spill misses and output writes. Returns
/// whether the IFMAP buffer ended the layer in its paged form.
fn check_against_oracle(
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
    capacities: [u64; 3],
) -> Result<bool, TestCaseError> {
    let [a, b, o] = capacities.map(spec);
    let mut dram = DramModel::new(a, b, o);
    let oracle = fold_traffic(dims, array, map, capacities.map(|c| c as usize));
    let mut folds = 0;
    for demand in fold_demand_runs(dims, array, map) {
        let t = dram.fold_runs(
            demand.fold.duration,
            &demand.a,
            &demand.b,
            &demand.o_spill,
            &demand.o_writes,
        );
        prop_assert_eq!(
            Some(&(t.a_misses, t.b_misses, t.o_spill_misses, t.write_bytes)),
            oracle.get(folds),
            "fold {} of {:?} with buffers {:?}",
            folds,
            dims,
            capacities
        );
        folds += 1;
    }
    prop_assert_eq!(folds, oracle.len());
    Ok(dram.operand_buffers()[0].is_paged())
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

/// Shows the A stream of every fold of `dims` to one IFMAP buffer of
/// `capacity` elements, as `DramModel::fold_runs` does, and returns how
/// many of those epochs it walked and how many elements missed.
fn a_buffer_walks(
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
    capacity: u64,
) -> (u64, u64) {
    let mut a_buf = RunBuffer::new(capacity);
    let misses = fold_demand_runs(dims, array, map)
        .map(|demand| a_buf.epoch(&demand.a).misses)
        .sum();
    (a_buf.walked_epochs(), misses)
}

/// How often the IFMAP buffer of a layer is walked, exactly. The seeded
/// GEMM of the spill workload, `4000 x 84 x 1024` under WS on 32x32 with
/// 64 KB of IFMAP SRAM: a fold row's A stream is 4000 runs of 32 (of 20
/// in the last), more than the buffer, and each of the 3 fold rows shows
/// it to the buffer 32 times. GEMM fold rows share no address, so the first showing of each
/// finds its first bufferful not resident and takes rule 4, which arms
/// rule 3 for the other 31: no walk. 96 walks before the streams were
/// sealed, 3 before rule 4.
#[test]
fn thrashing_ws_gemm_never_walks_its_a_buffer() {
    let shape = GemmShape::new(4000, 84, 1024);
    let dims = shape.project(Dataflow::WeightStationary);
    let array = ArrayShape::square(32);
    let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    let capacity = OperandBufferSpec::from_kb(64, 1).capacity_elems() as u64;
    assert_eq!(FoldPlan::new(&dims, array).fold_count(), 96);
    assert!(fold_demand_runs(&dims, array, &map).all(|d| d.a.element_count() > capacity));
    // Every showing misses everything: 32 fold columns x the whole of A.
    assert_eq!(
        a_buffer_walks(&dims, array, &map, capacity),
        (0, 32 * 4000 * 84)
    );
}

/// A WS convolution whose fold rows overlap: a fold row reads the IFMAP
/// window rows the row before read, one filter row further down. With a
/// buffer of 32 elements the overlap has left the FIFO before the next
/// row's first bufferful, and rule 4 takes every first showing; at 65, 4
/// of the 5 first bufferfuls meet an element the row before left
/// resident, and those showings are walked — though every access of
/// every showing still misses, each to be evicted before it is reached.
#[test]
fn overlapping_ws_conv_walks_where_a_first_bufferful_is_resident() {
    let conv = ConvLayerBuilder::new("t")
        .ifmap(9, 9)
        .filter(3, 3)
        .channels(2)
        .num_filters(14)
        .stride(1)
        .build()
        .unwrap();
    let map = ConvAddressMap::new(&conv, RegionOffsets::default());
    let dims = conv.shape().project(Dataflow::WeightStationary);
    let array = ArrayShape::new(4, 4);
    let plan = FoldPlan::new(&dims, array);
    assert_eq!((plan.fold_rows(), plan.fold_cols()), (5, 4));
    let rows: Vec<AddrRuns> = fold_demand_runs(&dims, array, &map)
        .step_by(4)
        .map(|d| d.a)
        .collect();
    for pair in rows.windows(2) {
        let mut before = IntervalSet::new();
        for run in pair[0].iter_runs() {
            before.insert(run.start, run.end());
        }
        assert!(pair[1].iter_elements().any(|addr| before.contains(addr)));
    }
    let everything: u64 = rows.iter().map(|a| 4 * a.element_count()).sum();
    assert_eq!(everything, 2280);
    for (capacity, walks) in [(32, 0), (65, 4)] {
        assert_eq!(
            a_buffer_walks(&dims, array, &map, capacity),
            (walks, everything),
            "capacity {capacity}"
        );
    }
}

/// A WS GEMM whose fold row's A stream, 800 elements, fits the 1000 of
/// the buffer but not beside the row before's: the first showing of every
/// fold row after the first misses everything and evicts 600 elements of
/// the row before. It hit nothing and was at most a bufferful, so the
/// stream is resident and rule 5 answers the other 8 showings all-hit:
/// one walk per fold row, where without rule 5 the second showing was
/// walked too (11 walks).
#[test]
fn evicting_ws_gemm_walks_its_a_buffer_once_per_fold_row() {
    let shape = GemmShape::new(100, 48, 70);
    let dims = shape.project(Dataflow::WeightStationary);
    let array = ArrayShape::square(8);
    let plan = FoldPlan::new(&dims, array);
    assert_eq!((plan.fold_rows(), plan.fold_cols()), (6, 9));
    let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    assert!(fold_demand_runs(&dims, array, &map).all(|d| d.a.element_count() == 800));
    assert_eq!(a_buffer_walks(&dims, array, &map, 1000), (6, 100 * 48));
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
    assert_eq!(a_buffer_walks(&dims, array, &map, 100 * 48), (13, 100 * 48));
}

/// A streams generated by the dedup walk and A streams shown, summed over
/// the distinct layers of ResNet-50, AlexNet and the spill workload's
/// `4000 x 84 x 1024` GEMM on a 32x32 array — the layers of
/// `spill_ws_is_cold` — under `dataflow`. A layer is counted once however
/// often a network repeats its geometry, as the layer cache runs it once.
fn a_streams_of_the_spill_layers(dataflow: Dataflow) -> (u64, u64, usize) {
    use scalesim_topology::{networks, Layer};
    let layers: Vec<Layer> = networks::resnet50()
        .iter()
        .chain(networks::alexnet().iter())
        .cloned()
        .chain([Layer::gemm("seeded", 4000, 84, 1024)])
        .collect();
    let mut seen = std::collections::HashSet::new();
    let (mut generated, mut shown) = (0, 0);
    let array = ArrayShape::square(32);
    for layer in &layers {
        let map: Box<dyn scalesim_memory::AddressMap> = match layer {
            Layer::Conv(c) => {
                let geometry = (
                    (c.ifmap_h(), c.ifmap_w(), c.filter_h(), c.filter_w()),
                    (c.channels(), c.num_filters(), c.stride_h(), c.stride_w()),
                );
                if !seen.insert(format!("{geometry:?}")) {
                    continue;
                }
                Box::new(ConvAddressMap::new(c, RegionOffsets::ZERO))
            }
            Layer::Gemm { shape, .. } => {
                if !seen.insert(format!("{shape:?}")) {
                    continue;
                }
                Box::new(GemmAddressMap::from_shape(*shape, RegionOffsets::ZERO))
            }
        };
        let dims = layer.shape().project(dataflow);
        let plan = FoldPlan::new(&dims, array);
        shown += match dataflow {
            Dataflow::InputStationary => plan.fold_count(),
            _ => plan.fold_rows(),
        };
        let mut demands = fold_demand_runs(&dims, array, &*map);
        let mut demand = scalesim_systolic::FoldDemandRuns::default();
        while demands.next_into(&mut demand) {}
        generated += demands.a_streams_generated();
    }
    (generated, shown, seen.len())
}

/// The counts the translation classes of the A stream rest on: on the
/// spill workload's 30 distinct layers, only 46 of the 1,525 WS fold-row
/// streams and 523 of the 13,860 IS fold streams are generated by the
/// dedup walk; the rest are a class stream shifted by one constant. Keyed
/// by offset alone (`a_row_phase` beside a `k`-offset phase) the classes
/// number 1,092 and 3,804; these are the content-class counts.
#[test]
fn a_streams_are_generated_once_per_translation_class() {
    assert_eq!(
        a_streams_of_the_spill_layers(Dataflow::WeightStationary),
        (46, 1525, 30)
    );
    assert_eq!(
        a_streams_of_the_spill_layers(Dataflow::InputStationary),
        (523, 13860, 30)
    );
}

/// Whether each of the IFMAP, filter and OFMAP buffers is in the paged
/// form after each fold of one tile, as `Simulator::run_layer` runs its
/// fold loop on the buffers of `config` shared among `partitions`.
fn paged_after_each_fold(
    dims: &scalesim_topology::MappedDims,
    config: &scalesim::SimConfig,
    partitions: u64,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
) -> impl Iterator<Item = [bool; 3]> {
    let mut dram = DramModel::new(
        config.ifmap_buffer(partitions),
        config.filter_buffer(partitions),
        config.ofmap_buffer(partitions),
    );
    let demands: Vec<_> = fold_demand_runs(dims, config.array, map).collect();
    demands.into_iter().map(move |d| {
        dram.fold_runs(d.fold.duration, &d.a, &d.b, &d.o_spill, &d.o_writes);
        dram.operand_buffers().map(RunBuffer::is_paged)
    })
}

/// Every distinct tile of every distinct layer of every point of a plan
/// file: the point and layer, and for each fold which buffers are paged.
/// Tiles are told apart as `Simulator::run_layer` tells them apart.
fn plan_tiles_paged(plan: &str) -> Vec<(String, Vec<[bool; 3]>)> {
    use scalesim_topology::Layer;
    let plan = scalesim::SweepPlan::parse(plan).unwrap();
    let mut seen = std::collections::HashSet::new();
    let mut tiles = Vec::new();
    for point in plan.expand().unwrap() {
        let config = point.config(&plan.base);
        let workload = plan.workloads.iter().find(|w| w.label == point.workload);
        for layer in workload.unwrap().topology.iter() {
            let (map, geometry): (Box<dyn scalesim_memory::AddressMap>, _) = match layer {
                Layer::Conv(c) => (
                    Box::new(ConvAddressMap::new(c, RegionOffsets::ZERO)),
                    format!(
                        "{:?}",
                        (
                            (c.ifmap_h(), c.ifmap_w(), c.filter_h(), c.filter_w()),
                            (c.channels(), c.num_filters(), c.stride_h(), c.stride_w())
                        )
                    ),
                ),
                Layer::Gemm { shape, .. } => (
                    Box::new(GemmAddressMap::from_shape(*shape, RegionOffsets::ZERO)),
                    format!("{shape:?}"),
                ),
            };
            let shape = layer.shape();
            let (rows, cols) = (point.grid.rows(), point.grid.cols());
            let (chunk_m, chunk_n) = (shape.m.div_ceil(rows), shape.n.div_ceil(cols));
            for m_off in (0..shape.m).step_by(chunk_m as usize) {
                for n_off in (0..shape.n).step_by(chunk_n as usize) {
                    let m_len = chunk_m.min(shape.m - m_off);
                    let n_len = chunk_n.min(shape.n - n_off);
                    let phase = map.a_phase(m_off, m_len, 0, shape.k);
                    let key = format!(
                        "{config:?} {} {geometry} {m_len} {n_len} {phase:?}",
                        point.grid
                    );
                    if !seen.insert(key) {
                        continue;
                    }
                    let tile = SubGemmMap::new(&*map, m_off, n_off);
                    let dims = GemmShape::new(m_len, shape.k, n_len).project(config.dataflow);
                    let paged = paged_after_each_fold(&dims, &config, point.partitions(), &tile);
                    let name = format!(
                        "{} {} {config:?} {}",
                        point.workload,
                        point.grid,
                        layer.name()
                    );
                    tiles.push((name, paged.collect()));
                }
            }
        }
    }
    tiles
}

/// Where the paged form is paid for, and where it is not — the property
/// the speed of the spill workload rests on, and the reason the other
/// workloads do not move:
///
/// - ResNet-50's 56×56×64 3×3 convolution (`CB2a_2`) under IS on a 32×32
///   array with 64 KB of IFMAP SRAM: every fold reads a 32-channel half
///   of each window position's 64 channels, a span each, and the buffer
///   promotes within its first fold row;
/// - TF0 under OS at 512 KB, every point of the Fig. 9 plan: one
///   contiguous A run per fold row, never promoted;
/// - `examples/spill_ws_is.plan`: no filter or OFMAP buffer promotes —
///   their label blocks stay a few spans — while IFMAP buffers do.
#[test]
fn the_paged_form_is_taken_by_fragmented_ifmap_buffers_only() {
    let layer = scalesim_topology::networks::resnet50()
        .iter()
        .find(|l| l.name() == "CB2a_2")
        .cloned()
        .unwrap();
    let scalesim_topology::Layer::Conv(conv) = &layer else {
        panic!("CB2a_2 is a convolution");
    };
    assert_eq!(
        (conv.ifmap_h(), conv.channels(), conv.filter_h()),
        (58, 64, 3)
    );
    let config = scalesim::SimConfig::builder()
        .array(ArrayShape::square(32))
        .dataflow(Dataflow::InputStationary)
        .sram_kb(64, 64, 32)
        .build();
    let dims = layer.shape().project(Dataflow::InputStationary);
    let fold_cols = FoldPlan::new(&dims, config.array).fold_cols() as usize;
    let map = ConvAddressMap::new(conv, RegionOffsets::ZERO);
    let first_paged = paged_after_each_fold(&dims, &config, 1, &map)
        .take(fold_cols)
        .position(|[a, _, _]| a);
    assert!(first_paged.is_some(), "not paged within {fold_cols} folds");

    let fig9 = include_str!("../../examples/fig9_tf0.plan");
    for (tile, folds) in plan_tiles_paged(fig9) {
        assert!(folds.iter().all(|&paged| paged == [false; 3]), "{tile}");
    }

    let spill = include_str!("../../examples/spill_ws_is.plan");
    let tiles = plan_tiles_paged(spill);
    for (tile, folds) in &tiles {
        assert!(folds.iter().all(|&[_, b, o]| !b && !o), "{tile}");
    }
    assert!(tiles
        .iter()
        .any(|(_, folds)| folds.iter().any(|&[a, _, _]| a)));
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
    /// dataflows, rectangular ifmaps, filters and strides, 1×1, FC and
    /// `W_i = filter_w` layers: run path == element path.
    #[test]
    fn conv_run_path_matches_element_path(
        shape in (0u8..4, (4u64..12, 4u64..12), (1u64..4, 1u64..4), (1u64..3, 1u64..3)),
        channels in 1u64..5,
        filters in 1u64..8,
        a_buf in 8u64..2048,
        b_buf in 8u64..2048,
        o_buf in 8u64..2048,
        df_idx in 0usize..3,
    ) {
        let (kind, ifmap, filter, strides) = shape;
        let layer = conv_case(kind, ifmap, filter, strides, channels, filters);
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

    /// The stream contract for convolutions, shaped as in
    /// `conv_run_path_matches_element_path`.
    #[test]
    fn conv_streams_are_faithful(
        shape in (0u8..4, (4u64..10, 4u64..10), (1u64..4, 1u64..4), (1u64..3, 1u64..3)),
        channels in 1u64..4,
        filters in 1u64..6,
        df_idx in 0usize..3,
    ) {
        let (kind, ifmap, filter, strides) = shape;
        let layer = conv_case(kind, ifmap, filter, strides, channels, filters);
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
        strides in (1u64..3, 1u64..3),
        bufs in (8u64..1024, 8u64..1024, 8u64..1024),
        df_idx in 0usize..3,
    ) {
        // 12x10 ifmap, 3x2x2 filters: 25 to 90 output pixels, 12 filters.
        let layer = conv_case(0, (12, 10), (3, 2), strides, 2, 12);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Spilling layers — WS and IS, GEMM and convolution, an OFMAP buffer
    /// of a few dozen elements — through `DramModel::fold_runs` on the
    /// sealed streams of `fold_demand_runs`, fold for fold against the
    /// element oracle, with the IFMAP buffer one element short of the
    /// smallest A stream of a fold row (IS: of a fold), exactly it, and
    /// one more: every stream thrashes (rule 4, then rule 3), the smallest
    /// fits exactly (rule 4 then rule 5), or it has room. And one IS
    /// convolution whose IFMAP buffer fragments into the paged form.
    #[test]
    fn spilling_fold_runs_match_the_oracle_fold_for_fold(
        gemm in (8u64..40, 4u64..24, 4u64..24),
        conv in (0u8..4, (5u64..10, 5u64..10), (1u64..4, 1u64..4), (1u64..3, 1u64..3)),
        sizes in (1u64..4, 1u64..8),
        b_buf in 8u64..512,
        o_buf in 4u64..48,
    ) {
        let (kind, ifmap, filter, strides) = conv;
        let (channels, filters) = sizes;
        let array = ArrayShape::new(4, 4);
        let gemm = GemmShape::new(gemm.0, gemm.1, gemm.2);
        let gemm_map = GemmAddressMap::from_shape(gemm, RegionOffsets::default());
        let conv = conv_case(kind, ifmap, filter, strides, channels, filters);
        let conv_map = ConvAddressMap::new(&conv, RegionOffsets::default());
        for df in [Dataflow::WeightStationary, Dataflow::InputStationary] {
            for (dims, map) in [
                (gemm.project(df), &gemm_map as &dyn scalesim_memory::AddressMap),
                (conv.shape().project(df), &conv_map),
            ] {
                let smallest = fold_demand_runs(&dims, array, map)
                    .map(|d| d.a.element_count())
                    .min()
                    .unwrap();
                for a_buf in [smallest - 1, smallest, smallest + 1] {
                    check_against_oracle(&dims, array, map, [a_buf, b_buf, o_buf])?;
                }
            }
        }
        // An IS 3x3 convolution whose IFMAP working set fragments: each
        // fold reads a 4-channel slice of 8 channels per window position,
        // one span each, and more than 64 of them stay resident, so the
        // IFMAP buffer turns paged partway through the layer.
        let conv = ConvLayerBuilder::new("is")
            .ifmap(12, 12)
            .filter(3, 3)
            .channels(8)
            .num_filters(6)
            .stride(1)
            .build()
            .unwrap();
        let conv_map = ConvAddressMap::new(&conv, RegionOffsets::default());
        let dims = conv.shape().project(Dataflow::InputStationary);
        for a_buf in [300, 600] {
            let paged = check_against_oracle(&dims, array, &conv_map, [a_buf, b_buf, o_buf])?;
            prop_assert!(paged, "IFMAP buffer of {} never promoted", a_buf);
        }
    }

    /// Sequences of *different* sealed streams, each shown one to three
    /// times, through a RunBuffer and the element FIFO, compared after
    /// every epoch: stats, resident count and membership, at capacities
    /// `S − 1`, `S`, `S + 1` and `2S` of the first stream's `S`. Every
    /// stream after the first is fresh addresses with something of the
    /// stream before placed in them (`place`):
    ///
    /// - 0: nothing, a stream disjoint from everything resident;
    /// - 1: a run of it (the first, the last or one between) at the very
    ///   start, an overlap inside the first bufferful;
    /// - 2: such a run at the end, an overlap beyond the first bufferful
    ///   once the fresh part is a bufferful;
    /// - 3 to 5: its last element — the newest resident one — at position
    ///   `S − 2`, `S − 1` or `S`, which is `capacity − 1` for one of the
    ///   first three capacities: the last element of the first bufferful,
    ///   and the one the FIFO still holds after `capacity − 1` misses.
    #[test]
    fn sequences_of_sealed_streams_match_double_buffer(
        first in prop::collection::vec((0u64..200, 1u64..16), 1..10),
        steps in prop::collection::vec(
            (0usize..6, prop::collection::vec((0u64..200, 1u64..16), 1..10), 0usize..4, 1usize..=3),
            1..6,
        ),
    ) {
        // The fresh addresses of stream `i`, all in [300·i, 300·i + 215).
        let fresh = |i: u64, spans: &[(u64, u64)]| {
            let mut seen = IntervalSet::new();
            let mut stream = AddrRuns::new();
            for &(start, len) in spans {
                let start = 300 * i + start;
                seen.insert_with_gaps(start, start + len, |s, e| stream.push(s, e - s));
            }
            stream.iter_elements().collect::<Vec<u64>>()
        };
        let first = fresh(0, &first);
        let s = first.len() as u64;
        let mut streams = vec![(first, 1)];
        for (i, (place, spans, which, repeats)) in steps.iter().enumerate() {
            let before = streams[i].0.iter().copied().collect::<AddrRuns>();
            let run = before.run((before.run_count() - 1) * which / 3);
            let mut stream = fresh(i as u64 + 1, spans);
            let (piece, at) = match place {
                0 => (Vec::new(), 0),
                1 => ((run.start..run.end()).collect(), 0),
                2 => ((run.start..run.end()).collect(), stream.len()),
                _ => (
                    vec![*streams[i].0.last().unwrap()],
                    ((s + *place as u64).saturating_sub(5) as usize).min(stream.len()),
                ),
            };
            stream.splice(at..at, piece);
            streams.push((stream, *repeats));
        }
        let streams: Vec<(AddrRuns, usize)> = streams
            .into_iter()
            .map(|(elems, repeats)| {
                let mut stream: AddrRuns = elems.into_iter().collect();
                stream.seal_distinct();
                (stream, repeats)
            })
            .collect();
        let space = 300 * streams.len() as u64;
        for capacity in [s - 1, s, s + 1, 2 * s] {
            let mut runs_buf = RunBuffer::new(capacity);
            let mut elems_buf = DoubleBuffer::new(capacity as usize);
            for (i, (stream, repeats)) in streams.iter().enumerate() {
                for repeat in 0..*repeats {
                    let rs = runs_buf.epoch(stream);
                    let es = elems_buf.epoch(stream.iter_elements());
                    prop_assert_eq!(rs, es, "capacity {}, stream {}, repeat {}", capacity, i, repeat);
                    prop_assert_eq!(runs_buf.resident_count(), elems_buf.resident_count() as u64);
                    for addr in 0..space {
                        prop_assert_eq!(runs_buf.contains(addr), elems_buf.contains(addr));
                    }
                }
            }
        }
    }
}
