//! `Simulator::run_layer` against `oracle::run_layer`, field by field:
//! the shipped path (run-compressed demand, canonical labels, sealed and
//! class-shifted A streams, fixed-point epochs, paged resident sets, tile
//! classes, the per-fold stall model) against the obvious one (every tile,
//! every element, hash-set FIFOs, register-level cycles, a bus that moves
//! one element at a time). Every `f64` is compared by its bits.
//!
//! The cases cover OS, WS and IS; GEMMs and convolutions with rectangular
//! ifmaps, filters and strides; grids up to 3×3 with ragged edges; SRAM
//! from none through a few dozen elements to everything fits; and no
//! bandwidth limit or 0.5 to 64 bytes per cycle.

use proptest::prelude::*;

use scalesim::{ArrayShape, Dataflow, Layer, PartitionGrid, SimConfig, Simulator};
use scalesim_integration::oracle::{self, LayerFigures};
use scalesim_memory::{ConvAddressMap, DramModel, GemmAddressMap, RegionOffsets, RunBuffer};
use scalesim_systolic::{fold_demand_runs, fold_demands};
use scalesim_topology::ConvLayerBuilder;

/// A convolution from its ifmap, filter and strides, each `(h, w)`.
fn conv(
    ifmap: (u64, u64),
    filter: (u64, u64),
    channels: u64,
    filters: u64,
    strides: (u64, u64),
) -> Layer {
    ConvLayerBuilder::new("c")
        .ifmap(ifmap.0, ifmap.1)
        .filter(filter.0, filter.1)
        .channels(channels)
        .num_filters(filters)
        .strides(strides.0, strides.1)
        .build()
        .unwrap()
        .into()
}

fn config(
    dataflow: Dataflow,
    array: ArrayShape,
    sram_kb: u64,
    word_bytes: u64,
    bandwidth: Option<f64>,
) -> SimConfig {
    SimConfig {
        dram_bandwidth: bandwidth,
        ..SimConfig::builder()
            .dataflow(dataflow)
            .array(array)
            .sram_kb(sram_kb, sram_kb, sram_kb)
            .word_bytes(word_bytes)
            .build()
    }
}

fn check(layer: &Layer, config: &SimConfig, grid: PartitionGrid) -> Result<(), TestCaseError> {
    let report = Simulator::new(*config).with_grid(grid).run_layer(layer);
    let expected = oracle::run_layer(layer, config, grid);
    prop_assert_eq!(
        LayerFigures::of(&report),
        expected,
        "{:?} {:?} on {}",
        layer,
        config,
        grid
    );
    Ok(())
}

const GRIDS: [(u64, u64); 7] = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (2, 3), (3, 3)];
const ARRAYS: [(u64, u64); 4] = [(4, 4), (3, 2), (2, 5), (8, 4)];
/// IFMAP/filter/OFMAP sizes with the word size: none at all, 16 to 64
/// elements, 256, and everything fits.
const SRAM: [(u64, u64); 5] = [(0, 1), (1, 64), (1, 16), (1, 4), (1 << 20, 1)];
const BANDWIDTH: [Option<f64>; 5] = [None, Some(0.5), Some(1.0), Some(8.0), Some(64.0)];

/// Layers that separate the rules of `AddressMap::a_phase` from their
/// neighbours: each rule, dropped or misstated, merges tiles or fold rows
/// here whose A streams are not one constant apart.
fn phase_witnesses() -> Vec<Layer> {
    vec![
        // `f` steps (stride_h·W_i = 12 ≠ stride_w·W_o = 10) and tiles
        // and fold rows start mid-row at several columns.
        conv((12, 12), (3, 3), 2, 5, (1, 1)),
        // `g` steps every 6 elements (3 wide × 2 channels), so 4-wide
        // k-slices start inside a filter row, some crossing it.
        conv((9, 9), (3, 3), 2, 7, (1, 1)),
        // stride_h·W_i = 32 ≠ stride_w·W_o = 8 while the stride-swapped
        // products agree (16 = 16): only the right-way-round test keeps
        // `f` stepping.
        conv((9, 8), (2, 2), 3, 5, (4, 2)),
        // Rectangular all round, `f` and `g` both stepping.
        conv((11, 7), (3, 2), 3, 6, (2, 1)),
        // stride_h·W_i = stride_w·W_o (4 = 2·2): `f` is linear.
        conv((6, 4), (2, 2), 2, 5, (1, 2)),
        // W_i = filter_w: `g` is linear.
        conv((8, 3), (2, 3), 2, 5, (1, 1)),
        // 1×1 filter and a fully connected layer.
        conv((5, 5), (1, 1), 6, 7, (1, 1)),
        conv((1, 1), (1, 1), 40, 9, (1, 1)),
        Layer::gemm("g", 30, 20, 17),
    ]
}

/// Every witness under every dataflow, on grids from 1×1 to a ragged
/// 3×3, with an IFMAP buffer of a few dozen elements and with one that
/// holds everything, with and without a bandwidth limit.
#[test]
fn run_layer_matches_the_oracle_on_the_phase_witnesses() {
    for layer in phase_witnesses() {
        for dataflow in Dataflow::ALL {
            for (rows, cols) in [(1, 1), (3, 1), (2, 2), (3, 3)] {
                for array in [ArrayShape::new(4, 4), ArrayShape::new(3, 2)] {
                    for (sram_kb, word_bytes) in [(1, 16), (1 << 20, 1)] {
                        for bandwidth in [None, Some(0.5), Some(64.0)] {
                            let config = config(dataflow, array, sram_kb, word_bytes, bandwidth);
                            check(&layer, &config, PartitionGrid::new(rows, cols)).unwrap();
                        }
                    }
                }
            }
        }
    }
}

/// The regime in which the IFMAP buffer turns paged: an IS convolution
/// whose fold streams fragment its working set past the span limit, run
/// under several buffer sizes one after another, so that each run's
/// buffer comes back from the worker's pool with the pages of the last.
#[test]
fn run_layer_matches_the_oracle_where_the_ifmap_buffer_pages() {
    let layer = conv((12, 12), (3, 3), 8, 6, (1, 1));
    let Layer::Conv(c) = &layer else {
        unreachable!()
    };
    let map = ConvAddressMap::new(c, RegionOffsets::ZERO);
    let dims = layer.shape().project(Dataflow::InputStationary);
    for word_bytes in [4, 3, 2] {
        let config = config(
            Dataflow::InputStationary,
            ArrayShape::square(4),
            1,
            word_bytes,
            Some(2.0),
        );
        let mut dram = DramModel::new(
            config.ifmap_buffer(1),
            config.filter_buffer(1),
            config.ofmap_buffer(1),
        );
        for d in fold_demand_runs(&dims, config.array, &map) {
            dram.fold_runs(d.fold.duration, &d.a, &d.b, &d.o_spill, &d.o_writes);
        }
        assert!(dram.operand_buffers()[0].is_paged(), "{word_bytes}");
        assert!(!dram
            .operand_buffers()
            .iter()
            .skip(1)
            .any(|b| RunBuffer::is_paged(b)));
        check(&layer, &config, PartitionGrid::monolithic()).unwrap();
        check(&layer, &config, PartitionGrid::new(2, 1)).unwrap();
    }
}

/// SRAM of `kb` KB in words of `word_bytes` holding exactly `elements`
/// elements, for the smallest `kb` that has such a word size.
fn sram_holding(elements: u64) -> (u64, u64) {
    (1..)
        .find_map(|kb: u64| {
            let word_bytes = (kb * 1024 / elements).max(1);
            (kb * 1024 / word_bytes == elements).then_some((kb, word_bytes))
        })
        .unwrap()
}

/// The fixed-point rules of the IFMAP buffer turn at its capacity: a
/// stream of one element more or less than a bufferful repeats to a
/// different fixed point. Every witness, every dataflow, with an IFMAP
/// buffer one short of, exactly and one past the smallest and the largest
/// A stream of a fold (row).
#[test]
fn run_layer_matches_the_oracle_at_the_ifmap_buffer_s_edges() {
    for layer in phase_witnesses() {
        let map: Box<dyn scalesim_memory::AddressMap> = match &layer {
            Layer::Conv(c) => Box::new(ConvAddressMap::new(c, RegionOffsets::ZERO)),
            Layer::Gemm { shape, .. } => {
                Box::new(GemmAddressMap::from_shape(*shape, RegionOffsets::ZERO))
            }
        };
        for dataflow in Dataflow::ALL {
            let array = ArrayShape::new(4, 4);
            let dims = layer.shape().project(dataflow);
            let sizes: Vec<u64> = fold_demands(&dims, array, &*map)
                .map(|d| d.a.element_count())
                .collect();
            let (smallest, largest) = (sizes.iter().min(), sizes.iter().max());
            for stream in [smallest.unwrap(), largest.unwrap()] {
                for elements in [stream - 1, *stream, stream + 1] {
                    if elements == 0 {
                        continue;
                    }
                    let (kb, word_bytes) = sram_holding(elements);
                    let mut config = config(dataflow, array, kb, word_bytes, Some(1.0));
                    (config.filter_sram_kb, config.ofmap_sram_kb) = (1 << 20, 1 << 20);
                    assert_eq!(config.ifmap_buffer(1).capacity_elems() as u64, elements);
                    check(&layer, &config, PartitionGrid::monolithic()).unwrap();
                }
            }
        }
    }
}

/// A GEMM's DRAM traffic is priced in closed form, whose thresholds turn
/// where a stream repeated along a fold row (`r′T`, the A stream under OS
/// and WS, B under IS) or the operand tile a fold row cycles through
/// (`T·S_C`, B under OS, the partial sums under WS and IS) meets its
/// buffer. Every dataflow, with that buffer one short of, exactly and one
/// past the threshold — `r′T` of a full and of the ragged last fold row —
/// and the other two holding everything.
#[test]
fn run_layer_matches_the_oracle_at_the_gemm_buffers_thresholds() {
    // S_R is 30 (OS) or 22 (WS, IS): the last fold row is two rows.
    let layer = Layer::gemm("g", 30, 22, 17);
    let array = ArrayShape::new(4, 4);
    for dataflow in Dataflow::ALL {
        let dims = layer.shape().project(dataflow);
        let t = dims.temporal;
        let last_rows = dims.spatial_rows - (dims.spatial_rows - 1) / 4 * 4;
        let cycle = t * dims.spatial_cols;
        // (buffer: 0 IFMAP, 1 filter, 2 OFMAP; threshold in elements)
        let (row_buffer, cycle_buffer) = match dataflow {
            Dataflow::OutputStationary => (0, 1),
            Dataflow::WeightStationary => (0, 2),
            Dataflow::InputStationary => (1, 2),
        };
        let thresholds = [
            (row_buffer, 4 * t),
            (row_buffer, last_rows * t),
            (cycle_buffer, cycle),
        ];
        for (buffer, threshold) in thresholds {
            for elements in [threshold - 1, threshold, threshold + 1] {
                let (kb, word_bytes) = sram_holding(elements);
                let mut config = config(dataflow, array, 1 << 20, word_bytes, Some(1.0));
                match buffer {
                    0 => config.ifmap_sram_kb = kb,
                    1 => config.filter_sram_kb = kb,
                    _ => config.ofmap_sram_kb = kb,
                }
                let specs = [
                    config.ifmap_buffer(1),
                    config.filter_buffer(1),
                    config.ofmap_buffer(1),
                ];
                assert_eq!(specs[buffer].capacity_elems() as u64, elements);
                check(&layer, &config, PartitionGrid::monolithic()).unwrap();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_layer_matches_the_oracle(
        kind in (0u8..2, 0usize..3),
        ifmap in (1u64..13, 1u64..13),
        filter in (1u64..5, 1u64..5),
        strides in (1u64..4, 1u64..4),
        channels in 1u64..5,
        gemm in (1u64..60, 1u64..30, 1u64..40),
        grid in 0usize..GRIDS.len(),
        array in 0usize..ARRAYS.len(),
        sram in 0usize..SRAM.len(),
        bandwidth in 0usize..BANDWIDTH.len(),
    ) {
        let (is_conv, df) = kind;
        let (filters, layer) = (gemm.2, Layer::gemm("g", gemm.0, gemm.1, gemm.2));
        let layer = if is_conv == 1 {
            // Filters no larger than the ifmap.
            let filter = (filter.0.min(ifmap.0), filter.1.min(ifmap.1));
            conv(ifmap, filter, channels, filters.min(12), strides)
        } else {
            layer
        };
        let (rows, cols) = ARRAYS[array];
        let (sram_kb, word_bytes) = SRAM[sram];
        let config = config(
            Dataflow::ALL[df],
            ArrayShape::new(rows, cols),
            sram_kb,
            word_bytes,
            BANDWIDTH[bandwidth],
        );
        let (pr, pc) = GRIDS[grid];
        check(&layer, &config, PartitionGrid::new(pr, pc))?;
    }
}
