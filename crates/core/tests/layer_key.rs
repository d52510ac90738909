//! The identities that decide "same simulation", in a test binary of its
//! own: the miss count reads the process-global layer-cache counters,
//! which no test of another binary may move meanwhile, and the tests here
//! take turns through [`LOCK`].
//!
//! * A [`layer_cache::LayerKey`] holds exactly what `run_layer` reads:
//!   configs that differ only in region offsets, the layer's name or the
//!   topology's name share a key and cost one miss between them, and
//!   changing any one read field alone separates the keys.
//! * [`SweepPlan::space_summary`] counts the simulations a run makes.

use std::sync::Mutex;

use proptest::prelude::*;

use scalesim::sweep::{AspectAxis, CsvSink, GridAxis, SweepWorkload};
use scalesim::telemetry_names::LAYER_CACHE_MISSES;
use scalesim::{
    layer_cache, ArrayShape, Dataflow, DataflowChoice, EnergyModel, Layer, PartitionGrid,
    RegionOffsets, SimConfig, Simulator, SweepEngine, SweepPlan, Topology,
};
use scalesim_topology::ConvLayerBuilder;

/// Held by every test that simulates: they clear the layer cache and read
/// its counters.
static LOCK: Mutex<()> = Mutex::new(());

const DATAFLOWS: [Dataflow; 3] = [
    Dataflow::OutputStationary,
    Dataflow::WeightStationary,
    Dataflow::InputStationary,
];

fn layer_cache_misses() -> u64 {
    scalesim_telemetry::global()
        .counter_value(LAYER_CACHE_MISSES, &[])
        .unwrap_or(0)
}

/// A GEMM `(dims[0], dims[1], dims[2])` when `conv` is false, else the
/// convolution `dims` names: IFMAP height and width, filter height and
/// width, channels, filters, strides.
fn layer(name: &str, conv: bool, dims: [u64; 8]) -> Layer {
    if !conv {
        return Layer::gemm(name, dims[0], dims[1], dims[2]);
    }
    ConvLayerBuilder::new(name)
        .ifmap(dims[0], dims[1])
        .filter(dims[2], dims[3])
        .channels(dims[4])
        .num_filters(dims[5])
        .strides(dims[6], dims[7])
        .build()
        .expect("the filter fits the IFMAP")
        .into()
}

/// Drawn convolution dimensions whose IFMAP exceeds the filter along both
/// axes, so a one-larger filter still fits.
fn conv_dims() -> impl Strategy<Value = [u64; 8]> {
    (
        1u64..4,
        1u64..4,
        1u64..6,
        1u64..6,
        1u64..5,
        1u64..6,
        1u64..3,
        1u64..3,
    )
        .prop_map(|(fh, fw, dh, dw, c, n, sh, sw)| [fh + dh, fw + dw, fh, fw, c, n, sh, sw])
}

fn config() -> impl Strategy<Value = SimConfig> {
    (
        (1u64..5, 1u64..5, 0usize..3),
        (1u64..64, 1u64..64, 1u64..64, 1u64..3),
        prop::option::of(1u64..64),
    )
        .prop_map(
            |((rows, cols, dataflow), (ifmap, filter, ofmap, word), bw)| SimConfig {
                array: ArrayShape::new(1 << rows, 1 << cols),
                dataflow: DATAFLOWS[dataflow],
                ifmap_sram_kb: ifmap,
                filter_sram_kb: filter,
                ofmap_sram_kb: ofmap,
                offsets: RegionOffsets::default(),
                word_bytes: word,
                dram_bandwidth: bw.map(|b| b as f64 / 4.0),
            },
        )
}

fn energy() -> impl Strategy<Value = EnergyModel> {
    (1u32..100, 1u32..100, 1u32..100, 1u32..100).prop_map(|(mac, idle, sram, dram)| EnergyModel {
        mac: f64::from(mac) / 8.0,
        idle_pe: f64::from(idle) / 8.0,
        sram: f64::from(sram) / 8.0,
        dram: f64::from(dram) / 8.0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    fn unread_fields_share_one_key_and_one_miss(
        conv in 0u8..2,
        dims in conv_dims(),
        base in config(),
        offsets in (0..u64::MAX, 0..u64::MAX, 0..u64::MAX),
        grid in (1u64..3, 1u64..3),
    ) {
        let _turn = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (conv, grid) = (conv == 1, PartitionGrid::new(grid.0, grid.1));
        let energy = EnergyModel::default();
        let moved = SimConfig {
            offsets: RegionOffsets { ifmap: offsets.0, filter: offsets.1, ofmap: offsets.2 },
            ..base
        };
        let (first, second) = (layer("first", conv, dims), layer("second", conv, dims));
        prop_assert_eq!(
            layer_cache::key(&base, grid, &energy, &first),
            layer_cache::key(&moved, grid, &energy, &second)
        );

        layer_cache::clear();
        let misses = layer_cache_misses();
        let alone = Simulator::new(base).with_grid(grid).run_layer(&first);
        let net = Topology::from_layers("another-net", vec![second]);
        let in_net = Simulator::new(moved).with_grid(grid).run_topology(&net);
        prop_assert_eq!(layer_cache_misses() - misses, 1);
        let renamed = in_net.layers()[0].clone();
        prop_assert_eq!(&renamed.name, "second");
        prop_assert_eq!(
            format!("{:?}", alone),
            format!("{:?}", scalesim::LayerReport { name: "first".into(), ..renamed })
        );
    }

    fn every_read_field_alone_separates_the_keys(
        conv in 0u8..2,
        dims in conv_dims(),
        base in config(),
        energy in energy(),
        grid in (1u64..3, 1u64..3),
    ) {
        let (conv, grid) = (conv == 1, PartitionGrid::new(grid.0, grid.1));
        let target = layer("l", conv, dims);
        let key = layer_cache::key(&base, grid, &energy, &target);
        let mut others = Vec::new();

        // The layer: each dimension, and a conv against the GEMM it lowers to.
        let used = if conv { 8 } else { 3 };
        for i in 0..used {
            let mut bigger = dims;
            bigger[i] += 1;
            others.push((format!("dimension {i}"), layer_cache::key(&base, grid, &energy, &layer("l", conv, bigger))));
        }
        if conv {
            let shape = target.shape();
            let gemm = Layer::gemm("l", shape.m, shape.k, shape.n);
            others.push(("lowered".into(), layer_cache::key(&base, grid, &energy, &gemm)));
        }

        // The config: array, dataflow, SRAM sizes, word size, bandwidth.
        let (rows, cols) = (base.array.rows(), base.array.cols());
        let next_dataflow = DATAFLOWS[(DATAFLOWS.iter().position(|&d| d == base.dataflow).unwrap() + 1) % 3];
        let bandwidth = match base.dram_bandwidth {
            None => Some(1.0),
            Some(bw) => Some(bw * 2.0),
        };
        let configs = [
            ("array rows", SimConfig { array: ArrayShape::new(rows * 2, cols), ..base }),
            ("array cols", SimConfig { array: ArrayShape::new(rows, cols * 2), ..base }),
            ("dataflow", SimConfig { dataflow: next_dataflow, ..base }),
            ("ifmap sram", SimConfig { ifmap_sram_kb: base.ifmap_sram_kb + 1, ..base }),
            ("filter sram", SimConfig { filter_sram_kb: base.filter_sram_kb + 1, ..base }),
            ("ofmap sram", SimConfig { ofmap_sram_kb: base.ofmap_sram_kb + 1, ..base }),
            ("word bytes", SimConfig { word_bytes: base.word_bytes + 1, ..base }),
            ("bandwidth", SimConfig { dram_bandwidth: bandwidth, ..base }),
            ("no bandwidth", SimConfig { dram_bandwidth: None, ..base }),
        ];
        for (field, config) in configs {
            if config != base {
                others.push((field.into(), layer_cache::key(&config, grid, &energy, &target)));
            }
        }

        // The energy constants and the grid.
        let energies = [
            ("mac energy", EnergyModel { mac: energy.mac * 2.0, ..energy }),
            ("idle energy", EnergyModel { idle_pe: energy.idle_pe * 2.0, ..energy }),
            ("sram energy", EnergyModel { sram: energy.sram * 2.0, ..energy }),
            ("dram energy", EnergyModel { dram: energy.dram * 2.0, ..energy }),
        ];
        for (field, energy) in energies {
            others.push((field.into(), layer_cache::key(&base, grid, &energy, &target)));
        }
        for (field, other) in [
            ("grid rows", PartitionGrid::new(grid.rows() + 1, grid.cols())),
            ("grid cols", PartitionGrid::new(grid.rows(), grid.cols() + 1)),
        ] {
            others.push((field.into(), layer_cache::key(&base, other, &energy, &target)));
        }

        for (field, other) in others {
            prop_assert!(key != other, "changing the {} kept the key", field);
        }
    }
}

/// Small GEMM workloads for sweeps, by label.
fn workload(label: &str) -> SweepWorkload {
    let layers = match label {
        "a" => vec![Layer::gemm("a0", 8, 4, 6)],
        "b" => vec![Layer::gemm("b0", 5, 9, 3), Layer::gemm("b1", 8, 4, 6)],
        _ => vec![Layer::gemm("c0", 12, 2, 7)],
    };
    SweepWorkload {
        label: label.into(),
        topology: Topology::from_layers(label, layers),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    fn the_dry_run_counts_the_simulations_a_run_makes(
        labels in prop::collection::vec(0usize..3, 1..4),
        budgets in prop::collection::vec(4u32..7, 1..4),
        dataflows in prop::collection::vec(0usize..4, 0..5),
        base_dataflow in 0usize..3,
        explicit_grids in 0u8..2,
        all_aspects in 0u8..2,
    ) {
        let _turn = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let choice = |i: usize| if i == 3 { DataflowChoice::Auto } else { DataflowChoice::Fixed(DATAFLOWS[i]) };
        let plan = SweepPlan {
            base: SimConfig { dataflow: DATAFLOWS[base_dataflow], ..SimConfig::default() },
            workloads: labels.iter().map(|&i| workload(["a", "b", "c"][i])).collect(),
            budgets: budgets.iter().map(|&e| 1u64 << e).collect(),
            min_dim: 2,
            grids: if explicit_grids == 1 {
                GridAxis::Explicit(vec![
                    PartitionGrid::new(1, 1),
                    PartitionGrid::new(2, 1),
                    PartitionGrid::new(1, 1),
                ])
            } else {
                GridAxis::PowersOfTwo
            },
            aspects: if all_aspects == 1 { AspectAxis::All } else { AspectAxis::Squareish },
            dataflows: dataflows.iter().map(|&i| choice(i)).collect(),
            ..SweepPlan::new("dry-run")
        };
        let summary = plan.space_summary().expect("the plan is valid");
        let outcome = SweepEngine::default()
            .run_streaming(&plan, 2, &mut CsvSink::new(std::io::sink()))
            .expect("the plan runs");
        prop_assert_eq!(summary.distinct_jobs as u64, outcome.simulations);
        prop_assert_eq!(summary.points, outcome.results.len());
        prop_assert_eq!(outcome.cache_hits, (summary.points - summary.distinct_jobs) as u64);
    }
}
