//! Process-global layer-result memoization.
//!
//! A layer simulation is a pure function of the layer geometry, the
//! effective hardware configuration, the partition grid and the energy
//! constants — the layer *name* is a label, not an input. Real networks
//! repeat shapes heavily (every transformer block re-runs the same three
//! GEMMs; ResNet stages repeat their conv shape), and design-space sweeps
//! re-simulate the unchanged layers of every neighbouring design point.
//! Memoizing at layer granularity therefore removes whole simulations from
//! the cold path, beneath the server's job LRU (which keys entire jobs, not
//! sub-problems), and answers a rerun of a whole plan.
//!
//! The key is a [`LayerKey`], exactly the fields `run_layer` reads, so
//! layers that differ only in their name or their config's region offsets
//! (layers are simulated at offset zero) share one entry. The value is an
//! `Arc<LayerReport>`; a hit clones the report and patches the name back
//! in, so results are bit-identical to a fresh simulation.
//!
//! Telemetry: hit/miss counters are recorded by the simulator (see
//! [`crate::simulator::telemetry_names`]).

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
use std::sync::{Arc, OnceLock};

use scalesim_analytical::PartitionGrid;
use scalesim_energy::EnergyModel;
use scalesim_systolic::ArrayShape;
use scalesim_topology::{Dataflow, Layer};

use crate::cache::{ShardKey, ShardedLru};
use crate::config::SimConfig;
use crate::report::LayerReport;

/// Cache capacity in entries. Sized for design-space exploration: a full
/// Fig. 9/10-style sweep touches a few hundred distinct (layer, config)
/// pairs, so thousands of slots hold several sweeps' working sets while a
/// `LayerReport` is small enough (a few hundred bytes) that the worst-case
/// footprint stays in the low megabytes.
const CAPACITY: usize = 4096;
const SHARDS: usize = 16;

fn cache() -> &'static ShardedLru<LayerKey, Arc<LayerReport>> {
    static CACHE: OnceLock<ShardedLru<LayerKey, Arc<LayerReport>>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::new(CAPACITY, SHARDS))
}

/// The identity of one layer simulation: everything
/// [`crate::Simulator::run_layer`] reads, and nothing else. `f64` inputs
/// are held by their bits, so distinct values never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LayerKey {
    geometry: Geometry,
    array: ArrayShape,
    dataflow: Dataflow,
    /// IFMAP, filter and OFMAP SRAM sizes in KB.
    sram_kb: [u64; 3],
    word_bytes: u64,
    dram_bandwidth: Option<u64>,
    /// MAC, idle-PE, SRAM and DRAM energy constants.
    energy: [u64; 4],
    grid: PartitionGrid,
}

/// A layer's shape without its name. A conv and the GEMM it lowers to
/// stay apart: the conv's IFMAP stream carries real window overlap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Geometry {
    /// Height, width, filter height and width, channels, filters, strides.
    Conv([u64; 8]),
    /// M, K, N.
    Gemm([u64; 3]),
}

impl ShardKey for LayerKey {
    fn shard_bits(&self) -> u64 {
        BuildHasherDefault::<DefaultHasher>::default().hash_one(self)
    }
}

/// The key of one layer simulation. `config` must be the effective config
/// — dataflow already resolved — or auto-dataflow runs would collide with
/// fixed ones.
pub fn key(
    config: &SimConfig,
    grid: PartitionGrid,
    energy: &EnergyModel,
    layer: &Layer,
) -> LayerKey {
    let geometry = match layer {
        Layer::Conv(c) => Geometry::Conv([
            c.ifmap_h(),
            c.ifmap_w(),
            c.filter_h(),
            c.filter_w(),
            c.channels(),
            c.num_filters(),
            c.stride_h(),
            c.stride_w(),
        ]),
        Layer::Gemm { shape, .. } => Geometry::Gemm([shape.m, shape.k, shape.n]),
    };
    LayerKey {
        geometry,
        array: config.array,
        dataflow: config.dataflow,
        sram_kb: [
            config.ifmap_sram_kb,
            config.filter_sram_kb,
            config.ofmap_sram_kb,
        ],
        word_bytes: config.word_bytes,
        dram_bandwidth: config.dram_bandwidth.map(f64::to_bits),
        energy: [energy.mac, energy.idle_pe, energy.sram, energy.dram].map(f64::to_bits),
        grid,
    }
}

/// Looks up a previously simulated layer result.
pub fn lookup(key: LayerKey) -> Option<Arc<LayerReport>> {
    cache().get(key)
}

/// Publishes a freshly simulated layer result.
pub fn store(key: LayerKey, report: Arc<LayerReport>) {
    cache().insert(key, report);
}

/// Drops every memoized layer result. Benchmarks use this to measure the
/// true cold path; it is never required for correctness.
pub fn clear() {
    cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::ConvLayer;

    fn config() -> SimConfig {
        SimConfig::builder().build()
    }

    #[test]
    fn key_ignores_the_layer_name_only() {
        let grid = PartitionGrid::monolithic();
        let energy = EnergyModel::default();
        let a = key(&config(), grid, &energy, &Layer::gemm("a", 8, 4, 8));
        let b = key(&config(), grid, &energy, &Layer::gemm("b", 8, 4, 8));
        assert_eq!(a, b, "the name is a label, not a simulation input");
        let c = key(&config(), grid, &energy, &Layer::gemm("a", 8, 5, 8));
        assert_ne!(a, c);
    }

    #[test]
    fn key_separates_every_simulation_input() {
        let grid = PartitionGrid::monolithic();
        let energy = EnergyModel::default();
        let layer = Layer::gemm("g", 16, 16, 16);
        let base = key(&config(), grid, &energy, &layer);

        let wide = SimConfig {
            array: scalesim_systolic::ArrayShape::new(8, 32),
            ..config()
        };
        assert_ne!(base, key(&wide, grid, &energy, &layer));

        assert_ne!(
            base,
            key(&config(), PartitionGrid::new(2, 2), &energy, &layer)
        );

        let hot = EnergyModel {
            dram: energy.dram * 2.0,
            ..energy
        };
        assert_ne!(base, key(&config(), grid, &hot, &layer));

        // A conv and the GEMM it lowers to are different address spaces.
        let conv = ConvLayer::new("c", 6, 6, 3, 3, 4, 16, 1).unwrap();
        assert_ne!(base, key(&config(), grid, &energy, &conv.into()));
    }

    #[test]
    fn conv_key_covers_the_full_geometry() {
        let grid = PartitionGrid::monolithic();
        let energy = EnergyModel::default();
        let base: Layer = ConvLayer::new("c", 8, 8, 3, 3, 2, 5, 1).unwrap().into();
        let strided: Layer = ConvLayer::new("c", 8, 8, 3, 3, 2, 5, 2).unwrap().into();
        assert_ne!(
            key(&config(), grid, &energy, &base),
            key(&config(), grid, &energy, &strided),
            "stride changes the address stream even when M,K,N shrink together"
        );
    }

    #[test]
    fn store_then_lookup_round_trips() {
        // A key no other test simulates (negative energy constants): tests
        // share the process-global cache, so this test must neither clear
        // it nor collide with keys other tests simulate.
        let energy = EnergyModel {
            mac: -1.0,
            idle_pe: -2.0,
            sram: -3.0,
            dram: -4.0,
        };
        let k = key(
            &config(),
            PartitionGrid::monolithic(),
            &energy,
            &Layer::gemm("probe", 3, 5, 7),
        );
        assert!(lookup(k).is_none());
        let report = Arc::new(LayerReport {
            name: "round_trip_probe".into(),
            grid: PartitionGrid::monolithic(),
            array: scalesim_systolic::ArrayShape::square(4),
            total_cycles: 7,
            per_partition_cycles: vec![7],
            active_partitions: 1,
            mac_ops: 27,
            sram: Default::default(),
            dram: Default::default(),
            mapping_utilization: 0.5,
            compute_utilization: 0.25,
            energy: Default::default(),
            stall: None,
        });
        store(k, Arc::clone(&report));
        let back = lookup(k).expect("stored entry must be resident");
        assert_eq!(*back, *report);
    }
}
