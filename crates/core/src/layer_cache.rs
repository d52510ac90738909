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
//! The key is a [`ContentKey`] (FNV-1a/128) over canonical text — the same
//! machinery the job cache uses, so both tiers address one stable,
//! process-independent key space. The cached value is an
//! `Arc<LayerReport>`; a hit clones the report and patches the name back
//! in, so results are bit-identical to a fresh simulation.
//!
//! Telemetry: hit/miss counters are recorded by the simulator (see
//! [`crate::simulator::telemetry_names`]).

use std::sync::{Arc, OnceLock};

use scalesim_analytical::PartitionGrid;
use scalesim_energy::EnergyModel;
use scalesim_topology::Layer;

use crate::cache::{ContentKey, ShardedLru};
use crate::config::SimConfig;
use crate::report::LayerReport;

/// Cache capacity in entries. Sized for design-space exploration: a full
/// Fig. 9/10-style sweep touches a few hundred distinct (layer, config)
/// pairs, so thousands of slots hold several sweeps' working sets while a
/// `LayerReport` is small enough (a few hundred bytes) that the worst-case
/// footprint stays in the low megabytes.
const CAPACITY: usize = 4096;
const SHARDS: usize = 16;

fn cache() -> &'static ShardedLru<Arc<LayerReport>> {
    static CACHE: OnceLock<ShardedLru<Arc<LayerReport>>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::new(CAPACITY, SHARDS))
}

/// Computes the canonical sub-problem key for one layer simulation.
///
/// Everything [`crate::Simulator::run_layer`] depends on goes into the
/// text: the layer geometry (without its name), the *effective* config in
/// its canonical file serialization, the partition grid, and the energy
/// constants (`f64` Display round-trips exactly, so distinct models never
/// alias). `config` must be the effective config — dataflow already
/// resolved — or auto-dataflow runs would collide with fixed ones.
pub fn key(
    config: &SimConfig,
    grid: PartitionGrid,
    energy: &EnergyModel,
    layer: &Layer,
) -> ContentKey {
    let geometry = match layer {
        Layer::Conv(c) => format!(
            "conv:{},{},{},{},{},{},{},{}",
            c.ifmap_h(),
            c.ifmap_w(),
            c.filter_h(),
            c.filter_w(),
            c.channels(),
            c.num_filters(),
            c.stride_h(),
            c.stride_w(),
        ),
        Layer::Gemm { shape, .. } => format!("gemm:{},{},{}", shape.m, shape.k, shape.n),
    };
    let text = format!(
        "layer-v1\n{geometry}\ngrid:{}x{}\nenergy:{},{},{},{}\n{}",
        grid.rows(),
        grid.cols(),
        energy.mac,
        energy.idle_pe,
        energy.sram,
        energy.dram,
        config.to_config_string(),
    );
    ContentKey::from_content(text.as_bytes())
}

/// Looks up a previously simulated layer result.
pub fn lookup(key: ContentKey) -> Option<Arc<LayerReport>> {
    cache().get(key.0)
}

/// Publishes a freshly simulated layer result.
pub fn store(key: ContentKey, report: Arc<LayerReport>) {
    cache().insert(key.0, report);
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
        // A synthetic key no real simulation can produce: tests share the
        // process-global cache, so this test must neither clear it nor
        // collide with keys other tests simulate.
        let k = ContentKey::from_content(b"layer-cache-round-trip-test");
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
