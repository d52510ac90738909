//! The traced replay: each layer simulation of a pass is run through the
//! facade (`Simulator::run_layer`) and, where the grid is 1x1, once more as
//! the calls the facade makes, each under its own span: `analyze`, the
//! `fold_demand_runs` iteration, `DramModel::fold_runs`, `StallModel::fold`
//! and `EnergyModel::evaluate`. The two must agree or the op fails.

use std::collections::HashSet;

use scalesim::{layer_cache, with_arena, EnergyBreakdown, EnergyModel, LayerReport, Simulator};
use scalesim_memory::{
    AddressMap, ConvAddressMap, DramModel, DramSummary, FoldTraffic, GemmAddressMap, StallModel,
    SubGemmMap,
};
use scalesim_systolic::{analyze, fold_demand_runs_in, FoldDemandRuns, SramCounts};
use scalesim_topology::Layer;

use crate::trace::Recorder;
use crate::workloads::{SimOp, Tally};

/// Folds whose demand is generated before the batch is handed to the DRAM
/// model. The facade alternates the two calls fold by fold; timing each
/// call on its own would cost as much as a call (tens of nanoseconds), so
/// the replay times them a batch at a time. The order of `fold_runs` calls
/// is the facade's, so the result is too.
const BATCH: usize = 256;

pub const FACADE: &str = "core.run_layer";
pub const REPLAY: &str = "replay.layer";
pub const ANALYZE: &str = "systolic.analyze";
pub const DEMAND_GEN: &str = "systolic.fold_demand_runs";
pub const FOLD_RUNS: &str = "memory.fold_runs";
pub const STALL: &str = "memory.stall_fold";
pub const ENERGY: &str = "energy.evaluate";
/// The spans whose sum is compared with the facade's wall time.
pub const PARTS: [&str; 5] = [ANALYZE, DEMAND_GEN, FOLD_RUNS, STALL, ENERGY];

/// Simulated statistics of the cold layers of one pass. They are counts of
/// a deterministic model and repeat exactly for a seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub layers: u64,
    pub cycles: u64,
    pub folds: u64,
    pub demand_runs: u64,
    pub demand_elements: u64,
    pub sram_reads: u64,
    pub dram_reads: u64,
}

/// Batch buffers kept across layers, like the facade's per-thread arena.
#[derive(Default)]
pub struct Scratch {
    demands: Vec<FoldDemandRuns>,
    traffic: Vec<FoldTraffic>,
}

struct Decomposed {
    cycles: u64,
    sram: SramCounts,
    dram: DramSummary,
    stalled_cycles: Option<u64>,
    energy: EnergyBreakdown,
}

pub fn simulator(op: &SimOp) -> Simulator {
    let sim = Simulator::new(op.config).with_grid(op.grid);
    if op.auto_dataflow {
        sim.with_auto_dataflow()
    } else {
        sim
    }
}

fn decompose(
    rec: &mut Recorder,
    op_id: u64,
    sim: &Simulator,
    layer: &Layer,
    scratch: &mut Scratch,
    counts: &mut SimCounts,
) -> Decomposed {
    let config = sim.effective_config(layer);
    let shape = layer.shape();
    let map: Box<dyn AddressMap> = match layer {
        Layer::Conv(conv) => Box::new(ConvAddressMap::new(conv, config.offsets)),
        Layer::Gemm { shape, .. } => Box::new(GemmAddressMap::from_shape(*shape, config.offsets)),
    };
    // The one tile of a 1x1 grid, through the same sub-map type the facade
    // wraps every tile in.
    let tile = SubGemmMap::new(&*map, 0, 0);
    let dims = shape.project(config.dataflow);
    let compute = rec.span(ANALYZE, op_id, |_| analyze(&dims, config.array));

    scratch.demands.resize_with(BATCH, FoldDemandRuns::default);
    let (dram, stall) = with_arena(|arena| {
        let mut dram = DramModel::new_in(
            config.ifmap_buffer(1),
            config.filter_buffer(1),
            config.ofmap_buffer(1),
            &mut arena.pool,
        );
        let mut stall = config.dram_bandwidth.map(StallModel::new);
        let mut demands = fold_demand_runs_in(
            &dims,
            config.array,
            &tile,
            std::mem::take(&mut arena.a_seen),
            std::mem::take(&mut arena.a_scratch),
        );
        loop {
            let filled = rec.span(DEMAND_GEN, op_id, |_| {
                let mut filled = 0;
                for demand in &mut scratch.demands {
                    if !demands.next_into(demand) {
                        break;
                    }
                    filled += 1;
                }
                filled
            });
            if filled == 0 {
                break;
            }
            let batch = &scratch.demands[..filled];
            scratch.traffic.clear();
            rec.span(FOLD_RUNS, op_id, |_| {
                scratch.traffic.extend(
                    batch.iter().map(|d| {
                        dram.fold_runs(d.fold.duration, &d.a, &d.b, &d.o_spill, &d.o_writes)
                    }),
                );
            });
            if let Some(stall) = stall.as_mut() {
                rec.span(STALL, op_id, |_| {
                    for t in &scratch.traffic {
                        stall.fold(t.duration, t.read_bytes, t.write_bytes);
                    }
                });
            }
            counts.folds += filled as u64;
            counts.demand_runs += batch.iter().map(FoldDemandRuns::run_count).sum::<u64>();
            counts.demand_elements += batch.iter().map(FoldDemandRuns::element_count).sum::<u64>();
        }
        (arena.a_seen, arena.a_scratch) = demands.into_scratch();
        (
            dram.finish_into(&mut arena.pool),
            stall.map(StallModel::finish),
        )
    });

    let pe_cycles = config.array.macs() * compute.total_cycles;
    let energy = rec.span(ENERGY, op_id, |_| {
        EnergyModel::default().evaluate(
            shape.macs(),
            pe_cycles,
            compute.sram.total(),
            dram.total_accesses(),
        )
    });
    Decomposed {
        cycles: compute.total_cycles,
        sram: compute.sram,
        stalled_cycles: stall.map(|s| s.stalled_cycles.max(compute.total_cycles)),
        dram,
        energy,
    }
}

fn agrees(report: &LayerReport, replayed: &Decomposed) -> bool {
    report.total_cycles == replayed.cycles
        && report.sram == replayed.sram
        && report.dram == replayed.dram
        && report.stall.map(|s| s.stalled_cycles) == replayed.stalled_cycles
        && report.energy == replayed.energy
}

/// What one replay pass found.
pub struct PassOutcome {
    pub tally: Tally,
    pub counts: SimCounts,
    /// Op ids (`first_op_id + index`) that missed the layer cache: the ones
    /// whose facade time is a simulation and not a lookup.
    pub cold_ops: HashSet<u64>,
}

/// One serial pass over `ops` from a cold layer cache. Op `i` gets span op
/// id `first_op_id + i`.
pub fn pass(
    rec: &mut Recorder,
    ops: &[SimOp],
    first_op_id: u64,
    scratch: &mut Scratch,
) -> PassOutcome {
    layer_cache::clear();
    let mut outcome = PassOutcome {
        tally: Tally::default(),
        counts: SimCounts::default(),
        cold_ops: HashSet::new(),
    };
    let mut seen = HashSet::new();
    for (i, op) in ops.iter().enumerate() {
        let op_id = first_op_id + i as u64;
        let sim = simulator(op);
        let key = layer_cache::key(
            &sim.effective_config(&op.layer),
            op.grid,
            &EnergyModel::default(),
            &op.layer,
        );
        let cold = seen.insert(key);
        let report = rec.span(FACADE, op_id, |_| sim.run_layer(&op.layer));
        outcome.tally.attempted += 1;
        if !cold {
            continue;
        }
        outcome.cold_ops.insert(op_id);
        outcome.counts.layers += 1;
        outcome.counts.cycles += report.total_cycles;
        if op.grid.count() == 1 {
            let sram = &report.sram;
            outcome.counts.sram_reads += sram.a_reads + sram.b_reads + sram.o_reads;
            let dram = &report.dram;
            outcome.counts.dram_reads += dram.reads_a + dram.reads_b + dram.reads_o;
            let replayed = rec.span(REPLAY, op_id, |rec| {
                decompose(rec, op_id, &sim, &op.layer, scratch, &mut outcome.counts)
            });
            outcome.tally.failed += u64::from(!agrees(&report, &replayed));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::totals_by_name;
    use scalesim::{Dataflow, PartitionGrid, SimConfig};
    use scalesim_topology::ConvLayer;

    fn op(dataflow: Dataflow, bandwidth: Option<f64>, layer: Layer) -> SimOp {
        let mut config = SimConfig::builder()
            .array(scalesim::ArrayShape::new(8, 4))
            .dataflow(dataflow)
            .sram_kb(1, 1, 1)
            .build();
        config.dram_bandwidth = bandwidth;
        SimOp {
            config,
            grid: PartitionGrid::monolithic(),
            auto_dataflow: false,
            layer,
        }
    }

    #[test]
    fn the_decomposed_replay_equals_the_facade_on_every_dataflow() {
        let conv: Layer = ConvLayer::new("c", 12, 12, 3, 3, 4, 10, 1).unwrap().into();
        let mut ops = Vec::new();
        for dataflow in [
            Dataflow::OutputStationary,
            Dataflow::WeightStationary,
            Dataflow::InputStationary,
        ] {
            // More folds than one batch, tight SRAM so partial sums spill.
            ops.push(op(dataflow, None, Layer::gemm("g", 300, 70, 90)));
            ops.push(op(dataflow, Some(2.0), Layer::gemm("g", 40, 33, 21)));
            ops.push(op(dataflow, Some(8.0), conv.clone()));
        }
        let mut auto = op(
            Dataflow::OutputStationary,
            None,
            Layer::gemm("g", 64, 4, 96),
        );
        auto.auto_dataflow = true;
        ops.push(auto);
        // A repeat of the first op: served by the layer cache, not replayed.
        ops.push(ops[0].clone());
        let mut partitioned = op(
            Dataflow::OutputStationary,
            None,
            Layer::gemm("g", 50, 9, 50),
        );
        partitioned.grid = PartitionGrid::new(2, 2);
        ops.push(partitioned);

        let mut rec = Recorder::new(true);
        let outcome = pass(&mut rec, &ops, 100, &mut Scratch::default());
        assert_eq!(outcome.tally.attempted, ops.len() as u64);
        assert_eq!(outcome.tally.failed, 0);
        assert_eq!(outcome.cold_ops.len(), ops.len() - 1);
        assert!(!outcome.cold_ops.contains(&(100 + ops.len() as u64 - 2)));
        assert_eq!(outcome.counts.layers, ops.len() as u64 - 1);
        assert!(outcome.counts.folds > BATCH as u64);
        assert!(outcome.counts.demand_elements >= outcome.counts.demand_runs);
        assert!(outcome.counts.dram_reads > 0);

        let totals = totals_by_name(rec.spans());
        assert_eq!(totals[FACADE].count, ops.len() as u64);
        // Ten 1x1 cold layers were replayed; six of them have a stall model.
        assert_eq!(totals[REPLAY].count, 10);
        assert_eq!(totals[ANALYZE].count, 10);
        assert_eq!(totals[ENERGY].count, 10);
        assert!(totals[STALL].count >= 6);
        assert!(totals[FOLD_RUNS].count > 10);
        // The same pass repeats its counts exactly.
        let again = pass(&mut Recorder::new(false), &ops, 0, &mut Scratch::default());
        assert_eq!(again.counts, outcome.counts);
    }
}
