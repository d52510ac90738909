//! `spill_ws_is_cold`: every layer of ResNet-50 and AlexNet plus one seeded
//! tall GEMM, serially through `Simulator::run_layer` under the weight- and
//! the input-stationary dataflow with 64/64/32 KB of SRAM.
//!
//! Chosen because these dataflows fold the contraction, so partial sums
//! spill: `DramModel::fold_runs` then does write-allocate and spill
//! read-back, not just reads, and `memory` is nearly all of a layer's host
//! time. The grid is 1x1 and the calls are serial, so neither the executor
//! nor partition threads take part: a gain for the output-stationary path
//! that costs this one shows here and nowhere else.

use scalesim::{layer_cache, Dataflow, LayerReport, PartitionGrid, SimConfig, Simulator};
use scalesim_topology::{networks, Layer};

use super::{bound_holds, Scale, SimOp, Tally, Verified, Workload};
use crate::rng::Rng;

/// The seeded GEMM is `M x 84 x 1024` (the shape family of Table IV's TF0)
/// with `M` drawn from this range. The range is narrow on purpose: host
/// time grows faster than linearly in `M` once the output spills, and runs
/// of different seeds must cost the same within the metrics' bounds.
const GEMM_M: (u64, u64) = (3900, 4100);

struct Op {
    network: &'static str,
    sim: SimOp,
}

pub struct Spill {
    ops: Vec<Op>,
    /// Reports of the warm-up pass: the workload's output and the
    /// reference every timed pass must reproduce.
    first: Vec<LayerReport>,
}

fn config(dataflow: Dataflow) -> SimConfig {
    SimConfig::builder()
        .dataflow(dataflow)
        .sram_kb(64, 64, 32)
        .build()
}

/// The layers of one pass, before the dataflow is chosen.
pub fn layers(seed: u64, scale: Scale) -> Vec<(&'static str, Layer)> {
    let mut rng = Rng::stream(seed, "spill.gemm");
    match scale {
        Scale::Full => {
            let m = rng.range(GEMM_M.0, GEMM_M.1);
            let resnet = networks::resnet50();
            let alexnet = networks::alexnet();
            resnet
                .iter()
                .map(|l| ("resnet50", l.clone()))
                .chain(alexnet.iter().map(|l| ("alexnet", l.clone())))
                .chain([("gemm", Layer::gemm("seeded", m, 84, 1024))])
                .collect()
        }
        Scale::Tiny => vec![
            ("gemm", Layer::gemm("seeded", rng.range(90, 110), 84, 64)),
            ("gemm", Layer::gemm("fixed", 40, 200, 48)),
        ],
    }
}

fn run(op: &Op) -> LayerReport {
    Simulator::new(op.sim.config).run_layer(&op.sim.layer)
}

impl Workload for Spill {
    const NAME: &'static str = "spill_ws_is_cold";
    const OP: &'static str = "layer";

    fn threads(_jobs: usize) -> usize {
        1
    }

    fn setup(seed: u64, _jobs: usize, scale: Scale) -> Spill {
        let layers = layers(seed, scale);
        let ops: Vec<Op> = [Dataflow::WeightStationary, Dataflow::InputStationary]
            .into_iter()
            .flat_map(|dataflow| {
                layers.iter().map(move |(network, layer)| Op {
                    network,
                    sim: SimOp {
                        config: config(dataflow),
                        grid: PartitionGrid::monolithic(),
                        auto_dataflow: false,
                        layer: layer.clone(),
                    },
                })
            })
            .collect();
        layer_cache::clear();
        let first = ops.iter().map(run).collect();
        Spill { ops, first }
    }

    fn pass(&mut self, _latencies_ms: &mut Vec<f64>) -> Tally {
        // Cleared once per pass, not per layer: shapes that a network
        // repeats hit the layer cache, as they do in one CLI run.
        layer_cache::clear();
        let mut failed = 0;
        for (op, reference) in self.ops.iter().zip(&self.first) {
            failed += u64::from(&run(op) != reference);
        }
        Tally {
            attempted: self.ops.len() as u64,
            failed,
        }
    }

    fn verify(&mut self) -> Verified {
        let mut output = String::from(
            "network,layer,dataflow,cycles,dram_reads_a,dram_reads_b,dram_reads_o,dram_writes_o\n",
        );
        let mut failed = 0;
        for (op, report) in self.ops.iter().zip(&self.first) {
            failed += u64::from(!bound_holds(&op.sim, report.effective_cycles()));
            let dram = &report.dram;
            output.push_str(&format!(
                "{},{},{},{},{},{},{},{}\n",
                op.network,
                report.name,
                op.sim.config.dataflow,
                report.total_cycles,
                dram.reads_a,
                dram.reads_b,
                dram.reads_o,
                dram.writes_o,
            ));
        }
        Verified {
            tally: Tally {
                attempted: self.ops.len() as u64,
                failed,
            },
            output,
        }
    }

    fn sim_ops(&self) -> Vec<SimOp> {
        self.ops.iter().map(|op| op.sim.clone()).collect()
    }
}
