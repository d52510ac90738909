//! `fig9_os_cold`: the paper's Fig. 9 aspect-ratio study as one cold
//! `SweepEngine::run` per pass.
//!
//! Chosen because it is the paper's headline study and the repo's existing
//! yardstick: 43 output-stationary points on 1 to 64 partitions with the
//! paper's SRAM sizes, so nothing spills. Demand generation in `systolic`
//! does most of the work, the spill path of `memory` none, and the
//! executor and the per-layer partition threads are on the clock.

use scalesim::sweep::{AspectAxis, CsvSink, SweepOutcome, SweepSink, SweepWorkload};
use scalesim::{layer_cache, predict_cycles, Dataflow, DataflowChoice, SweepEngine, SweepPlan};
use scalesim_topology::{Layer, Topology};

use super::{Scale, SimOp, Tally, Verified, Workload};
use crate::sys;

/// Result-cache capacity of the per-pass engine: sixteen LRU shards with
/// room for every point in each, so no pass ever evicts.
const ENGINE_CACHE: usize = 1024;

/// What a point must reproduce on every pass.
type PointDigest = (u64, u64);

pub struct Fig9 {
    plan: SweepPlan,
    jobs: usize,
    /// CSV of the warm-up pass at `jobs` workers: the workload's output.
    first_csv: Vec<u8>,
    reference: Vec<PointDigest>,
}

/// The plan file every Fig. 9 measurement in this repo uses.
pub fn plan_path() -> std::path::PathBuf {
    sys::repo_root().join("examples").join("fig9_tf0.plan")
}

pub fn load_plan() -> SweepPlan {
    let path = plan_path();
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    SweepPlan::parse_named(&text, "fig9_tf0.plan").expect("the Fig. 9 plan parses")
}

fn tiny_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("fig9-tiny");
    plan.workloads.push(SweepWorkload {
        label: "G".into(),
        topology: Topology::from_layers("G", vec![Layer::gemm("G", 96, 24, 80)]),
    });
    plan.budgets = vec![1 << 8];
    plan.aspects = AspectAxis::All;
    plan.dataflows = vec![DataflowChoice::Fixed(Dataflow::OutputStationary)];
    plan
}

/// One cold sweep: nothing cached anywhere, as for a fresh CLI process.
pub fn cold_sweep(plan: &SweepPlan, jobs: usize, sink: &mut dyn SweepSink) -> SweepOutcome {
    layer_cache::clear();
    SweepEngine::new(ENGINE_CACHE)
        .run_streaming(plan, jobs, sink)
        .expect("the sweep runs")
}

fn digests(outcome: &SweepOutcome) -> Vec<PointDigest> {
    outcome
        .results
        .iter()
        .map(|r| {
            (
                r.report.total_effective_cycles(),
                r.report.total_dram_bytes(),
            )
        })
        .collect()
}

impl Workload for Fig9 {
    const NAME: &'static str = "fig9_os_cold";
    const OP: &'static str = "design point";

    fn setup(_seed: u64, jobs: usize, scale: Scale) -> Fig9 {
        // The study is the paper's, so the seed has nothing to vary.
        let plan = match scale {
            Scale::Full => load_plan(),
            Scale::Tiny => tiny_plan(),
        };
        let mut sink = CsvSink::new(Vec::new());
        let outcome = cold_sweep(&plan, jobs, &mut sink);
        Fig9 {
            plan,
            jobs,
            first_csv: sink.into_inner(),
            reference: digests(&outcome),
        }
    }

    fn pass(&mut self, _latencies_ms: &mut Vec<f64>) -> Tally {
        layer_cache::clear();
        let outcome = SweepEngine::new(ENGINE_CACHE)
            .run(&self.plan, self.jobs)
            .expect("the sweep runs");
        let got = digests(&outcome);
        let cold = outcome.simulations as usize == self.reference.len();
        let failed = if got.len() == self.reference.len() && cold {
            got.iter()
                .zip(&self.reference)
                .filter(|(a, b)| a != b)
                .count()
        } else {
            self.reference.len()
        };
        Tally {
            attempted: self.reference.len() as u64,
            failed: failed as u64,
        }
    }

    fn verify(&mut self) -> Verified {
        let mut serial = CsvSink::new(Vec::new());
        let outcome = cold_sweep(&self.plan, 1, &mut serial);
        let points = outcome.results.len() as u64;
        let mut tally = Tally::all_or_nothing(points, serial.into_inner() == self.first_csv);
        let topology = &self.plan.workloads[0].topology;
        let broken_bounds = outcome
            .results
            .iter()
            .filter(|r| {
                let spec = &r.spec;
                predict_cycles(topology, spec.array, spec.grid, spec.dataflow)
                    > r.report.total_effective_cycles()
            })
            .count() as u64;
        tally.add(Tally {
            attempted: points,
            failed: broken_bounds,
        });
        Verified {
            tally,
            output: String::from_utf8_lossy(&self.first_csv).into_owned(),
        }
    }

    fn sim_ops(&self) -> Vec<SimOp> {
        let points = self.plan.expand().expect("the plan expands");
        points
            .iter()
            .flat_map(|spec| {
                self.plan.workloads[0].topology.iter().map(|layer| SimOp {
                    config: spec.config(&self.plan.base),
                    grid: spec.grid,
                    auto_dataflow: spec.dataflow == DataflowChoice::Auto,
                    layer: layer.clone(),
                })
            })
            .collect()
    }
}
