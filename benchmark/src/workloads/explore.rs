//! `explore_gemm_100k`: one cold `ExploreEngine::run` per pass over a
//! 100,400-candidate plan (251 seeded GEMMs x 4 MAC budgets x every aspect
//! ratio x OS/WS/IS/auto), keeping candidates within 10 % of the analytical
//! frontier and simulating at most 2048 survivors.
//!
//! Chosen because it is the paper's methodology as one call and the
//! opposite regime from the other two simulator workloads: thousands of
//! sub-millisecond simulations, so per-point overhead in `core` (plan
//! expansion, job keys, executor hand-off, layer-cache reuse between `auto`
//! and the fixed dataflows) dominates and the kernels do little. The
//! `analytical` stages are a few per cent and act as a sentinel.

use scalesim::sweep::{AspectAxis, SweepWorkload};
use scalesim::{
    layer_cache, Dataflow, DataflowChoice, ExploreBudget, ExploreEngine, ExploreOptions,
    ExploreOutcome, SweepPlan,
};
use scalesim_topology::{Layer, Topology};

use super::{Scale, SimOp, Tally, Verified, Workload, TRACED_OPS};
use crate::rng::Rng;

/// Result-cache capacity of the per-pass engine (see `fig9::ENGINE_CACHE`;
/// here 2048 results spread over sixteen shards).
const ENGINE_CACHE: usize = 1 << 16;

/// What a simulated survivor must reproduce on every pass.
type PointDigest = (usize, u64, u64);

pub struct Explore {
    plan: SweepPlan,
    options: ExploreOptions,
    first_csv: Vec<u8>,
    reference: Vec<PointDigest>,
    /// The survivors the warm-up pass simulated, for the traced replay.
    measured: Vec<SimOp>,
}

/// The candidate space: the shape of `stage0_plan` in
/// `crates/bench/benches/sweep_engine.rs`, with every GEMM's dimensions
/// drawn from the seed out of that plan's ranges.
pub fn plan(seed: u64, scale: Scale) -> SweepPlan {
    let mut rng = Rng::stream(seed, "explore.gemms");
    let mut plan = SweepPlan::new("explore-gemm-100k");
    plan.base.dram_bandwidth = Some(16.0);
    let workloads = match scale {
        Scale::Full => 251,
        Scale::Tiny => 3,
    };
    for i in 0..workloads {
        let m = 150 + rng.below(50) * 4;
        let n = 150 + rng.below(50) * 4;
        let k = 8 + rng.below(7) * 4;
        let label = format!("G{i:03}");
        plan.workloads.push(SweepWorkload {
            topology: Topology::from_layers(&label, vec![Layer::gemm("l0", m, k, n)]),
            label,
        });
    }
    plan.budgets = match scale {
        Scale::Full => vec![1 << 10, 1 << 11, 1 << 12, 1 << 13],
        Scale::Tiny => vec![1 << 8],
    };
    plan.aspects = AspectAxis::All;
    plan.dataflows = vec![
        DataflowChoice::Fixed(Dataflow::OutputStationary),
        DataflowChoice::Fixed(Dataflow::WeightStationary),
        DataflowChoice::Fixed(Dataflow::InputStationary),
        DataflowChoice::Auto,
    ];
    plan
}

pub fn options(jobs: usize) -> ExploreOptions {
    ExploreOptions {
        keep_within_pct: 10.0,
        budget: ExploreBudget::Sims(2048),
        jobs,
        progress: false,
    }
}

/// One cold exploration: nothing cached anywhere.
pub fn cold_explore(plan: &SweepPlan, options: &ExploreOptions) -> ExploreOutcome {
    layer_cache::clear();
    ExploreEngine::new(ENGINE_CACHE)
        .run(plan, options)
        .expect("the exploration runs")
}

fn csv(outcome: &ExploreOutcome) -> Vec<u8> {
    let mut text = Vec::new();
    outcome
        .write_csv(&mut text)
        .expect("writing to memory cannot fail");
    text
}

fn digests(outcome: &ExploreOutcome) -> Vec<PointDigest> {
    outcome
        .measured
        .iter()
        .map(|p| (p.spec.index, p.measured(), p.report.total_dram_bytes()))
        .collect()
}

impl Workload for Explore {
    const NAME: &'static str = "explore_gemm_100k";
    const OP: &'static str = "simulated survivor";

    fn setup(seed: u64, jobs: usize, scale: Scale) -> Explore {
        let plan = plan(seed, scale);
        let options = options(jobs);
        let outcome = cold_explore(&plan, &options);
        let measured = outcome
            .measured
            .iter()
            .take(TRACED_OPS)
            .map(|point| {
                let workload = plan
                    .workloads
                    .iter()
                    .find(|w| w.label == point.spec.workload)
                    .expect("a measured point names a workload of the plan");
                SimOp {
                    config: point.spec.config(&plan.base),
                    grid: point.spec.grid,
                    auto_dataflow: point.spec.dataflow == DataflowChoice::Auto,
                    layer: workload.topology.layers()[0].clone(),
                }
            })
            .collect();
        Explore {
            first_csv: csv(&outcome),
            reference: digests(&outcome),
            measured,
            plan,
            options,
        }
    }

    fn pass(&mut self, _latencies_ms: &mut Vec<f64>) -> Tally {
        let outcome = cold_explore(&self.plan, &self.options);
        let got = digests(&outcome);
        let failed = if got.len() == self.reference.len() {
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
        let serial = cold_explore(&self.plan, &options(1));
        let points = serial.measured.len() as u64;
        let mut tally = Tally::all_or_nothing(points, csv(&serial) == self.first_csv);
        tally.add(Tally {
            attempted: points,
            failed: serial
                .measured
                .iter()
                .filter(|p| p.predicted > p.measured())
                .count() as u64,
        });
        Verified {
            tally,
            output: String::from_utf8_lossy(&self.first_csv).into_owned(),
        }
    }

    fn sim_ops(&self) -> Vec<SimOp> {
        self.measured.clone()
    }
}
