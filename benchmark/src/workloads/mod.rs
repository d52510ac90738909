//! The four workloads. Each one is a fixed traversal (a *pass*) of an input
//! list made from the seed; what one *op* is differs per workload.

use scalesim::{PartitionGrid, SimConfig};
use scalesim_topology::Layer;

pub mod explore;
pub mod fig9;
pub mod serve;
pub mod spill;

/// Input size: the measured size, or a few inputs for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

/// Operations attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `attempted` ops of which every one failed iff `ok` is false: a
    /// mismatch that cannot be pinned on one op fails all it covers.
    pub fn all_or_nothing(attempted: u64, ok: bool) -> Tally {
        Tally {
            attempted,
            failed: if ok { 0 } else { attempted },
        }
    }
}

/// One layer simulation of a pass, as the traced replay re-runs it.
#[derive(Debug, Clone)]
pub struct SimOp {
    pub config: SimConfig,
    pub grid: PartitionGrid,
    pub auto_dataflow: bool,
    pub layer: Layer,
}

/// The outcome of a workload's output checks.
#[derive(Debug, Clone)]
pub struct Verified {
    pub tally: Tally,
    /// The workload's output in canonical text form: compared with
    /// `expected/<name>.txt` for seed 1, and hashed into the
    /// simulated-statistics digest for every seed.
    pub output: String,
}

pub trait Workload: Sized {
    const NAME: &'static str;
    /// What one op is, for the printed report.
    const OP: &'static str;

    /// Threads a pass keeps busy when `jobs` is `W`; the host-speed
    /// calibration loads as many.
    fn threads(jobs: usize) -> usize {
        jobs
    }

    /// Everything before the first timed op: input generation, parsing,
    /// engine or server construction, and one untimed warm-up pass (it
    /// fills thread-local arenas and lazy statics). `jobs` is `W`.
    fn setup(seed: u64, jobs: usize, scale: Scale) -> Self;

    /// One timed pass, every op of it checked against the warm-up pass. A
    /// workload that serves requests pushes each one's latency onto
    /// `latencies_ms`; for the others the pass is one call into the library
    /// and the caller times it as the single request.
    fn pass(&mut self, latencies_ms: &mut Vec<f64>) -> Tally;

    /// The untimed output gate: byte-identity at jobs 1 vs jobs `W`, and
    /// the analytical bound below the simulated cycles.
    fn verify(&mut self) -> Verified;

    /// The layer simulations of one pass in order, at most
    /// [`TRACED_OPS`] of them, for the serial traced replay.
    fn sim_ops(&self) -> Vec<SimOp>;
}

/// Cap on the layer simulations one traced pass replays, so that a traced
/// run stays near a minute; workloads with more ops replay their first ones.
pub const TRACED_OPS: usize = 512;

/// True when the closed-form runtime of `op` does not exceed `effective`
/// simulated cycles (stalls only ever add cycles to the bound).
pub fn bound_holds(op: &SimOp, effective: u64) -> bool {
    let topology = scalesim_topology::Topology::from_layers("bound", vec![op.layer.clone()]);
    let dataflow = if op.auto_dataflow {
        scalesim::DataflowChoice::Auto
    } else {
        scalesim::DataflowChoice::Fixed(op.config.dataflow)
    };
    scalesim::predict_cycles(&topology, op.config.array, op.grid, dataflow) <= effective
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay;
    use crate::trace::Recorder;

    /// One pass of a workload at its tiny size, then its output gate and a
    /// recorded replay of its layer simulations.
    fn one_tiny_pass<W: Workload>() {
        let mut workload = W::setup(3, 2, Scale::Tiny);
        let mut latencies_ms = Vec::new();
        let pass = workload.pass(&mut latencies_ms);
        assert!(pass.attempted > 0, "{}", W::NAME);
        assert_eq!(pass.failed, 0, "{}", W::NAME);
        let verified = workload.verify();
        assert!(verified.tally.attempted > 0, "{}", W::NAME);
        assert_eq!(verified.tally.failed, 0, "{}", W::NAME);
        assert!(!verified.output.is_empty(), "{}", W::NAME);
        let ops = workload.sim_ops();
        assert!(!ops.is_empty() && ops.len() <= TRACED_OPS, "{}", W::NAME);
        let mut rec = Recorder::new(true);
        let replayed = replay::pass(&mut rec, &ops, 0, &mut replay::Scratch::default());
        assert_eq!(replayed.tally.attempted, ops.len() as u64, "{}", W::NAME);
        assert_eq!(replayed.tally.failed, 0, "{}", W::NAME);
        assert!(replayed.counts.demand_runs > 0, "{}", W::NAME);
    }

    // The workloads clear the process-wide layer cache, and a cold pass
    // checks that it simulated every point; run them one after another.
    #[test]
    fn every_workload_runs_one_tiny_pass_clean() {
        one_tiny_pass::<fig9::Fig9>();
        one_tiny_pass::<spill::Spill>();
        one_tiny_pass::<explore::Explore>();
        one_tiny_pass::<serve::Serve>();
    }

    #[test]
    fn the_same_seed_gives_the_same_gemm_lists() {
        for scale in [Scale::Tiny, Scale::Full] {
            assert_eq!(spill::layers(4, scale), spill::layers(4, scale));
            assert_ne!(spill::layers(4, scale), spill::layers(5, scale));
            assert_eq!(explore::plan(4, scale), explore::plan(4, scale));
            assert_ne!(explore::plan(4, scale), explore::plan(5, scale));
        }
        assert_eq!(
            explore::plan(4, Scale::Full).points().unwrap().len(),
            100_400
        );
    }
}
