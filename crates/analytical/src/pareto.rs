//! Multi-workload optimization (Section IV-B).
//!
//! A real accelerator must serve many layers. The paper's method: take the
//! runtime-optimal configuration of each individual workload as a
//! *candidate*, evaluate every candidate on every workload (runtime is
//! additive), and pick the global optimum
//! `A = argmin_{a_k} Σ_{w_l} T_r(w_l, a_k)`. Because the candidate set is
//! small, exhaustive search is exact. Figs. 13–14 plot how much the
//! runners-up lose versus this optimum.

use scalesim_topology::MappedDims;

/// A candidate configuration scored across a workload set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateScore<C> {
    /// The configuration evaluated.
    pub config: C,
    /// Per-workload runtimes, in input order.
    pub per_workload: Vec<u64>,
    /// Total runtime across the workload set (the additive cost).
    pub total_cycles: u64,
}

impl<C> CandidateScore<C> {
    /// Relative loss versus a reference total (e.g. the pareto optimum):
    /// `total / reference`. The y-axis of Figs. 13–14.
    pub fn loss_versus(&self, reference_total: u64) -> f64 {
        self.total_cycles as f64 / reference_total as f64
    }
}

/// The result of a multi-workload search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParetoOutcome<C> {
    /// Candidates sorted by total runtime, best first.
    pub ranked: Vec<CandidateScore<C>>,
}

impl<C> ParetoOutcome<C> {
    /// The globally optimal candidate.
    pub fn best(&self) -> &CandidateScore<C> {
        &self.ranked[0]
    }

    /// Loss ratios of every candidate versus the optimum, best first
    /// (first entry is 1.0).
    pub fn losses(&self) -> Vec<f64> {
        let best = self.best().total_cycles;
        self.ranked.iter().map(|c| c.loss_versus(best)).collect()
    }
}

/// Scores `candidates` over `workloads` with the given cost function and
/// returns them ranked by total runtime.
///
/// The cost function usually wraps the analytical model
/// ([`crate::exact_scaleup`] / [`crate::scaleout_runtime`]) but can equally
/// wrap the full simulator, exactly as the paper allows.
///
/// # Panics
///
/// Panics if `candidates` is empty (an optimum must exist).
///
/// ```
/// use scalesim_analytical::{pareto_optimal, ArrayShape, exact_scaleup};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let workloads: Vec<_> = [(128u64, 64u64, 256u64), (4096, 32, 64)]
///     .iter()
///     .map(|&(m, k, n)| GemmShape::new(m, k, n).project(Dataflow::OutputStationary))
///     .collect();
/// let candidates = [ArrayShape::new(64, 16), ArrayShape::new(16, 64)];
/// let outcome = pareto_optimal(&workloads, &candidates, |w, a| exact_scaleup(w, *a));
/// assert_eq!(outcome.losses()[0], 1.0);
/// ```
pub fn pareto_optimal<C: Clone>(
    workloads: &[MappedDims],
    candidates: &[C],
    cost: impl Fn(&MappedDims, &C) -> u64,
) -> ParetoOutcome<C> {
    assert!(!candidates.is_empty(), "candidate set must be nonempty");
    let mut ranked: Vec<CandidateScore<C>> = candidates
        .iter()
        .map(|config| {
            let per_workload: Vec<u64> = workloads.iter().map(|w| cost(w, config)).collect();
            let total_cycles = per_workload.iter().sum();
            CandidateScore {
                config: config.clone(),
                per_workload,
                total_cycles,
            }
        })
        .collect();
    ranked.sort_by_key(|c| c.total_cycles);
    ParetoOutcome { ranked }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{best_scaleout, scaleout_runtime, ScaleOutConfig};
    use crate::runtime::exact_scaleup;
    use crate::search::best_scaleup;
    use scalesim_systolic::ArrayShape;
    use scalesim_topology::{Dataflow, GemmShape};

    fn workloads() -> Vec<MappedDims> {
        [
            (31999u64, 84u64, 1024u64),
            (128, 4096, 2048),
            (84, 4096, 1024),
        ]
        .iter()
        .map(|&(m, k, n)| GemmShape::new(m, k, n).project(Dataflow::OutputStationary))
        .collect()
    }

    #[test]
    fn best_candidate_minimizes_total() {
        let ws = workloads();
        let candidates = [
            ArrayShape::new(128, 8),
            ArrayShape::new(32, 32),
            ArrayShape::new(8, 128),
        ];
        let outcome = pareto_optimal(&ws, &candidates, |w, a| exact_scaleup(w, *a));
        for c in &outcome.ranked[1..] {
            assert!(c.total_cycles >= outcome.best().total_cycles);
        }
        assert_eq!(outcome.ranked.len(), 3);
        assert_eq!(outcome.best().per_workload.len(), ws.len());
    }

    #[test]
    fn losses_start_at_one_and_grow() {
        let ws = workloads();
        let candidates = [ArrayShape::new(128, 8), ArrayShape::new(8, 128)];
        let outcome = pareto_optimal(&ws, &candidates, |w, a| exact_scaleup(w, *a));
        let losses = outcome.losses();
        assert_eq!(losses[0], 1.0);
        assert!(losses.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn per_layer_candidates_method_of_the_paper_scaleup() {
        // The paper's recipe: candidates = each workload's locally optimal
        // config; the pareto optimum is one of them.
        let ws = workloads();
        let candidates: Vec<ArrayShape> = ws
            .iter()
            .map(|w| best_scaleup(w, 1 << 12, 8).array)
            .collect();
        let outcome = pareto_optimal(&ws, &candidates, |w, a| exact_scaleup(w, *a));
        // The optimum must be at least as good on total as every individual
        // local optimum evaluated globally.
        assert!(outcome.losses().iter().all(|&l| l >= 1.0));
    }

    #[test]
    fn works_with_scaleout_configs_too() {
        let ws = workloads();
        let candidates: Vec<ScaleOutConfig> =
            ws.iter().map(|w| best_scaleout(w, 1 << 12, 8).0).collect();
        let outcome = pareto_optimal(&ws, &candidates, scaleout_runtime);
        assert_eq!(outcome.ranked.len(), ws.len());
        assert_eq!(outcome.losses()[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_candidates_panic() {
        let ws = workloads();
        let _ = pareto_optimal::<ArrayShape>(&ws, &[], |_, _| 0);
    }
}
