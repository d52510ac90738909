//! Dataflow selection.
//!
//! Section III-B of the paper: "for a given workload and array
//! configuration, choice of dataflow assigns the values for `S_R`, `S_C`
//! and `T` respectively, which could be selected to minimize τ". This
//! module performs that selection: rank the three projections of a GEMM by
//! their exact stall-free runtime on a concrete array.

use scalesim_systolic::ArrayShape;
use scalesim_topology::{Dataflow, GemmShape};

use crate::runtime::exact_scaleup;

/// One dataflow's score on a workload/array pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataflowScore {
    /// The dataflow evaluated.
    pub dataflow: Dataflow,
    /// Exact stall-free runtime of its projection.
    pub cycles: u64,
}

/// Evaluates all three dataflows of `shape` on `array`, sorted
/// fastest-first (ties broken in `Dataflow::ALL` order).
///
/// ```
/// use scalesim_analytical::{rank_dataflows, ArrayShape};
/// use scalesim_topology::GemmShape;
///
/// // A "fat contraction" GEMM: k is huge, m and n tiny — OS keeps the
/// // whole (small) output resident and unrolls k in time.
/// let shape = GemmShape::new(16, 10_000, 16);
/// let ranked = rank_dataflows(shape, ArrayShape::square(16));
/// assert_eq!(ranked[0].dataflow, scalesim_topology::Dataflow::OutputStationary);
/// ```
pub fn rank_dataflows(shape: GemmShape, array: ArrayShape) -> [DataflowScore; 3] {
    let mut scores = Dataflow::ALL.map(|dataflow| DataflowScore {
        dataflow,
        cycles: exact_scaleup(&shape.project(dataflow), array),
    });
    scores.sort_by_key(|s| s.cycles);
    scores
}

/// The fastest dataflow for `shape` on `array`.
pub fn best_dataflow(shape: GemmShape, array: ArrayShape) -> DataflowScore {
    rank_dataflows(shape, array)[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_is_sorted_and_covers_all_three() {
        let ranked = rank_dataflows(GemmShape::new(100, 50, 80), ArrayShape::new(16, 16));
        assert!(ranked.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        let mut dfs: Vec<Dataflow> = ranked.iter().map(|s| s.dataflow).collect();
        dfs.sort();
        dfs.dedup();
        assert_eq!(dfs.len(), 3);
    }

    #[test]
    fn fat_contraction_prefers_output_stationary() {
        // k >> m, n: OS folds 1x1 spatially and streams k in time; WS/IS
        // would fold the giant k dimension across the array repeatedly.
        let best = best_dataflow(GemmShape::new(8, 100_000, 8), ArrayShape::square(8));
        assert_eq!(best.dataflow, Dataflow::OutputStationary);
    }

    #[test]
    fn huge_output_prefers_a_stationary_operand() {
        // m, n >> k (NCF0-like outer products): OS would fold the output
        // plane forever; WS/IS keep the small contraction resident.
        let best = best_dataflow(GemmShape::new(5_000, 8, 5_000), ArrayShape::square(8));
        assert_ne!(best.dataflow, Dataflow::OutputStationary);
    }

    #[test]
    fn best_matches_head_of_ranking() {
        let shape = GemmShape::new(31999, 84, 1024);
        let array = ArrayShape::new(64, 16);
        assert_eq!(best_dataflow(shape, array), rank_dataflows(shape, array)[0]);
    }
}
