//! Dataflow selection.
//!
//! Section III-B of the paper: "for a given workload and array
//! configuration, choice of dataflow assigns the values for `S_R`, `S_C`
//! and `T` respectively, which could be selected to minimize τ". This
//! module performs that selection: the projection of a GEMM with the least
//! exact stall-free runtime on a concrete array.

use scalesim_systolic::ArrayShape;
use scalesim_topology::{Dataflow, GemmShape};

use crate::runtime::exact_scaleup;

/// The fastest dataflow for `shape` on `array` (ties broken in
/// `Dataflow::ALL` order).
///
/// ```
/// use scalesim_analytical::{best_dataflow, ArrayShape};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// // A "fat contraction" GEMM: k is huge, m and n tiny — OS keeps the
/// // whole (small) output resident and unrolls k in time.
/// let shape = GemmShape::new(16, 10_000, 16);
/// assert_eq!(best_dataflow(shape, ArrayShape::square(16)), Dataflow::OutputStationary);
/// ```
pub fn best_dataflow(shape: GemmShape, array: ArrayShape) -> Dataflow {
    Dataflow::ALL
        .into_iter()
        .min_by_key(|&dataflow| exact_scaleup(&shape.project(dataflow), array))
        .expect("there are three dataflows")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_contraction_prefers_output_stationary() {
        // k >> m, n: OS folds 1x1 spatially and streams k in time; WS/IS
        // would fold the giant k dimension across the array repeatedly.
        let best = best_dataflow(GemmShape::new(8, 100_000, 8), ArrayShape::square(8));
        assert_eq!(best, Dataflow::OutputStationary);
    }

    #[test]
    fn huge_output_prefers_a_stationary_operand() {
        // m, n >> k (NCF0-like outer products): OS would fold the output
        // plane forever; WS/IS keep the small contraction resident.
        let best = best_dataflow(GemmShape::new(5_000, 8, 5_000), ArrayShape::square(8));
        assert_ne!(best, Dataflow::OutputStationary);
    }

    #[test]
    fn ties_go_to_the_first_dataflow() {
        // A square GEMM on a square array: all three projections are the
        // same fold schedule.
        let shape = GemmShape::new(16, 16, 16);
        let array = ArrayShape::square(8);
        let cycles = Dataflow::ALL.map(|df| exact_scaleup(&shape.project(df), array));
        assert!(cycles.iter().all(|&c| c == cycles[0]), "{cycles:?}");
        assert_eq!(best_dataflow(shape, array), Dataflow::ALL[0]);
    }
}
