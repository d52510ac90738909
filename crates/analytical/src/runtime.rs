//! The closed-form runtime model of Section III.
//!
//! All equations give *stall-free* cycles — memory is assumed able to keep
//! the array fed (the trade-off against bandwidth is the subject of
//! Section IV-A and the DRAM model).

use scalesim_systolic::{fold_duration, ArrayShape, FoldPlan};
use scalesim_topology::MappedDims;

/// Eq. 1: runtime with unlimited MAC units, i.e. a single `S_R × S_C` fold:
/// Eq. 3 with the whole workload as the fold, identical in form for all
/// three dataflows.
///
/// ```
/// use scalesim_analytical::eq1_unlimited;
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let dims = GemmShape::new(128, 84, 1024).project(Dataflow::OutputStationary);
/// assert_eq!(eq1_unlimited(&dims), 2 * 128 + 1024 + 84 - 2);
/// ```
pub fn eq1_unlimited(dims: &MappedDims) -> u64 {
    fold_duration(dims.spatial_rows, dims.spatial_cols, dims.temporal)
}

/// Eq. 4 as printed in the paper: `(2R + C + T − 2) · ⌈S_R/R⌉ · ⌈S_C/C⌉`.
///
/// This treats every fold as full-sized; the simulator (and
/// [`exact_scaleup`]) give ragged edge folds their smaller true cost, so
/// Eq. 4 is an upper bound that coincides exactly when `R | S_R` and
/// `C | S_C`. Saturates at `u64::MAX`.
pub fn eq4_scaleup(dims: &MappedDims, array: ArrayShape) -> u64 {
    fold_duration(array.rows(), array.cols(), dims.temporal)
        .saturating_mul(FoldPlan::new(dims, array).fold_count())
}

/// The exact stall-free scale-up runtime: the sum of Eq. 3 over the real
/// fold schedule (partial edge folds cost less). This is what the
/// cycle-accurate engine reports ([`scalesim_systolic::analyze`] reads
/// the same [`FoldPlan::total_cycles`]), so searches built on it agree
/// with simulation. Every search of this crate prices a configuration
/// with it. Saturates at `u64::MAX`.
pub fn exact_scaleup(dims: &MappedDims, array: ArrayShape) -> u64 {
    FoldPlan::new(dims, array).total_cycles()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::{Dataflow, GemmShape};

    fn dims(m: u64, k: u64, n: u64) -> MappedDims {
        GemmShape::new(m, k, n).project(Dataflow::OutputStationary)
    }

    #[test]
    fn eq1_is_dataflow_invariant_in_form() {
        // 2·S_R + S_C + T − 2 of (10, 30, 20), (20, 30, 10), (20, 10, 30).
        let shape = GemmShape::new(10, 20, 30);
        let cycles = Dataflow::ALL.map(|df| eq1_unlimited(&shape.project(df)));
        assert_eq!(cycles, [68, 78, 78]);
    }

    #[test]
    fn eq4_equals_exact_when_divisible() {
        let d = dims(64, 9, 48);
        let array = ArrayShape::new(16, 16);
        assert_eq!(eq4_scaleup(&d, array), exact_scaleup(&d, array));
    }

    #[test]
    fn eq4_upper_bounds_exact_on_ragged_workloads() {
        let d = dims(65, 9, 49);
        let array = ArrayShape::new(16, 16);
        assert!(eq4_scaleup(&d, array) > exact_scaleup(&d, array));
    }

    #[test]
    fn eq1_equals_exact_on_oversized_array() {
        let d = dims(5, 7, 6);
        // The array is larger than the workload: one partial fold whose
        // duration uses the *used* extents, i.e. Eq. 1.
        assert_eq!(exact_scaleup(&d, ArrayShape::square(64)), eq1_unlimited(&d));
    }
}
