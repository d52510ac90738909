//! The closed-form runtime model of Section III.
//!
//! All equations give *stall-free* cycles — memory is assumed able to keep
//! the array fed (the trade-off against bandwidth is the subject of
//! Section IV-A and the DRAM model).

use scalesim_systolic::{ArrayShape, FoldPlan};
use scalesim_topology::MappedDims;

/// Eq. 1: runtime with unlimited MAC units, i.e. a single `S_R × S_C` fold:
/// `τ = 2·S_R + S_C + T − 2`, identical for all three dataflows.
///
/// ```
/// use scalesim_analytical::eq1_unlimited;
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let dims = GemmShape::new(128, 84, 1024).project(Dataflow::OutputStationary);
/// assert_eq!(eq1_unlimited(&dims), 2 * 128 + 1024 + 84 - 2);
/// ```
pub fn eq1_unlimited(dims: &MappedDims) -> u64 {
    2 * dims.spatial_rows + dims.spatial_cols + dims.temporal - 2
}

/// Eq. 4 as printed in the paper: `(2R + C + T − 2) · ⌈S_R/R⌉ · ⌈S_C/C⌉`.
///
/// This treats every fold as full-sized; the simulator (and
/// [`exact_scaleup`]) give ragged edge folds their smaller true cost, so
/// Eq. 4 is an upper bound that coincides exactly when `R | S_R` and
/// `C | S_C`.
pub fn eq4_scaleup(dims: &MappedDims, array: ArrayShape) -> u64 {
    let folds = dims.spatial_rows.div_ceil(array.rows()) * dims.spatial_cols.div_ceil(array.cols());
    (2 * array.rows() + array.cols() + dims.temporal - 2) * folds
}

/// The exact stall-free scale-up runtime: the sum of Eq. 3 over the real
/// fold schedule (partial edge folds cost less). This is what the
/// cycle-accurate engine reports ([`scalesim_systolic::analyze`] reads
/// the same [`FoldPlan::total_cycles`]), so searches built on it agree
/// with simulation. Saturates at `u64::MAX`.
pub fn exact_scaleup(dims: &MappedDims, array: ArrayShape) -> u64 {
    FoldPlan::new(dims, array).total_cycles()
}

/// A runtime cost oracle: something that can price a workload on an array.
///
/// The paper's methodology (Sec. IV-B) works with either the analytical
/// model or full SCALE-Sim as the cost function; this trait is that
/// seam. The pareto optimizer and the searches are generic over it.
pub trait RuntimeModel {
    /// Stall-free cycles for `dims` on `array`.
    fn runtime(&self, dims: &MappedDims, array: ArrayShape) -> u64;
}

/// The analytical cost model (Sec. III): exact fold-schedule runtime.
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticalModel;

impl RuntimeModel for AnalyticalModel {
    fn runtime(&self, dims: &MappedDims, array: ArrayShape) -> u64 {
        exact_scaleup(dims, array)
    }
}

impl<F> RuntimeModel for F
where
    F: Fn(&MappedDims, ArrayShape) -> u64,
{
    fn runtime(&self, dims: &MappedDims, array: ArrayShape) -> u64 {
        self(dims, array)
    }
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
        let shape = GemmShape::new(10, 20, 30);
        for df in Dataflow::ALL {
            let d = shape.project(df);
            assert_eq!(
                eq1_unlimited(&d),
                2 * d.spatial_rows + d.spatial_cols + d.temporal - 2
            );
        }
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

    #[test]
    fn closures_are_runtime_models() {
        let flat = |_: &MappedDims, _: ArrayShape| 42u64;
        assert_eq!(flat.runtime(&dims(2, 2, 2), ArrayShape::square(4)), 42);
        let model = AnalyticalModel;
        assert!(model.runtime(&dims(8, 8, 8), ArrayShape::square(4)) > 0);
    }
}
