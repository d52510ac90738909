//! Folding: tiling a workload onto a finite array (Section III-B2).
//!
//! When `S_R × S_C` exceeds the physical `R × C` array, the computation is
//! sliced into *folds* along both spatial dimensions (Eq. 2 of the paper:
//! `F_R = ⌈S_R / R⌉`, `F_C = ⌈S_C / C⌉`). Folds execute serially; each fold
//! takes `2r′ + c′ + T − 2` cycles (Eq. 3) where `r′ × c′` is the tile
//! actually occupied.

use serde::{Deserialize, Serialize};

use scalesim_topology::MappedDims;

use crate::ArrayShape;

/// One fold: a tile of the workload mapped onto the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Fold {
    /// Fold index along the spatial-row dimension (`0..fold_rows`).
    pub fr: u64,
    /// Fold index along the spatial-column dimension (`0..fold_cols`).
    pub fc: u64,
    /// First spatial-row coordinate covered (`fr · R`).
    pub row_base: u64,
    /// First spatial-column coordinate covered (`fc · C`).
    pub col_base: u64,
    /// Rows of the array occupied by this fold (`r′ ≤ R`).
    pub rows_used: u64,
    /// Columns of the array occupied by this fold (`c′ ≤ C`).
    pub cols_used: u64,
    /// Cycle at which this fold starts.
    pub base_cycle: u64,
    /// Compute duration: `2r′ + c′ + T − 2` (Eq. 3).
    pub duration: u64,
}

/// The serialized schedule of folds for a workload on an array.
///
/// Iterates row-major (all column folds of row-fold 0, then row-fold 1, …),
/// matching the original tool's loop order.
///
/// ```
/// use scalesim_systolic::{ArrayShape, FoldPlan};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let dims = GemmShape::new(10, 4, 6).project(Dataflow::OutputStationary);
/// let plan = FoldPlan::new(&dims, ArrayShape::new(4, 4));
/// assert_eq!(plan.fold_rows(), 3); // ceil(10/4)
/// assert_eq!(plan.fold_cols(), 2); // ceil(6/4)
/// // Eq. 4: full folds take 2*4 + 4 + 4 - 2 = 14 cycles.
/// assert_eq!(plan.clone().next().unwrap().duration, 14);
/// ```
#[derive(Debug, Clone)]
pub struct FoldPlan {
    dims: MappedDims,
    array: ArrayShape,
    fold_rows: u64,
    fold_cols: u64,
    next_index: u64,
    cycle: u64,
}

impl FoldPlan {
    /// Plans the folds of `dims` over `array`.
    pub fn new(dims: &MappedDims, array: ArrayShape) -> Self {
        let fold_rows = dims.spatial_rows.div_ceil(array.rows());
        let fold_cols = dims.spatial_cols.div_ceil(array.cols());
        FoldPlan {
            dims: *dims,
            array,
            fold_rows,
            fold_cols,
            next_index: 0,
            cycle: 0,
        }
    }

    /// Number of folds along the spatial-row dimension (`F_R`).
    pub fn fold_rows(&self) -> u64 {
        self.fold_rows
    }

    /// Number of folds along the spatial-column dimension (`F_C`).
    pub fn fold_cols(&self) -> u64 {
        self.fold_cols
    }

    /// Total number of folds (`F_R · F_C`), saturating at `u64::MAX`.
    pub fn fold_count(&self) -> u64 {
        self.fold_rows.saturating_mul(self.fold_cols)
    }

    /// The four distinct fold shapes of the plan with their multiplicities:
    /// interior folds are all `R × C`; only the last row/column of folds
    /// can be smaller. Lets every aggregate be computed in O(1) instead of
    /// iterating `F_R · F_C` folds. The interior count saturates at
    /// `u64::MAX`.
    pub fn shape_classes(&self) -> [(u64, u64, u64); 4] {
        let r = self.array.rows();
        let c = self.array.cols();
        let r_edge = self.dims.spatial_rows - (self.fold_rows - 1) * r;
        let c_edge = self.dims.spatial_cols - (self.fold_cols - 1) * c;
        let full_r = self.fold_rows - 1;
        let full_c = self.fold_cols - 1;
        [
            (full_r.saturating_mul(full_c), r, c),
            (full_r, r, c_edge),
            (full_c, r_edge, c),
            (1, r_edge, c_edge),
        ]
    }

    /// Total runtime of the whole plan in cycles — the sum of Eq. 3 over all
    /// folds, which equals Eq. 4 when every fold is full. Saturates at
    /// `u64::MAX`, which still lower-bounds any runtime too long to count.
    pub fn total_cycles(&self) -> u64 {
        self.shape_classes()
            .iter()
            .map(|&(count, ru, cu)| count.saturating_mul(fold_duration(ru, cu, self.dims.temporal)))
            .fold(0, u64::saturating_add)
    }

    /// Sum over folds of occupied PEs, as a fraction of `R·C·folds` — the
    /// paper's *array (mapping) utilization* (Fig. 9b-c). The folds tile
    /// the `S_R × S_C` space exactly, so the occupied sum is its area.
    pub fn mapping_utilization(&self) -> f64 {
        let occupied = u128::from(self.dims.spatial_rows) * u128::from(self.dims.spatial_cols);
        let denom = u128::from(self.array.macs())
            .saturating_mul(u128::from(self.fold_rows) * u128::from(self.fold_cols));
        occupied as f64 / denom as f64
    }
}

impl Iterator for FoldPlan {
    type Item = Fold;

    fn next(&mut self) -> Option<Fold> {
        if self.next_index >= self.fold_count() {
            return None;
        }
        let fr = self.next_index / self.fold_cols;
        let fc = self.next_index % self.fold_cols;
        let rows_used = tile_extent(self.dims.spatial_rows, self.array.rows(), fr);
        let cols_used = tile_extent(self.dims.spatial_cols, self.array.cols(), fc);
        let duration = fold_duration(rows_used, cols_used, self.dims.temporal);
        let fold = Fold {
            fr,
            fc,
            row_base: fr * self.array.rows(),
            col_base: fc * self.array.cols(),
            rows_used,
            cols_used,
            base_cycle: self.cycle,
            duration,
        };
        self.cycle = self.cycle.saturating_add(duration);
        self.next_index += 1;
        Some(fold)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.fold_count() - self.next_index) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for FoldPlan {}

/// Extent of tile `index` when cutting `total` into `chunk`-sized tiles.
pub(crate) fn tile_extent(total: u64, chunk: u64, index: u64) -> u64 {
    let start = index * chunk;
    chunk.min(total - start)
}

/// Eq. 3 of the paper: the stall-free duration of one fold,
/// `2r′ + c′ + T − 2`. Every stall-free cycle count of the workspace is a
/// sum of this. Saturates at `u64::MAX`: `T` alone can sit near 2^64.
pub fn fold_duration(rows_used: u64, cols_used: u64, temporal: u64) -> u64 {
    let cycles = 2 * u128::from(rows_used) + u128::from(cols_used) + u128::from(temporal) - 2;
    u64::try_from(cycles).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::{Dataflow, GemmShape};

    fn dims(m: u64, k: u64, n: u64) -> MappedDims {
        GemmShape::new(m, k, n).project(Dataflow::OutputStationary)
    }

    #[test]
    fn exact_fit_is_one_fold() {
        let plan = FoldPlan::new(&dims(4, 7, 4), ArrayShape::square(4));
        assert_eq!(plan.fold_count(), 1);
        assert_eq!(plan.total_cycles(), 2 * 4 + 4 + 7 - 2);
    }

    #[test]
    fn ragged_folds_use_partial_tiles() {
        let plan = FoldPlan::new(&dims(10, 3, 6), ArrayShape::new(4, 4));
        let folds: Vec<Fold> = plan.collect();
        assert_eq!(folds.len(), 6);
        // Last row-fold only uses 2 rows; last column-folds use 2 columns.
        let last = folds.last().unwrap();
        assert_eq!(last.rows_used, 2);
        assert_eq!(last.cols_used, 2);
        assert_eq!(last.duration, 2 * 2 + 2 + 3 - 2);
    }

    #[test]
    fn base_cycles_are_contiguous() {
        let plan = FoldPlan::new(&dims(9, 5, 9), ArrayShape::new(4, 4));
        let mut expected_base = 0;
        for fold in plan.clone() {
            assert_eq!(fold.base_cycle, expected_base);
            expected_base += fold.duration;
        }
        assert_eq!(plan.total_cycles(), expected_base);
    }

    #[test]
    fn total_cycles_matches_eq4_for_divisible_workloads() {
        // Eq. 4: (2R + C + T - 2) * ceil(SR/R) * ceil(SC/C).
        let d = dims(16, 5, 12);
        let array = ArrayShape::new(4, 4);
        let plan = FoldPlan::new(&d, array);
        let eq4 = (2 * 4 + 4 + 5 - 2) * (16 / 4) * (12 / 4);
        assert_eq!(plan.total_cycles(), eq4);
    }

    #[test]
    fn mapping_utilization_full_when_divisible() {
        let plan = FoldPlan::new(&dims(8, 3, 8), ArrayShape::new(4, 4));
        assert_eq!(plan.mapping_utilization(), 1.0);
    }

    #[test]
    fn mapping_utilization_drops_for_ragged_tiles() {
        let plan = FoldPlan::new(&dims(5, 3, 4), ArrayShape::new(4, 4));
        // Two folds: 4x4 full and 1x4 -> (16 + 4) / 32.
        assert_eq!(plan.mapping_utilization(), 20.0 / 32.0);
    }

    #[test]
    fn iterator_len_matches_fold_count() {
        let plan = FoldPlan::new(&dims(9, 2, 9), ArrayShape::new(4, 4));
        assert_eq!(plan.len(), plan.fold_count() as usize);
    }

    #[test]
    fn oversized_array_single_partial_fold() {
        let plan = FoldPlan::new(&dims(3, 2, 3), ArrayShape::square(8));
        let folds: Vec<Fold> = plan.collect();
        assert_eq!(folds.len(), 1);
        assert_eq!(folds[0].rows_used, 3);
        assert_eq!(folds[0].cols_used, 3);
        // Eq. 1 with the *used* extents: runtime 2*3 + 3 + 2 - 2.
        assert_eq!(folds[0].duration, 9);
    }

    #[test]
    fn fold_durations_saturate_when_the_contraction_nears_2_64() {
        // 32 x (2^64 - 16) x 32 on 32x32 OS wrapped to 79,872 cycles,
        // fewer than its MACs, and panicked in the energy model.
        assert_eq!(fold_duration(32, 32, u64::MAX - 15), u64::MAX);
        assert_eq!(fold_duration(1, 1, u64::MAX), u64::MAX);
        // A count that fits is exact: 2 + 1 + (2^64 - 3) - 2 = 2^64 - 2.
        assert_eq!(fold_duration(1, 1, u64::MAX - 2), u64::MAX - 1);
        let plan = FoldPlan::new(&dims(64, u64::MAX - 15, 32), ArrayShape::square(32));
        assert_eq!(plan.total_cycles(), u64::MAX);
        let folds: Vec<Fold> = plan.collect();
        assert_eq!(folds[1].base_cycle, u64::MAX);
    }
}
