//! Scale-up design-space search: aspect ratios of a monolithic array.
//!
//! For a fixed MAC budget the paper sweeps every power-of-two aspect ratio
//! `R × C = budget` (Fig. 9b-c) and observes that (i) runtimes across ratios
//! span orders of magnitude, and (ii) the best ratio depends on the workload
//! *and* the budget — hence the need for a search framework.

use serde::{Deserialize, Serialize};

use scalesim_systolic::{analyze, ArrayShape};
use scalesim_topology::MappedDims;

use crate::runtime::exact_scaleup;

/// All `R × C` array shapes with `R·C == mac_budget`, `R` and `C` powers of
/// two and at least `min_dim` (the paper limits dimensions to ≥ 8).
///
/// Shapes are returned tall-to-wide (`R` descending).
///
/// # Panics
///
/// Panics if `mac_budget` or `min_dim` is not a power of two, or if
/// `mac_budget < min_dim²` (no valid shape exists).
///
/// ```
/// use scalesim_analytical::aspect_ratio_shapes;
///
/// let shapes = aspect_ratio_shapes(1 << 10, 8);
/// // 1024 MACs: 128x8, 64x16, 32x32, 16x64, 8x128.
/// assert_eq!(shapes.len(), 5);
/// assert_eq!(shapes[2].rows(), 32);
/// ```
pub fn aspect_ratio_shapes(mac_budget: u64, min_dim: u64) -> Vec<ArrayShape> {
    assert!(
        mac_budget.is_power_of_two() && min_dim.is_power_of_two(),
        "MAC budget and minimum dimension must be powers of two"
    );
    assert!(
        mac_budget / min_dim >= min_dim,
        "budget {mac_budget} cannot fit a {min_dim}x{min_dim} array"
    );
    let mut shapes = Vec::new();
    let mut rows = mac_budget / min_dim;
    while rows >= min_dim {
        shapes.push(ArrayShape::new(rows, mac_budget / rows));
        rows /= 2;
    }
    shapes
}

/// One scored scale-up candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScaleUpScore {
    /// The array shape evaluated.
    pub array: ArrayShape,
    /// Exact stall-free runtime ([`crate::exact_scaleup`]).
    pub cycles: u64,
    /// Mapping utilization (occupied-PE fraction averaged over folds).
    pub mapping_utilization: f64,
}

/// Evaluates every aspect ratio of `mac_budget` on `dims` and returns the
/// candidates sorted fastest-first — the data behind Fig. 9(b-c).
///
/// # Panics
///
/// Same conditions as [`aspect_ratio_shapes`].
pub fn rank_scaleup(dims: &MappedDims, mac_budget: u64, min_dim: u64) -> Vec<ScaleUpScore> {
    let mut scores: Vec<ScaleUpScore> = aspect_ratio_shapes(mac_budget, min_dim)
        .into_iter()
        .map(|array| ScaleUpScore {
            array,
            cycles: exact_scaleup(dims, array),
            mapping_utilization: analyze(dims, array).mapping_utilization,
        })
        .collect();
    scores.sort_by(|a, b| a.cycles.cmp(&b.cycles).then(a.array.cmp(&b.array)));
    scores
}

/// The fastest monolithic configuration for `dims` under `mac_budget`.
///
/// # Panics
///
/// Same conditions as [`aspect_ratio_shapes`].
pub fn best_scaleup(dims: &MappedDims, mac_budget: u64, min_dim: u64) -> ScaleUpScore {
    rank_scaleup(dims, mac_budget, min_dim)
        .into_iter()
        .next()
        .expect("aspect_ratio_shapes returns at least one shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::{Dataflow, GemmShape};

    fn dims(m: u64, k: u64, n: u64) -> MappedDims {
        GemmShape::new(m, k, n).project(Dataflow::OutputStationary)
    }

    #[test]
    fn shapes_cover_all_ratios() {
        let shapes = aspect_ratio_shapes(256, 8);
        assert_eq!(shapes.len(), 3); // 32x8, 16x16, 8x32
        assert!(shapes.iter().all(|s| s.macs() == 256));
    }

    #[test]
    fn square_budget_has_single_square_shape() {
        let shapes = aspect_ratio_shapes(64, 8);
        assert_eq!(shapes, vec![ArrayShape::square(8)]);
    }

    #[test]
    #[should_panic(expected = "powers of two")]
    fn non_power_of_two_budget_panics() {
        let _ = aspect_ratio_shapes(100, 8);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn budget_below_min_dim_squared_panics() {
        let _ = aspect_ratio_shapes(32, 8);
    }

    #[test]
    #[should_panic(expected = "cannot fit")]
    fn a_min_dim_whose_square_overflows_cannot_fit() {
        let _ = aspect_ratio_shapes(1 << 10, 1 << 32);
    }

    #[test]
    fn ranking_is_sorted_and_best_matches_head() {
        let d = dims(512, 32, 64);
        let ranked = rank_scaleup(&d, 1 << 12, 8);
        assert!(ranked.windows(2).all(|w| w[0].cycles <= w[1].cycles));
        let best = best_scaleup(&d, 1 << 12, 8);
        assert_eq!(best, ranked[0]);
    }

    #[test]
    fn tall_workload_prefers_tall_array() {
        // S_R >> S_C: the best aspect ratio should allocate more rows than
        // columns.
        let d = dims(4096, 16, 32);
        let best = best_scaleup(&d, 1 << 10, 8);
        assert!(best.array.rows() >= best.array.cols());
    }

    #[test]
    fn wide_workload_prefers_wide_array() {
        let d = dims(32, 16, 4096);
        let best = best_scaleup(&d, 1 << 10, 8);
        assert!(best.array.cols() >= best.array.rows());
    }

    #[test]
    fn runtime_spread_grows_with_budget() {
        // Fig. 9b-c: with larger arrays the worst/best ratio gap widens.
        let d = dims(31999, 84, 1024); // TF0
        let spread = |budget: u64| {
            let ranked = rank_scaleup(&d, budget, 8);
            ranked.last().unwrap().cycles as f64 / ranked[0].cycles as f64
        };
        assert!(spread(1 << 16) > spread(1 << 10));
    }
}
