//! The output-stationary drain alternative (Section II-A).
//!
//! In the baseline OS dataflow "no computation takes place in the array"
//! while results drain through the peer-to-peer links — the `2·S_R` term of
//! Eq. 1. The paper notes: "An alternative high performance implementation
//! using a separate data plane to move generated output is also possible,
//! however, it is costly to implement." This module prices that
//! alternative: with a dedicated output plane the drain overlaps the next
//! fold's fill, cutting each fold to `r′ + c′ + T − 1` cycles.
//!
//! Quantifying the delta also decomposes Fig. 10's monolithic slowdown: the
//! taller the array, the larger the share of runtime that is pure drain.

use scalesim_systolic::{fold_duration, ArrayShape, FoldPlan};
use scalesim_topology::{Dataflow, MappedDims};

/// How OS outputs leave the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OsDrain {
    /// Baseline: outputs shift down through the MAC links, serializing
    /// drain after compute (Eq. 3: `2r′ + c′ + T − 2` per fold).
    ThroughArray,
    /// A dedicated output plane drains concurrently: a fold costs only its
    /// fill + compute wavefront, `r′ + c′ + T − 1` cycles.
    SeparatePlane,
}

/// Per-fold duration under the chosen drain implementation.
pub fn fold_duration_with(ru: u64, cu: u64, t: u64, drain: OsDrain) -> u64 {
    match drain {
        OsDrain::ThroughArray => fold_duration(ru, cu, t),
        OsDrain::SeparatePlane => ru + cu + t - 1,
    }
}

/// Exact OS scale-up runtime under the chosen drain implementation.
///
/// # Panics
///
/// Panics if `dims` is not an output-stationary projection — the drain
/// alternative only exists for OS (WS/IS outputs already stream out on a
/// separate path).
pub fn scaleup_with_drain(dims: &MappedDims, array: ArrayShape, drain: OsDrain) -> u64 {
    assert_eq!(
        dims.dataflow,
        Dataflow::OutputStationary,
        "the drain-plane alternative applies to the OS dataflow only"
    );
    FoldPlan::new(dims, array)
        .shape_classes()
        .iter()
        .map(|&(count, ru, cu)| count * fold_duration_with(ru, cu, dims.temporal, drain))
        .sum()
}

/// Fraction of the baseline runtime spent draining (the saving a separate
/// plane buys): `1 − separate/baseline`.
pub fn drain_fraction(dims: &MappedDims, array: ArrayShape) -> f64 {
    let base = scaleup_with_drain(dims, array, OsDrain::ThroughArray) as f64;
    let fast = scaleup_with_drain(dims, array, OsDrain::SeparatePlane) as f64;
    1.0 - fast / base
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::exact_scaleup;
    use scalesim_topology::GemmShape;

    fn dims(m: u64, k: u64, n: u64) -> MappedDims {
        GemmShape::new(m, k, n).project(Dataflow::OutputStationary)
    }

    #[test]
    fn baseline_matches_eq3_machinery() {
        let d = dims(100, 30, 80);
        let array = ArrayShape::new(16, 16);
        assert_eq!(
            scaleup_with_drain(&d, array, OsDrain::ThroughArray),
            exact_scaleup(&d, array)
        );
    }

    #[test]
    fn separate_plane_saves_exactly_the_row_term() {
        // Per full fold: (2R + C + T - 2) - (R + C + T - 1) = R - 1.
        let d = dims(64, 10, 64);
        let array = ArrayShape::new(16, 16);
        let folds = 4 * 4;
        let base = scaleup_with_drain(&d, array, OsDrain::ThroughArray);
        let fast = scaleup_with_drain(&d, array, OsDrain::SeparatePlane);
        assert_eq!(base - fast, folds * (16 - 1));
    }

    #[test]
    fn drain_cost_grows_with_array_height() {
        // Tall arrays pay the most for in-array drain — part of why the
        // monolithic configs of Fig. 10 lose.
        let d = dims(8192, 16, 64);
        let short = drain_fraction(&d, ArrayShape::new(8, 64));
        let tall = drain_fraction(&d, ArrayShape::new(512, 64));
        assert!(tall > short);
        assert!(tall > 0.3, "tall array drain share {tall}");
    }

    #[test]
    fn both_variants_match_the_register_level_golden_model() {
        use scalesim_systolic::pe_grid::{run, run_os_separate_plane, Matrix};
        let (m, k, n) = (9usize, 5usize, 7usize);
        let a = Matrix::from_fn(m, k, |i, j| (i as i64 * 3 - j as i64) % 7);
        let b = Matrix::from_fn(k, n, |i, j| (j as i64 * 5 - i as i64) % 6);
        let array = ArrayShape::new(4, 4);
        let d = dims(m as u64, k as u64, n as u64);

        let baseline = run(&a, &b, array, Dataflow::OutputStationary);
        assert_eq!(
            baseline.cycles,
            scaleup_with_drain(&d, array, OsDrain::ThroughArray)
        );
        let plane = run_os_separate_plane(&a, &b, array);
        assert_eq!(
            plane.cycles,
            scaleup_with_drain(&d, array, OsDrain::SeparatePlane)
        );
        assert_eq!(plane.output, baseline.output);
    }

    #[test]
    #[should_panic(expected = "OS dataflow only")]
    fn rejects_non_os_projections() {
        let d = GemmShape::new(8, 8, 8).project(Dataflow::WeightStationary);
        let _ = scaleup_with_drain(&d, ArrayShape::square(4), OsDrain::SeparatePlane);
    }
}
