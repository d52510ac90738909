//! Ablation: the OS drain path (Section II-A's "separate data plane").
//!
//! The baseline OS dataflow drains outputs through the MAC links — the
//! `2·S_R` term of Eq. 1. The paper mentions (and dismisses as costly) a
//! separate output plane that would overlap drain with the next fold. This
//! harness prices that choice: per-layer runtime under both drain
//! implementations across array heights, and how much of Fig. 10's
//! monolithic slowdown the drain term explains.
//!
//! Run: `cargo run --release -p scalesim-bench --bin ext_os_drain`

use scalesim_analytical::{exact_scaleup, ArrayShape, Dataflow, MappedDims};
use scalesim_systolic::FoldPlan;
use scalesim_topology::networks;

/// Exact OS runtime of `dims` on `array` when a separate output plane
/// drains each fold while the next one fills: a fold costs its fill and
/// compute wavefront, `r′ + c′ + T − 1` cycles, where Eq. 3's in-array
/// drain costs `2r′ + c′ + T − 2` ([`exact_scaleup`]).
///
/// # Panics
///
/// Panics if `dims` is not an output-stationary projection: WS/IS outputs
/// already stream out on a path of their own.
fn separate_plane_cycles(dims: &MappedDims, array: ArrayShape) -> u64 {
    assert_eq!(
        dims.dataflow,
        Dataflow::OutputStationary,
        "the drain-plane alternative applies to the OS dataflow only"
    );
    FoldPlan::new(dims, array)
        .shape_classes()
        .iter()
        .map(|&(count, ru, cu)| count * (ru + cu + dims.temporal - 1))
        .sum()
}

/// Fraction of the baseline runtime spent draining: `1 − separate/baseline`.
fn drain_fraction(dims: &MappedDims, array: ArrayShape) -> f64 {
    1.0 - separate_plane_cycles(dims, array) as f64 / exact_scaleup(dims, array) as f64
}

fn main() {
    println!("# Ablation: OS drain through the array vs a separate output plane");
    println!("layer,array,through_array_cycles,separate_plane_cycles,drain_fraction");
    let resnet = networks::resnet50();
    let mut layers = vec![
        resnet.layer("CB2a_3").unwrap().clone(),
        resnet.layer("Conv1").unwrap().clone(),
    ];
    layers.push(networks::language_model("TF0").unwrap());
    layers.push(networks::language_model("GNMT0").unwrap());

    for layer in &layers {
        let dims = layer.shape().project(Dataflow::OutputStationary);
        for array in [
            ArrayShape::new(32, 32),
            ArrayShape::new(128, 128),
            ArrayShape::new(512, 32), // tall: drain-dominated
            ArrayShape::new(32, 512), // wide: drain-light
        ] {
            println!(
                "{},{},{},{},{:.4}",
                layer.name(),
                array,
                exact_scaleup(&dims, array),
                separate_plane_cycles(&dims, array),
                drain_fraction(&dims, array),
            );
        }
    }
    println!();
    println!("# tall arrays spend the largest runtime share on drain — part of why");
    println!("# Fig. 10's monolithic configurations lose, and what a separate output");
    println!("# plane (at its wiring cost) would claw back.");
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::GemmShape;

    fn dims(m: u64, k: u64, n: u64) -> MappedDims {
        GemmShape::new(m, k, n).project(Dataflow::OutputStationary)
    }

    #[test]
    fn one_row_arrays_have_no_drain_to_save() {
        // r′ = 1: 2r′ + c′ + T − 2 and r′ + c′ + T − 1 are both c′ + T.
        let d = dims(100, 30, 80);
        let array = ArrayShape::new(1, 16);
        assert_eq!(separate_plane_cycles(&d, array), exact_scaleup(&d, array));
        assert_eq!(drain_fraction(&d, array), 0.0);
    }

    #[test]
    fn separate_plane_saves_exactly_the_row_term() {
        // Per full fold: (2R + C + T - 2) - (R + C + T - 1) = R - 1.
        let d = dims(64, 10, 64);
        let array = ArrayShape::new(16, 16);
        let folds = 4 * 4;
        let base = exact_scaleup(&d, array);
        let fast = separate_plane_cycles(&d, array);
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
        assert_eq!(baseline.cycles, exact_scaleup(&d, array));
        let plane = run_os_separate_plane(&a, &b, array);
        assert_eq!(plane.cycles, separate_plane_cycles(&d, array));
        assert_eq!(plane.output, baseline.output);
    }

    #[test]
    #[should_panic(expected = "OS dataflow only")]
    fn rejects_non_os_projections() {
        let d = GemmShape::new(8, 8, 8).project(Dataflow::WeightStationary);
        let _ = separate_plane_cycles(&d, ArrayShape::square(4));
    }
}
