//! Property-based consistency between the three views of the simulator:
//! the register-level golden model, the vectorized trace engine, and the
//! closed-form analytical report. This is the repository's strongest
//! correctness argument — the Fig. 4 validation, generalized to random
//! workloads, all dataflows and ragged fold schedules.
//!
//! One byte golden rides along: the sweep CSV of a scale-out plan, written
//! by the last binary that simulated every tile of a partition grid.

use proptest::prelude::*;

use scalesim::sweep::{CsvSink, SweepEngine, SweepPlan};
use scalesim_memory::{GemmAddressMap, RegionOffsets};
use scalesim_systolic::pe_grid::{run, Matrix};
use scalesim_systolic::{analyze, simulate, ArrayShape, CountingSink, Dataflow};
use scalesim_topology::GemmShape;

fn matrices(m: usize, k: usize, n: usize, seed: i64) -> (Matrix, Matrix) {
    let a = Matrix::from_fn(m, k, |i, j| {
        ((i as i64 * 31 + j as i64 * 17 + seed) % 13) - 6
    });
    let b = Matrix::from_fn(k, n, |i, j| {
        ((i as i64 * 7 + j as i64 * 23 - seed) % 11) - 5
    });
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Golden-model cycles and values agree with the engine and with the
    /// reference matmul for every dataflow, on random shapes and arrays.
    #[test]
    fn golden_engine_analytical_agree(
        m in 1u64..20,
        k in 1u64..16,
        n in 1u64..20,
        rows_pow in 0u32..4,
        cols_pow in 0u32..4,
        seed in -50i64..50,
        df_idx in 0usize..3,
    ) {
        let df = Dataflow::ALL[df_idx];
        let array = ArrayShape::new(1 << rows_pow, 1 << cols_pow);
        let shape = GemmShape::new(m, k, n);
        let dims = shape.project(df);

        let (a, b) = matrices(m as usize, k as usize, n as usize, seed);
        let golden = run(&a, &b, array, df);
        prop_assert_eq!(&golden.output, &a.matmul(&b), "values diverge for {:?}", df);

        let report = analyze(&dims, array);
        prop_assert_eq!(golden.cycles, report.total_cycles, "cycles diverge for {:?}", df);

        // The emitted trace must occupy exactly the analytical horizon and
        // reproduce the closed-form SRAM counts.
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        let mut sink = CountingSink::new();
        let sim_report = simulate(&dims, array, &map, &mut sink);
        prop_assert_eq!(sim_report, report);
        prop_assert_eq!(sink.last_cycle() + 1, report.total_cycles);
        prop_assert_eq!(sink.counts(), report.sram);
    }

    /// Runtime is invariant under transposing both the workload and the
    /// array for the OS dataflow (the schedule is symmetric in rows/cols up
    /// to the 2R vs C asymmetry — so we check the exact Eq. 3 relation
    /// instead: fold durations are what they claim).
    #[test]
    fn total_cycles_match_fold_sum(
        m in 1u64..200,
        k in 1u64..64,
        n in 1u64..200,
        rows in 1u64..20,
        cols in 1u64..20,
        df_idx in 0usize..3,
    ) {
        let df = Dataflow::ALL[df_idx];
        let dims = GemmShape::new(m, k, n).project(df);
        let array = ArrayShape::new(rows, cols);
        let report = analyze(&dims, array);
        // Recompute the horizon by brute-force fold enumeration.
        let brute: u64 = scalesim_systolic::FoldPlan::new(&dims, array)
            .map(|f| f.duration)
            .sum();
        prop_assert_eq!(report.total_cycles, brute);
        // MACs conserved and utilization within bounds.
        prop_assert_eq!(report.mac_ops, m * k * n);
        prop_assert!(report.mapping_utilization > 0.0 && report.mapping_utilization <= 1.0);
        prop_assert!(report.compute_utilization > 0.0 && report.compute_utilization <= 1.0);
    }
}

/// The Fig. 4 experiment verbatim: square matmuls at full utilization.
#[test]
fn fig4_square_matmuls_exact_agreement() {
    for nsize in [2u64, 4, 8, 12, 16, 32] {
        let array = ArrayShape::square(nsize);
        let dims = GemmShape::new(nsize, nsize, nsize).project(Dataflow::OutputStationary);
        let (a, b) = matrices(nsize as usize, nsize as usize, nsize as usize, 3);
        let golden = run(&a, &b, array, Dataflow::OutputStationary);
        assert_eq!(golden.output, a.matmul(&b));
        // Eq. 1: 2n + n + n - 2.
        assert_eq!(golden.cycles, 4 * nsize - 2);
        assert_eq!(analyze(&dims, array).total_cycles, 4 * nsize - 2);
    }
}

/// `examples/scaleout_conv.plan` — ragged convolution tiles, spills and
/// stalls over seven grids and three dataflows — gives the bytes of
/// `golden/scaleout_conv.csv`, which the parent of the commit that
/// introduced tile classes wrote by simulating every tile of every layer
/// of its 63 points. In this (dev) profile every tile is still simulated,
/// and held to its class's result on the way.
#[test]
fn scaleout_conv_plan_reproduces_the_per_tile_csv() {
    let plan = SweepPlan::parse(include_str!("../../examples/scaleout_conv.plan")).unwrap();
    let mut csv = CsvSink::new(Vec::new());
    SweepEngine::new(64)
        .run_streaming(&plan, 2, &mut csv)
        .unwrap();
    // Compare as text so a mismatch prints rows, not byte arrays.
    assert_eq!(
        String::from_utf8(csv.into_inner()).unwrap(),
        include_str!("golden/scaleout_conv.csv")
    );
}
