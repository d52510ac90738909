//! End-to-end tests of the analytical-guided explore pipeline.
//!
//! Two contracts are pinned here:
//!
//! * **Lower bound** — the stage-0 predictor equals the simulator's
//!   stall-free cycles exactly and never exceeds the stall-inclusive
//!   effective cycles, on the Table IV golden workloads and on random
//!   GEMMs (the property the pruning stage's soundness rests on).
//! * **Frontier recovery at scale** — on a 10^5-candidate plan, explore
//!   simulates a small fraction of the space yet reproduces the
//!   cycle-accurate Pareto frontier of the analytically-surviving region,
//!   with byte-identical output regardless of worker count.

use std::collections::HashMap;
use std::io;

use proptest::prelude::*;

use scalesim::sweep::{AspectAxis, DataflowChoice, PointSpec, SweepPlan, SweepSink, SweepWorkload};
use scalesim::{
    predict_cycles, ArrayShape, Dataflow, ExploreBudget, ExploreEngine, ExploreOptions,
    NetworkReport, PartitionGrid, SimConfig, Simulator,
};
use scalesim_analytical::{ErrorStats, Frontier};
use scalesim_topology::{networks, Layer, Topology};

/// Throwaway sink for exhaustive verification runs.
struct Discard;

impl SweepSink for Discard {
    fn point(&mut self, _spec: &PointSpec, _report: &NetworkReport) -> io::Result<()> {
        Ok(())
    }
}

/// The pruning stage's soundness contract on the paper's own workloads:
/// for Table IV layers across grids, aspect ratios and dataflows, the
/// analytical prediction equals the simulator's stall-free cycles and
/// lower-bounds the effective (stall-inclusive) cycles. The observed
/// error distribution (effective/predicted) is recorded so regressions in
/// the stall model show up as a quantile shift.
#[test]
fn analytical_lower_bound_holds_on_table_iv_golden_points() {
    use Dataflow::{InputStationary, OutputStationary, WeightStationary};
    let cases = [
        ("TF1", (1, 1), (32, 32), OutputStationary, 16.0),
        ("TF1", (2, 2), (16, 32), WeightStationary, 4.0),
        ("GNMT3", (1, 1), (32, 32), OutputStationary, 8.0),
        ("GNMT3", (4, 1), (16, 16), InputStationary, 4.0),
        ("NCF1", (1, 1), (64, 64), OutputStationary, 8.0),
        ("NCF1", (2, 2), (8, 8), WeightStationary, 2.0),
        ("NCF0", (1, 1), (32, 32), OutputStationary, 4.0),
        ("DB1", (2, 1), (32, 16), OutputStationary, 8.0),
    ];
    let mut ratios = Vec::new();
    for (name, (pr, pc), (rows, cols), dataflow, bandwidth) in cases {
        let layer = networks::language_model(name).expect("Table IV layer");
        let topology = Topology::from_layers(name, vec![layer]);
        let grid = PartitionGrid::new(pr, pc);
        let array = ArrayShape::new(rows, cols);
        let predicted = predict_cycles(&topology, array, grid, DataflowChoice::Fixed(dataflow));

        let config = SimConfig::builder()
            .array(array)
            .dataflow(dataflow)
            .sram_kb(64, 64, 32)
            .dram_bandwidth(bandwidth)
            .build();
        let report = Simulator::new(config)
            .with_grid(grid)
            .run_topology(&topology);

        assert_eq!(
            predicted,
            report.total_cycles(),
            "{name} {pr}x{pc}/{rows}x{cols} [{dataflow}]: predictor diverged from stall-free cycles"
        );
        assert!(
            predicted <= report.total_effective_cycles(),
            "{name} {pr}x{pc}/{rows}x{cols} [{dataflow}]: lower bound violated"
        );
        ratios.push(report.total_effective_cycles() as f64 / predicted as f64);
    }
    let stats = ErrorStats::from_ratios(ratios);
    eprintln!(
        "table-iv analytical error (effective/predicted): p50 {:.3}x p95 {:.3}x max {:.3}x over {} points",
        stats.p50, stats.p95, stats.max, stats.count
    );
    assert!(
        stats.p50 >= 1.0,
        "ratios below 1 would mean the bound broke"
    );
    assert!(stats.p50 <= stats.p95 && stats.p95 <= stats.max);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The same contract under random GEMM shapes (including ragged,
    /// non-multiple-of-array dims), random grids, arrays, dataflows
    /// (including per-layer auto selection) and bandwidths.
    #[test]
    fn analytical_prediction_is_a_lower_bound_on_random_gemms(
        m in 1u64..200,
        k in 1u64..96,
        n in 1u64..200,
        pr in 1u64..4,
        pc in 1u64..4,
        r_exp in 3u32..6,
        c_exp in 3u32..6,
        df_idx in 0usize..4,
        bandwidth in 1u64..32,
    ) {
        let topology = Topology::from_layers("g", vec![Layer::gemm("g", m, k, n)]);
        let grid = PartitionGrid::new(pr, pc);
        let array = ArrayShape::new(1 << r_exp, 1 << c_exp);
        let dataflow = [
            DataflowChoice::Fixed(Dataflow::OutputStationary),
            DataflowChoice::Fixed(Dataflow::WeightStationary),
            DataflowChoice::Fixed(Dataflow::InputStationary),
            DataflowChoice::Auto,
        ][df_idx];
        let predicted = predict_cycles(&topology, array, grid, dataflow);

        let mut builder = SimConfig::builder()
            .array(array)
            .sram_kb(16, 16, 8)
            .dram_bandwidth(bandwidth as f64);
        if let DataflowChoice::Fixed(df) = dataflow {
            builder = builder.dataflow(df);
        }
        let mut sim = Simulator::new(builder.build()).with_grid(grid);
        if dataflow == DataflowChoice::Auto {
            sim = sim.with_auto_dataflow();
        }
        let report = sim.run_topology(&topology);

        prop_assert_eq!(predicted, report.total_cycles());
        prop_assert!(predicted <= report.total_effective_cycles());
    }
}

/// A plan with >= 10^5 candidate points: 251 synthetic GEMM workloads
/// crossed with four MAC budgets, every power-of-two aspect ratio and all
/// four dataflow choices. Dims stay large enough (>= 150 per spatial
/// side) that no array in the budget range covers a workload outright —
/// so analytical runtimes keep separating candidates instead of
/// plateauing into ties.
fn huge_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("explore-at-scale");
    plan.base.dram_bandwidth = Some(16.0);
    for i in 0..251u64 {
        let m = 150 + (i % 50) * 4;
        let n = 150 + ((i * 13) % 50) * 4;
        let k = 8 + (i % 7) * 4;
        let label = format!("G{i:03}");
        plan.workloads.push(SweepWorkload {
            label: label.clone(),
            topology: Topology::from_layers(&label, vec![Layer::gemm("l0", m, k, n)]),
        });
    }
    plan.budgets = vec![1 << 10, 1 << 11, 1 << 12, 1 << 13];
    plan.aspects = AspectAxis::All;
    plan.dataflows = vec![
        DataflowChoice::Fixed(Dataflow::OutputStationary),
        DataflowChoice::Fixed(Dataflow::WeightStationary),
        DataflowChoice::Fixed(Dataflow::InputStationary),
        DataflowChoice::Auto,
    ];
    plan
}

/// The acceptance scenario: on a >= 10^5-point plan, explore simulates at
/// most 10% of the candidates, recovers exactly the cycle-accurate Pareto
/// frontier an exhaustive sweep of the analytically-surviving region
/// produces, and emits byte-identical output at any worker count.
#[test]
fn explore_recovers_frontier_of_a_hundred_thousand_point_space() {
    let plan = huge_plan();
    let candidates = plan.points().expect("valid plan").len();
    assert!(
        candidates >= 100_000,
        "plan must span >= 10^5 points, got {candidates}"
    );

    let options = ExploreOptions {
        keep_within_pct: 2.0,
        budget: ExploreBudget::Unlimited,
        jobs: 4,
        progress: false,
    };
    let engine = ExploreEngine::new(8192);
    let outcome = engine.run(&plan, &options).expect("explore run");

    assert_eq!(outcome.candidates, candidates);
    assert_eq!(outcome.candidates, outcome.pruned + outcome.survivors);
    assert_eq!(outcome.simulated, outcome.survivors, "unlimited budget");
    assert!(
        outcome.simulated * 10 <= outcome.candidates,
        "simulated {} of {} candidates — pruning must remove >= 90%",
        outcome.simulated,
        outcome.candidates
    );
    eprintln!(
        "explore-at-scale: {} candidates -> {} simulated ({:.2}%), stage0 {:.2}s",
        outcome.candidates,
        outcome.simulated,
        100.0 * outcome.simulated as f64 / outcome.candidates as f64,
        outcome.stage_seconds.analytical,
    );

    // Soundness on everything measured.
    for point in &outcome.measured {
        assert!(
            point.predicted <= point.report.total_effective_cycles(),
            "lower bound violated at {:?}",
            point.spec
        );
    }
    assert!(outcome.error_stats.p50 >= 1.0);

    // Every workload keeps at least its own analytical best, so every
    // workload must come back with a nonempty measured frontier.
    let frontiers = outcome.frontiers();
    assert_eq!(frontiers.len(), plan.workloads.len());

    // Exhaustive sweep of the surviving region (recomputed independently;
    // simulation reuses the explore engine's caches, so this is cheap)
    // must yield the same per-workload frontier.
    let survivors = ExploreEngine::new(64)
        .prune(&plan, options.keep_within_pct)
        .expect("prune")
        .survivors;
    assert_eq!(survivors.len(), outcome.survivors);
    let exhaustive = engine
        .sweep_engine()
        .run_points(
            &plan,
            survivors.into_iter().map(|s| s.spec).collect(),
            4,
            &mut Discard,
        )
        .expect("exhaustive sweep of survivors");
    let mut by_workload: HashMap<&str, Vec<(u64, u64)>> = HashMap::new();
    for r in &exhaustive.results {
        by_workload
            .entry(r.spec.workload.as_str())
            .or_default()
            .push((r.spec.budget, r.report.total_effective_cycles()));
    }
    for (workload, points) in frontiers {
        let explored = Frontier::build(points.iter().map(|p| (p.spec.budget, p.measured())));
        let full = Frontier::build(by_workload.remove(workload).expect("workload measured"));
        assert_eq!(explored, full, "frontier diverged for {workload}");
    }

    // Byte-identical output across worker counts. A rerun on the warm
    // engine simulates nothing, so it pins that emission order derives
    // from the plan alone; a fresh engine per worker count simulates every
    // survivor again (over the shared layer cache), so batch composition
    // and assembly under 1, 2, 4 and 7 workers are compared too.
    let csv = |outcome: &scalesim::ExploreOutcome| {
        let mut text = Vec::new();
        outcome.write_csv(&mut text).unwrap();
        text
    };
    let first = csv(&outcome);
    let rerun = engine
        .run(&plan, &ExploreOptions { jobs: 1, ..options })
        .expect("rerun");
    assert_eq!(rerun.cache_hits, rerun.simulated as u64);
    assert_eq!(first, csv(&rerun), "explore output depends on worker count");
    for jobs in [1, 2, 4, 7] {
        let fresh = ExploreEngine::new(8192)
            .run(&plan, &ExploreOptions { jobs, ..options })
            .expect("fresh run");
        assert_eq!(fresh.cache_hits, 0);
        assert_eq!(
            first,
            csv(&fresh),
            "explore output differs at {jobs} workers"
        );
    }
}
