//! Property tests on the parallel sweep engine: results must be
//! indistinguishable from fresh single-shot simulations at any worker
//! count, and dedup accounting must be exact.

use proptest::prelude::*;

use scalesim::sweep::{
    AspectAxis, CsvSink, DataflowChoice, GridAxis, JsonLinesSink, SweepEngine, SweepPlan,
    SweepWorkload,
};
use scalesim::{ArrayShape, Dataflow, SimConfig, Simulator};
use scalesim_server::Json;
use scalesim_topology::{Layer, Topology};

/// A small randomized plan: one GEMM workload, power-of-two budgets in
/// the 2^6..2^8 range over the 8x8 floor, either aspect axis, any
/// dataflow choice (including per-layer auto selection).
fn plan(m: u64, k: u64, n: u64, budget_exp: u32, all_aspects: bool, df_idx: usize) -> SweepPlan {
    let layer = Layer::gemm("P", m, k, n);
    let dataflow = [
        DataflowChoice::Fixed(Dataflow::OutputStationary),
        DataflowChoice::Fixed(Dataflow::WeightStationary),
        DataflowChoice::Fixed(Dataflow::InputStationary),
        DataflowChoice::Auto,
    ][df_idx];
    SweepPlan {
        name: "prop".into(),
        base: SimConfig::builder()
            .array(ArrayShape::square(8))
            .sram_kb(16, 16, 8)
            .build(),
        workloads: vec![SweepWorkload {
            label: "P".into(),
            topology: Topology::from_layers("P", vec![layer]),
        }],
        budgets: vec![1 << budget_exp],
        min_dim: 8,
        grids: GridAxis::PowersOfTwo,
        aspects: if all_aspects {
            AspectAxis::All
        } else {
            AspectAxis::Squareish
        },
        dataflows: vec![dataflow],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every point a parallel sweep returns is byte-identical (via the
    /// canonical CSV serialization) to a fresh, single-shot `Simulator`
    /// run of the same configuration — memoization and worker scheduling
    /// must never change a result.
    #[test]
    fn sweep_points_match_fresh_single_shot_runs(
        m in 1u64..48,
        k in 1u64..24,
        n in 1u64..48,
        budget_exp in 6u32..9,
        aspect_idx in 0usize..2,
        df_idx in 0usize..4,
        jobs in 1usize..5,
    ) {
        let plan = plan(m, k, n, budget_exp, aspect_idx == 1, df_idx);
        let outcome = SweepEngine::default().run(&plan, jobs).expect("plan is valid");
        prop_assert_eq!(outcome.results.len(), plan.expand().unwrap().len());
        for result in &outcome.results {
            let mut sim = Simulator::new(result.spec.config(&plan.base))
                .with_grid(result.spec.grid);
            if result.spec.dataflow == DataflowChoice::Auto {
                sim = sim.with_auto_dataflow();
            }
            let fresh = sim.run_topology(&plan.workloads[0].topology);
            prop_assert_eq!(
                fresh.to_csv(),
                result.report.to_csv(),
                "point {} {} {} diverged from a fresh run",
                result.spec.grid, result.spec.array, result.spec.dataflow
            );
        }
    }

    /// Cache-hit accounting is exact: duplicating every budget makes the
    /// duplicates hits, not simulations.
    #[test]
    fn repeated_plans_report_exact_cache_hits(
        m in 1u64..48,
        k in 1u64..24,
        n in 1u64..48,
        budget_exp in 6u32..9,
        jobs in 1usize..5,
    ) {
        let mut plan = plan(m, k, n, budget_exp, false, 0);
        let distinct = plan.expand().unwrap().len() as u64;
        plan.budgets = plan.budgets.repeat(2);

        let first = SweepEngine::default().run(&plan, jobs).expect("plan is valid");
        prop_assert_eq!(first.results.len() as u64, 2 * distinct);
        prop_assert_eq!(first.simulations, distinct);
        prop_assert_eq!(first.cache_hits, distinct);

        // The duplicate halves are the same results, not re-simulations.
        for (a, b) in first.results.iter().zip(&first.results[distinct as usize..]) {
            prop_assert_eq!(a.report.to_csv(), b.report.to_csv());
        }
    }

    /// Streamed CSV and JSONL output is byte-for-byte identical at every
    /// worker count: the work-stealing executor may run layer tasks in any
    /// order on any thread, but the in-order emitter makes scheduling
    /// invisible in the serialized artifacts.
    #[test]
    fn streamed_output_is_byte_identical_at_any_worker_count(
        m in 1u64..48,
        k in 1u64..24,
        n in 1u64..48,
        budget_exp in 6u32..9,
        aspect_idx in 0usize..2,
        df_idx in 0usize..4,
        jobs in 2usize..9,
    ) {
        let plan = plan(m, k, n, budget_exp, aspect_idx == 1, df_idx);

        let stream = |jobs: usize| {
            let engine = SweepEngine::default();
            let mut csv = CsvSink::new(Vec::new());
            engine.run_streaming(&plan, jobs, &mut csv).expect("plan is valid");
            let mut jsonl = JsonLinesSink::new(Vec::new());
            engine
                .run_streaming(&plan, jobs, &mut jsonl)
                .expect("plan is valid");
            (csv.into_inner(), jsonl.into_inner())
        };

        let (csv_serial, jsonl_serial) = stream(1);
        let (csv_parallel, jsonl_parallel) = stream(jobs);
        prop_assert_eq!(csv_serial, csv_parallel, "CSV diverged at jobs={}", jobs);
        prop_assert_eq!(jsonl_serial, jsonl_parallel, "JSONL diverged at jobs={}", jobs);
    }
}

/// A workload label with control characters (a programmatic
/// `SweepWorkload`; plan files take labels from `networks::by_name`) comes
/// back whole from a JSONL row, escaped byte for byte as the server's
/// `Json::Str` escapes it.
#[test]
fn jsonl_labels_round_trip_through_the_servers_json() {
    let label = "a\tb\n";
    let mut plan = plan(16, 8, 16, 6, false, 0);
    plan.workloads[0].label = label.into();
    let mut sink = JsonLinesSink::new(Vec::new());
    SweepEngine::default()
        .run_streaming(&plan, 1, &mut sink)
        .expect("plan is valid");
    let text = String::from_utf8(sink.into_inner()).expect("rows are UTF-8");
    let escaped = Json::Str(label.into()).to_string();
    assert_eq!(escaped, r#""a\tb\n""#);
    assert!(text.lines().count() > 0);
    for row in text.lines() {
        assert!(
            row.starts_with(&format!("{{\"workload\":{escaped},")),
            "{row}"
        );
        let parsed = Json::parse(row).expect("a row is one JSON object");
        assert_eq!(
            parsed.get("workload").and_then(Json::as_str),
            Some(label),
            "{row}"
        );
    }
}
