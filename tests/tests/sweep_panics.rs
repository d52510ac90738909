//! Regression tests for the sweep panic-hang: a worker panic used to
//! leave its completion slot empty forever, so the in-order emitter
//! blocked in `Slots::wait` and the whole run deadlocked. Every test here
//! runs under a watchdog so a reintroduced hang fails the suite instead
//! of stalling it.

use scalesim::sweep::{
    AspectAxis, CsvSink, DataflowChoice, GridAxis, SweepEngine, SweepError, SweepPlan,
    SweepWorkload,
};
use scalesim::{ArrayShape, ExploreEngine, ExploreOptions, FaultPlan, SimConfig};
use scalesim_integration::watchdog;
use scalesim_topology::{Layer, Topology};

fn workload(name: &str, m: u64) -> SweepWorkload {
    SweepWorkload {
        label: name.to_owned(),
        topology: Topology::from_layers(name, vec![Layer::gemm(name, m, 8, 16)]),
    }
}

/// Two small GEMM workloads over a few grids: enough distinct jobs that
/// every worker of a wide pool picks something up.
fn two_workload_plan() -> SweepPlan {
    SweepPlan {
        name: "panic_regression".into(),
        base: SimConfig::builder()
            .array(ArrayShape::square(8))
            .sram_kb(16, 16, 8)
            .build(),
        workloads: vec![workload("GOOD", 24), workload("BAD", 16)],
        budgets: vec![1 << 8],
        min_dim: 8,
        grids: GridAxis::PowersOfTwo,
        aspects: AspectAxis::Squareish,
        dataflows: vec![DataflowChoice::Fixed(scalesim::Dataflow::OutputStationary)],
    }
}

#[test]
fn injected_panic_fails_the_sweep_at_every_jobs_count() {
    for jobs in 1..=8 {
        let err = watchdog(60, move || {
            let engine = SweepEngine::new(64);
            engine.inject_faults(FaultPlan::new().panic("BAD", "injected sweep fault"));
            let plan = two_workload_plan();
            engine.run(&plan, jobs)
        })
        .expect_err("a panicking workload must fail the sweep");
        match err {
            SweepError::Sim(e) => {
                assert_eq!(e.task, "BAD");
                assert!(
                    e.message.contains("injected sweep fault"),
                    "jobs={jobs}: unexpected panic payload: {}",
                    e.message
                );
            }
            other => panic!("jobs={jobs}: expected SweepError::Sim, got {other}"),
        }
    }
}

#[test]
fn streaming_sweep_surfaces_the_panic_too() {
    let err = watchdog(60, || {
        let engine = SweepEngine::new(64);
        engine.inject_faults(FaultPlan::new().panic("BAD", "stream fault"));
        let plan = two_workload_plan();
        let mut sink = CsvSink::new(Vec::new());
        engine.run_streaming(&plan, 4, &mut sink).map(|_| ())
    })
    .expect_err("streaming must abort on a worker panic");
    assert!(
        err.to_string().contains("stream fault"),
        "error must carry the panic payload: {err}"
    );
}

#[test]
fn engine_survives_a_panicking_run() {
    watchdog(120, || {
        let engine = SweepEngine::new(64);
        engine.inject_faults(FaultPlan::new().panic("BAD", "first run fault"));
        let plan = two_workload_plan();
        engine.run(&plan, 3).expect_err("faulted run must fail");
        // Clearing the plan makes the same engine (and its cache) usable
        // again; nothing from the aborted run may leak into the results.
        engine.inject_faults(FaultPlan::new());
        let outcome = engine.run(&plan, 3).expect("clean run succeeds");
        assert_eq!(outcome.results.len(), plan_points(&plan));
        assert!(outcome.simulations > 0);
    });
}

/// Expanded point count of `plan`, via a fresh single-job engine run.
fn plan_points(plan: &SweepPlan) -> usize {
    plan.expand().expect("plan is valid").len()
}

#[test]
fn explore_stage_two_surfaces_injected_panics() {
    let err = watchdog(120, || {
        let engine = ExploreEngine::new(64);
        engine.inject_faults(FaultPlan::new().panic("BAD", "explore fault"));
        let plan = two_workload_plan();
        let options = ExploreOptions {
            jobs: 4,
            ..ExploreOptions::default()
        };
        engine.run(&plan, &options).map(|_| ())
    })
    .expect_err("a panicking survivor simulation must fail the explore run");
    match err {
        SweepError::Sim(e) => {
            assert_eq!(e.task, "BAD");
            assert!(e.message.contains("explore fault"));
        }
        other => panic!("expected SweepError::Sim, got {other}"),
    }
}
