//! The thread budget of a sweep session, in a test binary of its own with
//! one `#[test]`: the assertions count every thread of the process that
//! ever simulated, so no other test may run beside them.
//!
//! A session starts at most `jobs` workers and keeps them for all of its
//! batches, and a layer's partition tiles run on the worker that took the
//! layer. So however many points, layers, tiles and batches there are,
//! at most `jobs` threads ever touch a `SimArena` — and a worker that
//! panics in a late batch still fails the run with a typed error instead
//! of leaving the parked workers or the emitter hanging.

use scalesim::arena::arenas_created;
use scalesim::explore::REFINE_BATCH;
use scalesim::sweep::{
    AspectAxis, DataflowChoice, GridAxis, SweepEngine, SweepError, SweepPlan, SweepWorkload,
};
use scalesim::{Dataflow, ExploreBudget, ExploreEngine, ExploreOptions, FaultPlan, PartitionGrid};
use scalesim_integration::watchdog;
use scalesim_topology::{Layer, Topology};

const JOBS: usize = 2;

/// Six GEMM layers on a 4x4 grid of 16x16 arrays under every dataflow:
/// 24 (point, layer) tasks of sixteen tiles each.
fn partitioned_plan() -> SweepPlan {
    let layers = (0..6)
        .map(|i| Layer::gemm(format!("l{i}"), 96 + 16 * i, 24, 160 - 16 * i))
        .collect();
    let mut plan = SweepPlan::new("partitioned");
    plan.workloads.push(SweepWorkload {
        label: "NET".into(),
        topology: Topology::from_layers("NET", layers),
    });
    plan.budgets = vec![1 << 12];
    plan.grids = GridAxis::Explicit(vec![PartitionGrid::new(4, 4)]);
    plan.dataflows = vec![
        DataflowChoice::Fixed(Dataflow::OutputStationary),
        DataflowChoice::Fixed(Dataflow::WeightStationary),
        DataflowChoice::Fixed(Dataflow::InputStationary),
        DataflowChoice::Auto,
    ];
    plan
}

/// Twenty single-GEMM workloads over two budgets, every grid and aspect
/// ratio and two dataflows. The last workload, `BAD`, is the largest, so
/// stage 2 reaches it late: after the first batch (the cheapest
/// predictions) unmeasured workloads are visited in plan order.
fn exploration_plan() -> SweepPlan {
    let mut plan = SweepPlan::new("many-batches");
    plan.base.dram_bandwidth = Some(8.0);
    for i in 0..20u64 {
        let label = if i == 19 {
            "BAD".to_owned()
        } else {
            format!("G{i:02}")
        };
        let (m, n) = (40 + 8 * i, 200 - 6 * i);
        plan.workloads.push(SweepWorkload {
            topology: Topology::from_layers(&label, vec![Layer::gemm("l0", m, 16, n)]),
            label,
        });
    }
    plan.workloads[19].topology =
        Topology::from_layers("BAD", vec![Layer::gemm("l0", 400, 64, 400)]);
    plan.budgets = vec![1 << 9, 1 << 10];
    plan.aspects = AspectAxis::All;
    plan.dataflows = vec![
        DataflowChoice::Fixed(Dataflow::OutputStationary),
        DataflowChoice::Auto,
    ];
    plan
}

#[test]
fn a_session_simulates_on_at_most_jobs_threads_and_fails_cleanly() {
    let before = arenas_created();

    // Tiles run on the worker that took their layer.
    let plan = partitioned_plan();
    let outcome = SweepEngine::new(64)
        .run(&plan, JOBS)
        .expect("partitioned sweep");
    assert_eq!(outcome.exec.tasks, 24);
    assert!(outcome.results.iter().all(|r| r
        .report
        .layers()
        .iter()
        .all(|l| l.active_partitions == 16)));
    let after_sweep = arenas_created();
    assert!(
        (1..=JOBS).contains(&(after_sweep - before)),
        "a {JOBS}-job sweep of 4x4-grid layers simulated on {} threads",
        after_sweep - before
    );

    // One set of workers for all batches of an exploration.
    let plan = exploration_plan();
    let batches = 16;
    let options = ExploreOptions {
        keep_within_pct: 1e9,
        budget: ExploreBudget::Sims(batches * REFINE_BATCH + 3),
        jobs: JOBS,
        progress: false,
    };
    let outcome = ExploreEngine::new(4096)
        .run(&plan, &options)
        .expect("exploration");
    assert_eq!(outcome.simulated, batches * REFINE_BATCH + 3);
    let after_explore = arenas_created();
    assert!(
        (1..=JOBS).contains(&(after_explore - after_sweep)),
        "a {JOBS}-job exploration of {} batches simulated on {} threads",
        batches + 1,
        after_explore - after_sweep
    );

    // A panic in a late batch, with workers that have been parked and
    // woken many times by then.
    let (err, simulations) = watchdog(120, move || {
        let engine = ExploreEngine::new(4096);
        engine.inject_faults(FaultPlan::new().panic("BAD", "late fault"));
        let options = ExploreOptions {
            budget: ExploreBudget::Unlimited,
            ..options
        };
        let err = engine
            .run(&exploration_plan(), &options)
            .expect_err("a panicking survivor must fail the exploration");
        // Every finished simulation left its report in the result cache.
        (err, engine.sweep_engine().cached_results())
    });
    match err {
        SweepError::Sim(e) => {
            assert_eq!(e.task, "BAD");
            assert!(e.message.contains("late fault"), "payload: {}", e.message);
        }
        other => panic!("expected SweepError::Sim, got {other}"),
    }
    assert!(
        simulations >= 10 * REFINE_BATCH,
        "the fault was meant for a late batch, but only {simulations} simulations preceded it"
    );
}
