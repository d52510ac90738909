//! The thread contract of a sweep session: the calling thread is worker 0
//! of every batch and its in-order emitter. So `jobs = 1` simulates on the
//! caller with no thread of its own, `jobs = N` adds N − 1 helpers, and
//! rows stream to the sink between the caller's tasks instead of after
//! them. The trace ring is process-global, so this test binary runs its
//! tests one at a time.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use scalesim::sweep::{GridAxis, SweepPlan, SweepSink, SweepWorkload};
use scalesim::{
    layer_cache, ExploreBudget, ExploreEngine, ExploreOptions, FaultPlan, Layer, NetworkReport,
    PartitionGrid, PointSpec, SweepEngine, Topology,
};
use scalesim_telemetry::trace::{self, TraceEvent};

/// Held by every test: the trace ring and the layer cache are shared.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// One single-GEMM workload per `(label, m)`, over one budget on a 1x1
/// grid: one point and one (point, layer) task per workload.
fn plan(workloads: &[(&str, u64)]) -> SweepPlan {
    let mut plan = SweepPlan::new("session-contract");
    for &(label, m) in workloads {
        plan.workloads.push(SweepWorkload {
            label: label.to_owned(),
            topology: Topology::from_layers(label, vec![Layer::gemm("l0", m, 24, 40)]),
        });
    }
    plan.budgets = vec![1 << 8];
    plan.grids = GridAxis::Explicit(vec![PartitionGrid::new(1, 1)]);
    plan
}

/// Runs `f` cold with the trace ring on, inside a span of the calling
/// thread; returns the spans recorded and the calling thread's trace id.
fn traced(f: impl FnOnce()) -> (Vec<TraceEvent>, u64) {
    layer_cache::clear();
    trace::install(trace::DEFAULT_CAPACITY);
    trace::clear();
    let caller = trace::span("test.caller");
    f();
    drop(caller);
    trace::set_enabled(false);
    let events = trace::events();
    let tid = events
        .iter()
        .find(|e| e.name == "test.caller")
        .expect("the caller's span was recorded")
        .tid;
    (events, tid)
}

fn count(events: &[TraceEvent], name: &str) -> usize {
    events.iter().filter(|e| e.name == name).count()
}

#[test]
fn jobs_one_simulates_on_the_caller_and_jobs_two_adds_one_helper() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let sweep = plan(&[("A", 40), ("B", 56), ("C", 72), ("D", 88)]);
    let explore = |jobs| {
        let options = ExploreOptions {
            keep_within_pct: 1e9,
            budget: ExploreBudget::Sims(12),
            jobs,
            progress: false,
        };
        let outcome = ExploreEngine::default().run(&sweep, &options).unwrap();
        assert_eq!(outcome.simulated, 4);
    };
    let run_points = |jobs| {
        let points = sweep.expand().unwrap();
        let mut sink = FirstRow::default();
        SweepEngine::default()
            .run_points(&sweep, points, jobs, &mut sink)
            .unwrap();
        assert_eq!(sink.rows, 4);
    };

    for (what, run) in [
        ("run_points", &run_points as &dyn Fn(usize)),
        ("ExploreEngine::run", &explore),
    ] {
        let (events, caller) = traced(|| run(1));
        assert_eq!(count(&events, "sweep.worker"), 0, "{what} at jobs 1");
        let layers: Vec<&TraceEvent> = events.iter().filter(|e| e.name == "run_layer").collect();
        assert_eq!(layers.len(), 4, "{what} at jobs 1 simulates every point");
        assert!(
            layers.iter().all(|e| e.tid == caller),
            "{what} at jobs 1 simulated off the calling thread"
        );

        let (events, _) = traced(|| run(2));
        assert_eq!(count(&events, "sweep.worker"), 1, "{what} at jobs 2");
        assert_eq!(count(&events, "run_layer"), 4, "{what} at jobs 2");
    }
}

/// Notes when the first row arrives.
#[derive(Default)]
struct FirstRow {
    at: Option<Instant>,
    rows: usize,
}

impl SweepSink for FirstRow {
    fn point(&mut self, _spec: &PointSpec, _report: &NetworkReport) -> std::io::Result<()> {
        self.at.get_or_insert_with(Instant::now);
        self.rows += 1;
        Ok(())
    }
}

#[test]
fn rows_stream_while_a_slow_last_workload_simulates() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let plan = plan(&[("A", 40), ("B", 56), ("SLOW", 72)]);
    for jobs in [1, 2] {
        let engine = SweepEngine::default();
        engine.inject_faults(FaultPlan::new().delay("SLOW", Duration::from_millis(500)));
        let mut sink = FirstRow::default();
        engine.run_streaming(&plan, jobs, &mut sink).unwrap();
        let returned = Instant::now();
        assert_eq!(sink.rows, 3);
        let lead = returned - sink.at.expect("rows were emitted");
        assert!(
            lead >= Duration::from_millis(400),
            "at jobs {jobs} the first row arrived only {lead:?} before the sweep returned"
        );
    }
}
