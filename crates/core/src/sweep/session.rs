//! The sweep session: [`SweepEngine`], the in-order emitter that
//! streams a batch's rows to its sink, the `--progress` ticker, and the
//! per-group summary of a finished series.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use scalesim_telemetry::Registry;

use super::plan::{point_identity, DataflowChoice, PointSpec, SweepPlan};
use super::sink::{NullSink, SweepSink};
use super::{SweepCounters, SweepError};
use crate::exec::{ExecSummary, FaultPlan};
use crate::pool::{Batch, BatchJob, WorkerPool};
use crate::report::NetworkReport;
use crate::simulator::Simulator;

/// One simulated sweep result: the point and its full report.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The design point.
    pub spec: PointSpec,
    /// The simulation report (shared by the run's duplicates of the point).
    pub report: Arc<NetworkReport>,
}

/// The outcome of running a plan: results in plan order plus exact
/// dedup accounting for *this* run.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The plan's name.
    pub plan_name: String,
    /// One result per point, in plan order.
    pub results: Vec<SweepResult>,
    /// Simulations actually executed by this run: one per distinct point.
    pub simulations: u64,
    /// Points served without a fresh simulation: duplicates of an earlier
    /// point of the same run.
    pub cache_hits: u64,
    /// Wall latency of each freshly simulated point — first layer task
    /// start to assembly — in microseconds, in work-list order. One entry
    /// per entry of `simulations`; feeds the tail-latency bench tier.
    pub point_latencies_micros: Vec<u64>,
    /// Scheduler counters for this run (tasks, steals,
    /// per-worker busy fractions).
    pub exec: ExecSummary,
}

/// One (workload, budget, dataflow) group of a point series, as positions
/// in the series [`summarize_groups`] was given.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupIndices {
    /// The point with the lowest effective (stall-inclusive) runtime; ties
    /// go to the lower plan index.
    pub best: usize,
    /// The runtime/bandwidth crossing over the group's partition series
    /// (Sec. IV-A); `None` when the group holds a single partition count.
    pub sweet_spot: Option<usize>,
}

/// Groups a series of simulated points by (workload, budget, dataflow), in
/// order of first appearance, and finds each group's fastest point and
/// sweet spot: what the CLI's stderr summary and the server's `/sweep`
/// summary print.
pub fn summarize_groups<'a>(
    points: impl IntoIterator<Item = (&'a PointSpec, &'a NetworkReport)>,
) -> Vec<GroupIndices> {
    let points: Vec<(&PointSpec, &NetworkReport)> = points.into_iter().collect();
    let mut group_of: HashMap<(&str, u64, DataflowChoice), usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, (spec, _)) in points.iter().enumerate() {
        let key = (spec.workload.as_str(), spec.budget, spec.dataflow);
        let group = *group_of.entry(key).or_insert(groups.len());
        if group == groups.len() {
            groups.push(Vec::new());
        }
        groups[group].push(i);
    }
    groups
        .into_iter()
        .map(|mut members| {
            let best = members
                .iter()
                .copied()
                .min_by_key(|&i| (points[i].1.total_effective_cycles(), points[i].0.index))
                .expect("nonempty group");
            members.sort_by_key(|&i| (points[i].0.partitions(), points[i].0.index));
            let count = |i: usize| points[i].0.partitions();
            let sweet_spot = if count(members[0]) != count(members[members.len() - 1]) {
                let cycles: Vec<u64> = members
                    .iter()
                    .map(|&i| points[i].1.total_cycles())
                    .collect();
                let bw: Vec<f64> = members
                    .iter()
                    .map(|&i| points[i].1.peak_required_bandwidth())
                    .collect();
                sweet_spot_index(&cycles, &bw).map(|s| members[s])
            } else {
                None
            };
            GroupIndices { best, sweet_spot }
        })
        .collect()
}

/// The paper's sweet spot, "the intersection of runtime and bandwidth
/// curves" (Sec. IV-A), over series ordered by partition count: both
/// curves are normalized to their maxima, and the sweet spot is the first
/// index where the rising bandwidth curve meets or crosses the falling
/// runtime curve. `None` only for empty input.
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn sweet_spot_index(cycles: &[u64], bandwidth: &[f64]) -> Option<usize> {
    assert_eq!(cycles.len(), bandwidth.len(), "series must align");
    if cycles.is_empty() {
        return None;
    }
    let max_cycles = *cycles.iter().max().expect("nonempty") as f64;
    let max_bw = bandwidth.iter().fold(0.0, |a: f64, &b| a.max(b));
    if max_bw == 0.0 || max_cycles == 0.0 {
        return Some(0);
    }
    (0..cycles.len())
        .find(|&i| bandwidth[i] / max_bw >= cycles[i] as f64 / max_cycles)
        .or(Some(cycles.len() - 1))
}

/// A prepared point: its spec plus the distinct job that answers it.
struct PreparedPoint {
    spec: PointSpec,
    distinct: usize,
}

/// The parallel sweep executor: per run, the calling thread and a set of
/// scoped helper threads. It keeps no results between runs; a rerun is
/// answered layer by layer by the process-wide [`crate::layer_cache`],
/// bit for bit.
///
/// Determinism: duplicate points are simulated once and results are
/// emitted in plan order, so the output stream is byte-identical to a
/// `jobs = 1` run — and each point's report is byte-identical to a fresh
/// single-shot [`Simulator`] run of the same configuration.
pub struct SweepEngine {
    counters: SweepCounters,
    progress: bool,
    faults: Mutex<FaultPlan>,
}

/// The `--progress` stderr ticker, driven by the in-order emitter. One
/// line roughly every [`ProgressTicker::INTERVAL`] plus a final summary
/// line; progress never touches stdout, so piped sweep output is
/// unaffected. When progress is off the per-point cost is a single
/// `Option` branch — no allocation, no clock read.
pub(crate) struct ProgressTicker {
    label: String,
    total: usize,
    /// Fresh simulations this run must execute; rate and ETA are based on
    /// how many of these have completed, *not* on emitted points, which a
    /// plan's duplicates inflate.
    sims_total: usize,
    cache_hits: u64,
    done: usize,
    started: Instant,
    last_tick: Instant,
}

impl ProgressTicker {
    pub(crate) const INTERVAL: Duration = Duration::from_millis(500);

    fn new(label: &str, total: usize, sims_total: usize, cache_hits: u64) -> ProgressTicker {
        let now = Instant::now();
        ProgressTicker {
            label: label.to_owned(),
            total,
            sims_total,
            cache_hits,
            done: 0,
            started: now,
            last_tick: now,
        }
    }

    /// Counts one emitted point and prints a line when the interval is up
    /// (and always for the final point). `sims_done` is the workers'
    /// completed-simulation count (the shared atomic), which drives rate
    /// and ETA.
    fn tick(&mut self, sims_done: usize) {
        self.done += 1;
        let finished = self.done >= self.total;
        if !finished && self.last_tick.elapsed() < ProgressTicker::INTERVAL {
            return;
        }
        self.print(sims_done);
    }

    /// Prints a line without counting a point: the emitter calls this
    /// while blocked on a slow head-of-line point, so the rate keeps
    /// moving with the workers instead of freezing at the emitted count.
    fn heartbeat(&mut self, sims_done: usize) {
        if self.last_tick.elapsed() < ProgressTicker::INTERVAL {
            return;
        }
        self.print(sims_done);
    }

    fn print(&mut self, sims_done: usize) {
        self.last_tick = Instant::now();
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let rate = sims_done as f64 / elapsed;
        let remaining = self.sims_total.saturating_sub(sims_done);
        let eta = if remaining == 0 {
            "0s".to_owned()
        } else if rate <= 0.0 {
            "?".to_owned()
        } else {
            format!("{:.0}s", remaining as f64 / rate)
        };
        let pct = 100.0 * self.done as f64 / self.total.max(1) as f64;
        let hit_pct = 100.0 * self.cache_hits as f64 / self.total.max(1) as f64;
        eprintln!(
            "{}: {}/{} points ({pct:.1}%), {rate:.1} sims/s, {hit_pct:.0}% cache hits, ETA {eta}",
            self.label, self.done, self.total,
        );
    }
}

impl Default for SweepEngine {
    /// An engine with telemetry in the process-global registry.
    fn default() -> SweepEngine {
        SweepEngine::with_registry(scalesim_telemetry::global())
    }
}

impl SweepEngine {
    /// [`SweepEngine::default`]. The argument is ignored: it sized a point
    /// cache the engine no longer has.
    pub fn new(_cache_capacity: usize) -> SweepEngine {
        SweepEngine::default()
    }

    /// An engine recording its metrics into `registry` (e.g. a server
    /// engine's scoped registry).
    pub fn with_registry(registry: &Registry) -> SweepEngine {
        SweepEngine {
            counters: SweepCounters::new(registry),
            progress: false,
            faults: Mutex::new(FaultPlan::default()),
        }
    }

    /// Installs a [`FaultPlan`] (test hook): matching workloads are
    /// delayed or panicked inside the worker that simulates them, which
    /// is how the panic-abort path is exercised deterministically.
    /// Replaces any previous plan; pass `FaultPlan::new()` to clear.
    pub fn inject_faults(&self, plan: FaultPlan) {
        *self.faults.lock().unwrap() = plan;
    }

    /// Enables (or disables) the stderr progress ticker for subsequent
    /// runs: one line per ~500 ms from the in-order emitter (points
    /// done/total, rows/s, cache-hit share, ETA), never touching stdout.
    /// Off by default; when off the per-point cost is one branch.
    #[must_use]
    pub fn with_progress(mut self, on: bool) -> SweepEngine {
        self.progress = on;
        self
    }

    /// Runs `plan` on `jobs` parallel workers, collecting results only.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] for invalid plans.
    pub fn run(&self, plan: &SweepPlan, jobs: usize) -> Result<SweepOutcome, SweepError> {
        self.run_streaming(plan, jobs, &mut NullSink)
    }

    /// Runs `plan` on `jobs` parallel workers, streaming every point to
    /// `sink` in plan order as results complete.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] for invalid plans and
    /// [`SweepError::Io`] when the sink fails (the run aborts early).
    pub fn run_streaming(
        &self,
        plan: &SweepPlan,
        jobs: usize,
        sink: &mut dyn SweepSink,
    ) -> Result<SweepOutcome, SweepError> {
        let points = plan.expand()?;
        self.run_points(plan, points, jobs, sink)
    }

    /// Runs an explicit list of points against `plan`'s base configuration
    /// and workloads, streaming each to `sink` in the order given.
    ///
    /// The points need not be the plan's full expansion, but every spec's
    /// workload label must name one of the plan's workloads. Dedup and the
    /// determinism contract are identical to
    /// [`SweepEngine::run_streaming`]. This is a session of one batch; the
    /// explore pipeline, which simulates the survivors of analytical
    /// pruning eight at a time, keeps one session open for all of its
    /// batches.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] when a point references a workload the
    /// plan does not define, [`SweepError::Io`] when the sink fails and
    /// [`SweepError::Sim`] when a simulation panics.
    pub fn run_points(
        &self,
        plan: &SweepPlan,
        points: Vec<PointSpec>,
        jobs: usize,
        sink: &mut dyn SweepSink,
    ) -> Result<SweepOutcome, SweepError> {
        self.session(plan, jobs, |run_batch| run_batch(points, sink))
    }

    /// Opens a sweep session over `plan` and hands `body` the function
    /// that runs one batch of points in it (the contract of
    /// [`SweepEngine::run_points`], batch by batch).
    ///
    /// The plan's label index is prepared once, and a [`WorkerPool`] of up
    /// to `jobs − 1` helpers, started with the first batch that has work
    /// for them, serves every batch, so each simulating thread's
    /// [`crate::arena::SimArena`] stays warm for the whole session. The
    /// calling thread is worker 0 of every batch and its in-order emitter:
    /// between its own tasks it streams every row whose slot is filled,
    /// then waits for the rest in order. So `jobs = 1` simulates on the
    /// caller alone. A panicking simulation fails its batch with
    /// [`SweepError::Sim`]; the emitter never hangs.
    pub(crate) fn session<R>(
        &self,
        plan: &SweepPlan,
        jobs: usize,
        body: impl FnOnce(&mut RunBatch<'_>) -> Result<R, SweepError>,
    ) -> Result<R, SweepError> {
        let session = Session::new(self, plan, jobs);
        let pool = WorkerPool::new(Arc::default(), Arc::default());
        std::thread::scope(|scope| {
            // Dropped when `body` returns or unwinds: waiting helpers must
            // exit, or the scope would never join.
            let _close = CloseOnDrop(&pool);
            let mut helpers = 0;
            body(&mut |points, sink| {
                let (batch, prepared) = session.prepare(points)?;
                let cache_hits = (prepared.len() - batch.jobs.len()) as u64;
                self.counters.cache_hits.add(cache_hits);
                sink.begin(plan, prepared.len())?;
                let batch = Arc::new(batch);
                let mut emitter = Emitter::new(&session, &batch, prepared, cache_hits);
                pool.share(&batch);
                while helpers + 1 < batch.exec.workers() {
                    helpers += 1;
                    let (pool, helper) = (&pool, helpers);
                    scope.spawn(move || pool.help(helper));
                }
                batch.run_worker(0, || emitter.drain(sink, false));
                let emitted = emitter.finish(sink);
                // After an emit error the batch is aborted: the helpers
                // finish the task in hand and report in.
                pool.retire(&batch);
                self.counters
                    .simulations
                    .add(batch.simulated.load(Ordering::Relaxed) as u64);
                let results = emitted?;
                sink.end()?;
                Ok(SweepOutcome {
                    plan_name: plan.name.clone(),
                    results,
                    simulations: batch.jobs.len() as u64,
                    cache_hits,
                    point_latencies_micros: batch.latencies_micros(),
                    exec: batch.exec.summary(),
                })
            })
        })
    }
}

/// The function a [`SweepEngine::session`] hands its body: runs one batch
/// of points, streaming them to the sink in the order given.
pub(crate) type RunBatch<'a> =
    dyn FnMut(Vec<PointSpec>, &mut dyn SweepSink) -> Result<SweepOutcome, SweepError> + 'a;

/// What every batch of a session shares, set up once.
struct Session<'a> {
    engine: &'a SweepEngine,
    plan: &'a SweepPlan,
    jobs: usize,
    workload_index: HashMap<&'a str, usize>,
    faults: FaultPlan,
}

impl<'a> Session<'a> {
    fn new(engine: &'a SweepEngine, plan: &'a SweepPlan, jobs: usize) -> Session<'a> {
        Session {
            engine,
            plan,
            jobs: jobs.max(1),
            workload_index: plan.workload_index(),
            faults: engine.faults.lock().unwrap().clone(),
        }
    }

    /// Deduplicates `points` into distinct jobs by [`point_identity`]: the
    /// batch of their (job, layer) tasks, and each point with its job.
    fn prepare(
        &self,
        points: Vec<PointSpec>,
    ) -> Result<(Batch<'a>, Vec<PreparedPoint>), SweepError> {
        let plan = self.plan;
        let mut distinct_of = HashMap::new();
        let mut jobs: Vec<BatchJob<'a>> = Vec::new();
        let mut prepared: Vec<PreparedPoint> = Vec::with_capacity(points.len());
        for spec in points {
            let workload = *self
                .workload_index
                .get(spec.workload.as_str())
                .ok_or_else(|| {
                    SweepError::plan(format!(
                        "point references unknown workload `{}`",
                        spec.workload
                    ))
                })?;
            let identity = point_identity(workload, &spec);
            let distinct = *distinct_of.entry(identity).or_insert_with(|| {
                let mut sim = Simulator::new(spec.config(&plan.base)).with_grid(spec.grid);
                if spec.dataflow == DataflowChoice::Auto {
                    sim = sim.with_auto_dataflow();
                }
                jobs.push(BatchJob {
                    sim,
                    topology: Cow::Borrowed(&plan.workloads[workload].topology),
                });
                jobs.len() - 1
            });
            prepared.push(PreparedPoint { spec, distinct });
        }
        Ok((Batch::new(jobs, self.jobs, self.faults.clone()), prepared))
    }
}

/// A batch's in-order emitter, run by the session's calling thread:
/// streams each point to the sink in the order given once its slot is
/// filled — between the caller's own tasks ([`Emitter::drain`]), then
/// waiting for the rest ([`Emitter::finish`]). The first poisoned slot or
/// sink error aborts the batch and fails it.
struct Emitter<'b, 'a> {
    session: &'b Session<'a>,
    batch: &'b Batch<'a>,
    points: std::iter::Peekable<std::vec::IntoIter<PreparedPoint>>,
    results: Vec<SweepResult>,
    ticker: Option<ProgressTicker>,
    /// The batch's failure, once it has one: nothing is emitted after it.
    failed: Option<SweepError>,
}

impl<'b, 'a> Emitter<'b, 'a> {
    fn new(
        session: &'b Session<'a>,
        batch: &'b Batch<'a>,
        prepared: Vec<PreparedPoint>,
        cache_hits: u64,
    ) -> Emitter<'b, 'a> {
        Emitter {
            ticker: session.engine.progress.then(|| {
                ProgressTicker::new(
                    &format!("sweep {}", session.plan.name),
                    prepared.len(),
                    batch.jobs.len(),
                    cache_hits,
                )
            }),
            results: Vec::with_capacity(prepared.len()),
            points: prepared.into_iter().peekable(),
            session,
            batch,
            failed: None,
        }
    }

    /// Streams the remaining points, waiting for each slot in order.
    fn finish(mut self, sink: &mut dyn SweepSink) -> Result<Vec<SweepResult>, SweepError> {
        self.drain(sink, true);
        match self.failed {
            Some(err) => Err(err),
            None => Ok(self.results),
        }
    }

    /// Streams points in order while their slots are filled: waiting for
    /// each one if `wait`, else stopping at the first that is not, where
    /// the progress heartbeat ticks.
    fn drain(&mut self, sink: &mut dyn SweepSink, wait: bool) {
        let batch = self.batch;
        let simulated = || batch.simulated.load(Ordering::Relaxed);
        while self.failed.is_none() {
            let Some(distinct) = self.points.peek().map(|point| point.distinct) else {
                return;
            };
            let slot = &batch.slots[distinct];
            let state = match (self.ticker.as_mut(), wait) {
                (ticker, false) => match slot.try_get() {
                    Some(state) => state,
                    None => {
                        if let Some(ticker) = ticker {
                            ticker.heartbeat(simulated());
                        }
                        return;
                    }
                },
                // Bounded waits so the ticker keeps printing worker
                // progress while a slow head-of-line point runs.
                (Some(ticker), true) => loop {
                    match slot.wait(Some(Instant::now() + ProgressTicker::INTERVAL)) {
                        Some(state) => break state,
                        None => ticker.heartbeat(simulated()),
                    }
                },
                (None, true) => slot.wait(None).expect("an unbounded wait returns a value"),
            };
            let point = self.points.next().expect("a point was peeked");
            let emitted = state.map_err(SweepError::Sim).and_then(|report| {
                sink.point(&point.spec, &report)?;
                Ok(report)
            });
            match emitted {
                Ok(report) => {
                    self.session.engine.counters.points.inc();
                    if let Some(ticker) = self.ticker.as_mut() {
                        ticker.tick(simulated());
                    }
                    self.results.push(SweepResult {
                        spec: point.spec,
                        report,
                    });
                }
                Err(err) => {
                    batch.exec.abort();
                    self.failed = Some(err);
                }
            }
        }
    }
}

/// Ends a session's helpers when dropped, returning or unwinding: they
/// finish a batch still in flight and exit, so the scope can join.
struct CloseOnDrop<'p, 'a>(&'p WorkerPool<'a>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::plan::tests::small_plan;
    use crate::sweep::{telemetry_names, CsvSink, SWEEP_CSV_HEADER};

    /// A fresh engine's outcome of `plan`, its registry private to the run.
    fn run(plan: &SweepPlan, jobs: usize) -> SweepOutcome {
        SweepEngine::with_registry(&Registry::new())
            .run(plan, jobs)
            .unwrap()
    }

    fn groups(outcome: &SweepOutcome) -> Vec<GroupIndices> {
        summarize_groups(outcome.results.iter().map(|r| (&r.spec, &*r.report)))
    }

    #[test]
    fn sweep_covers_all_partition_counts() {
        let outcome = run(&small_plan(), 4);
        let points = &outcome.results;
        // 2^10 budget, 8x8 floor: P = 1..16 -> 5 points.
        assert_eq!(points.len(), 5);
        assert!(points
            .iter()
            .all(|p| p.spec.partitions() * p.spec.array.macs() == 1 << 10));
        // The Fig. 11 shape: end-to-end, runtime falls and bandwidth rises.
        // (The paper calls the runtime trend "almost monotonic" — fixed
        // square-ish grids can mis-split a skewed layer at one point, so
        // only the endpoints are asserted strictly.)
        let (first, last) = (&points[0].report, &points[4].report);
        assert!(last.total_cycles() < first.total_cycles());
        assert!(last.peak_required_bandwidth() > first.peak_required_bandwidth());
    }

    #[test]
    fn partition_sweep_matches_single_shot_runs() {
        // The parallel engine path must be indistinguishable from a direct
        // serial Simulator loop — same reports, byte for byte.
        let plan = small_plan();
        let topology = &plan.workloads[0].topology;
        let layer = &topology.layers()[0];
        for p in run(&plan, 4).results {
            let fresh = Simulator::new(p.spec.config(&plan.base))
                .with_grid(p.spec.grid)
                .run_layer(layer);
            assert_eq!(p.report.layers(), std::slice::from_ref(&fresh));
            let fresh_network = NetworkReport::new(topology.name(), vec![fresh]);
            assert_eq!(p.report.to_csv(), fresh_network.to_csv());
        }
    }

    #[test]
    fn sweet_spot_is_an_interior_crossing() {
        let mut plan = small_plan();
        plan.budgets = vec![1 << 12];
        let outcome = run(&plan, 4);
        let [group] = groups(&outcome)[..] else {
            panic!("one (workload, budget, dataflow) group");
        };
        let spot = &outcome.results[group.sweet_spot.expect("nonempty sweep")];
        // The crossing cannot be the monolithic point (bandwidth starts
        // below runtime on this workload) and must exist.
        assert!(spot.spec.partitions() >= 1);
        assert!(outcome
            .results
            .iter()
            .any(|p| p.spec.grid == spot.spec.grid));
        // Normalized: runtime 1, 1/2, 1/4 and bandwidth 1/4, 1/2, 1 meet at
        // the middle point.
        assert_eq!(sweet_spot_index(&[100, 50, 25], &[1.0, 2.0, 4.0]), Some(1));
    }

    #[test]
    fn sweet_spot_of_empty_sweep_is_none() {
        assert!(summarize_groups(std::iter::empty()).is_empty());
        assert!(sweet_spot_index(&[], &[]).is_none());
    }

    #[test]
    fn engine_deduplicates_and_counts_hits_exactly() {
        let plan = small_plan();
        let engine = SweepEngine::with_registry(&Registry::new());
        let first = engine.run(&plan, 4).unwrap();
        assert_eq!(first.results.len(), 5);
        assert_eq!(first.simulations, 5);
        assert_eq!(first.cache_hits, 0);

        // A plan with in-plan duplicates: one budget listed twice.
        let mut doubled = small_plan();
        doubled.budgets = vec![1 << 10, 1 << 10];
        let outcome = engine.run(&doubled, 4).unwrap();
        assert_eq!(outcome.results.len(), 10);
        assert_eq!(outcome.simulations, 5);
        assert_eq!(outcome.cache_hits, 5);
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let mut plan = small_plan();
        plan.budgets = vec![1 << 10, 1 << 12];
        let serial_engine = SweepEngine::with_registry(&Registry::new());
        let mut serial = CsvSink::new(Vec::new());
        serial_engine.run_streaming(&plan, 1, &mut serial).unwrap();
        let parallel_engine = SweepEngine::with_registry(&Registry::new());
        let mut parallel = CsvSink::new(Vec::new());
        parallel_engine
            .run_streaming(&plan, 8, &mut parallel)
            .unwrap();
        let serial = String::from_utf8(serial.into_inner()).unwrap();
        let parallel = String::from_utf8(parallel.into_inner()).unwrap();
        assert!(!serial.is_empty());
        assert_eq!(serial, parallel);
        assert!(serial.starts_with(SWEEP_CSV_HEADER));
    }

    #[test]
    fn engine_records_sweep_telemetry() {
        let registry = Registry::new();
        let engine = SweepEngine::with_registry(&registry);
        let plan = small_plan();
        engine.run(&plan, 2).unwrap();
        let mut doubled = small_plan();
        doubled.budgets = vec![1 << 10, 1 << 10];
        engine.run(&doubled, 2).unwrap();
        assert_eq!(
            registry.counter_value(telemetry_names::POINTS, &[]),
            Some(15)
        );
        assert_eq!(
            registry.counter_value(telemetry_names::SIMULATIONS, &[]),
            Some(10)
        );
        assert_eq!(
            registry.counter_value(telemetry_names::CACHE_HITS, &[]),
            Some(5)
        );
    }

    #[test]
    fn an_enormous_sram_reads_what_a_merely_sufficient_one_does() {
        // 2^54 KB times 1024 is 2^64 bytes: the product used to wrap to an
        // IFMAP buffer of no bytes, refetching every fold's A stream.
        let dram_bytes = |ifmap_kb: &str| {
            let text = format!(
                "workload = TF1\nbudget = 2^10\ngrid = 1x1, 2x2\ndataflow = ws\n\
                 config.IfmapSramSz = {ifmap_kb}\n\
                 config.FilterSramSz = 64\nconfig.OfmapSramSz = 32\n"
            );
            let plan = SweepPlan::parse(&text).unwrap();
            let bytes: Vec<u64> = run(&plan, 1)
                .results
                .iter()
                .map(|point| point.report.total_dram_bytes())
                .collect();
            assert_eq!(bytes.len(), 2);
            bytes
        };
        // 1 GB holds TF1's whole IFMAP; 1 KB does not hold a fold row's.
        let sufficient = dram_bytes("1048576");
        assert_eq!(dram_bytes("18014398509481984"), sufficient);
        assert_eq!(dram_bytes("18446744073709551615"), sufficient);
        assert!(dram_bytes("1")[0] > sufficient[0]);
    }

    #[test]
    fn summarize_finds_best_and_sweet_spot_per_group() {
        let mut plan = small_plan();
        plan.budgets = vec![1 << 10, 1 << 12];
        let outcome = run(&plan, 4);
        let summary = groups(&outcome);
        assert_eq!(summary.len(), 2);
        for group in &summary {
            let best = &outcome.results[group.best];
            assert_eq!(best.spec.workload, "TF1");
            let spot = &outcome.results[group.sweet_spot.expect("multi-point group")];
            assert!(plan.budgets.contains(&best.spec.budget));
            // The best point has the minimum effective cycles of its group.
            let min = outcome
                .results
                .iter()
                .filter(|r| r.spec.budget == best.spec.budget)
                .map(|r| r.report.total_effective_cycles())
                .min()
                .unwrap();
            assert_eq!(best.report.total_effective_cycles(), min);
            assert_eq!(spot.spec.budget, best.spec.budget);
        }
    }
}
