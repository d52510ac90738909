//! The one worker pool. A [`Batch`] is a set of simulation jobs, one
//! [`Executor`] task per (job, layer); the task that retires a job's last
//! layer assembles its [`NetworkReport`] and fills the job's [`Slot`]. A
//! [`WorkerPool`] offers batches to its helpers oldest first: a helper
//! claims the next worker of the first batch that has one left, runs it
//! and reports in, so a many-layer job spreads over every idle helper.
//!
//! A sweep session (`SweepEngine`, `ExploreEngine`) shares each batch with
//! the `--jobs` − 1 helpers it started and runs worker 0 on its calling
//! thread, the in-order emitter. The server's `Engine` submits every
//! single-flight leader as a one-job batch, bounded by its queue depth, to
//! the `--workers` helpers [`WorkerPool::spawn`] names `sim-worker-{i}`.
//! So a process has one parallel runtime, one panic guard (the executor's
//! `catch_unwind`), one fault-injection site ([`FaultPlan::apply`] per
//! task) and one scheduling grain.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use scalesim_telemetry::Gauge;
use scalesim_topology::Topology;

use crate::exec::{Executor, FaultPlan, SimError, Slot};
use crate::report::{LayerReport, NetworkReport};
use crate::simulator::Simulator;

/// One simulation of a [`Batch`]: every layer of `topology` on `sim`.
#[derive(Debug, Clone)]
pub struct BatchJob<'a> {
    /// The simulator every layer of the job runs on.
    pub sim: Simulator,
    /// The layers in report order. Its name labels the report, the fault
    /// rules that apply and a panic's [`SimError`].
    pub topology: Cow<'a, Topology>,
}

/// A job's result: its report, or the panic that failed its batch.
pub type JobOutcome = Result<Arc<NetworkReport>, SimError>;

type OnDone<'a> = dyn Fn(&JobOutcome, Instant) + Send + Sync + 'a;

/// No pool or job lock is held across code that can panic.
const POISONED: &str = "a pool lock is never held across a panic";

/// Per-job state shared by the job's layer tasks.
struct JobState {
    layers: Mutex<Vec<Option<LayerReport>>>,
    /// Tasks of the job not yet retired.
    remaining: AtomicUsize,
    /// When the job's first task started.
    started: OnceLock<Instant>,
    /// First task start to assembly, once assembled.
    latency_micros: AtomicU64,
}

/// A set of simulation jobs as one [`Executor`] over (job, layer) tasks.
pub struct Batch<'a> {
    pub(crate) jobs: Vec<BatchJob<'a>>,
    /// (job, layer) per task index.
    tasks: Vec<(usize, usize)>,
    states: Vec<JobState>,
    /// Per job: its report, or — when a task of the batch panics — the
    /// typed error, so whoever waits on it always wakes.
    pub(crate) slots: Vec<Slot<JobOutcome>>,
    faults: FaultPlan,
    on_done: Box<OnDone<'a>>,
    /// Jobs assembled so far.
    pub(crate) simulated: AtomicUsize,
    pub(crate) exec: Executor,
}

impl<'a> Batch<'a> {
    /// A batch of `jobs` for at most `workers` workers, with `faults`
    /// applied at every task. Each layer is a task; an empty topology gets
    /// one task too, so its slot is filled by the same assembly path.
    pub fn new(jobs: Vec<BatchJob<'a>>, workers: usize, faults: FaultPlan) -> Batch<'a> {
        let mut tasks = Vec::new();
        let states: Vec<JobState> = jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                let layers = job.topology.len();
                tasks.extend((0..layers.max(1)).map(|layer| (j, layer)));
                JobState {
                    layers: Mutex::new(vec![None; layers]),
                    remaining: AtomicUsize::new(layers.max(1)),
                    started: OnceLock::new(),
                    latency_micros: AtomicU64::new(0),
                }
            })
            .collect();
        Batch {
            exec: Executor::new(tasks.len(), workers),
            slots: jobs.iter().map(|_| Slot::new()).collect(),
            jobs,
            tasks,
            states,
            faults,
            on_done: Box::new(|_, _| {}),
            simulated: AtomicUsize::new(0),
        }
    }

    /// Calls `on_done` once per job, on the worker that finished it, right
    /// after it filled the job's slot: with the outcome, and the instant
    /// the job's first task started.
    #[must_use]
    pub fn on_done(
        mut self,
        on_done: impl Fn(&JobOutcome, Instant) + Send + Sync + 'a,
    ) -> Batch<'a> {
        self.on_done = Box::new(on_done);
        self
    }

    /// Each job's wall latency, first task start to assembly, in job
    /// order; 0 for a job that was never assembled.
    pub(crate) fn latencies_micros(&self) -> Vec<u64> {
        self.states
            .iter()
            .map(|s| s.latency_micros.load(Ordering::Relaxed))
            .collect()
    }

    /// Runs worker `worker`'s schedule loop, calling `between` after each
    /// task that did not panic. A panic fails every job not yet finished
    /// with the typed error (a filled slot keeps its report).
    pub(crate) fn run_worker(&self, worker: usize, between: impl FnMut()) {
        let label = |t: usize| self.jobs[self.tasks[t].0].topology.name().to_owned();
        if let Some(err) =
            self.exec
                .run_worker_between(worker, |t| self.run_task(t), label, between)
        {
            for job in 0..self.jobs.len() {
                self.finish(job, Err(err.clone()));
            }
        }
    }

    /// Simulates task `t`: one layer of one job. The task that retires the
    /// job's last layer assembles the report in layer order — what
    /// `run_topology` produces, whichever workers simulated which layers.
    fn run_task(&self, t: usize) {
        let (j, layer) = self.tasks[t];
        let (job, state) = (&self.jobs[j], &self.states[j]);
        let started = *state.started.get_or_init(Instant::now);
        self.faults.apply(job.topology.name());
        if let Some(def) = job.topology.layers().get(layer) {
            let report = job.sim.run_layer(def);
            state.layers.lock().expect(POISONED)[layer] = Some(report);
        }
        if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            let layers = std::mem::take(&mut *state.layers.lock().expect(POISONED))
                .into_iter()
                .map(|r| r.expect("every layer task stored its report"))
                .collect();
            let report = Arc::new(NetworkReport::new(job.topology.name(), layers));
            state
                .latency_micros
                .store(started.elapsed().as_micros() as u64, Ordering::Relaxed);
            self.simulated.fetch_add(1, Ordering::Relaxed);
            self.finish(j, Ok(report));
        }
    }

    /// Fills job `job`'s slot with `outcome` unless it is filled already;
    /// the fill that wins calls [`Batch::on_done`]'s callback.
    fn finish(&self, job: usize, outcome: JobOutcome) {
        let started = *self.states[job].started.get_or_init(Instant::now);
        if self.slots[job].fill(outcome.clone()) {
            (self.on_done)(&outcome, started);
        }
    }
}

/// Why [`WorkerPool::submit`] refused a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The pool is closed ([`WorkerPool::close`]).
    Closed,
    /// This many batches already wait for a helper: the bound was reached.
    Full(usize),
}

/// Batches on offer, oldest first, and the helpers that work on them.
pub struct WorkerPool<'a> {
    state: Mutex<PoolState<'a>>,
    /// Helpers wait here for a batch to claim.
    wake: Condvar,
    /// [`WorkerPool::retire`] waits here for a batch's helpers.
    idle: Condvar,
    /// Reads the batches on offer that no helper has claimed.
    waiting: Arc<Gauge>,
    /// Reads the batches claimed and not yet finished.
    running: Arc<Gauge>,
}

struct PoolState<'a> {
    offers: VecDeque<Offer<'a>>,
    /// Offers of which no worker is claimed.
    waiting: usize,
    closed: bool,
}

struct Offer<'a> {
    batch: Arc<Batch<'a>>,
    /// Worker indices handed out: the next claim is worker `claimed`.
    claimed: usize,
    /// Helpers whose schedule loop on the batch has not returned.
    active: usize,
    /// Set once a schedule loop on the batch returned: every task is taken
    /// (or the batch aborted), so the batch takes no more helpers.
    spent: bool,
}

impl<'a> PoolState<'a> {
    fn position(&self, batch: *const Batch<'a>) -> Option<usize> {
        self.offers
            .iter()
            .position(|offer| Arc::as_ptr(&offer.batch) == batch)
    }

    /// Claims the next worker of the first batch that has one left.
    fn claim(&mut self) -> Option<(Arc<Batch<'a>>, usize)> {
        let offer = self
            .offers
            .iter_mut()
            .find(|offer| !offer.spent && offer.claimed < offer.batch.exec.workers())?;
        if offer.claimed == 0 {
            self.waiting -= 1;
        }
        offer.claimed += 1;
        offer.active += 1;
        Some((Arc::clone(&offer.batch), offer.claimed - 1))
    }

    /// Marks offer `at` spent and removes it if no helper is on it;
    /// returns whether it did.
    fn spend(&mut self, at: usize) -> bool {
        self.offers[at].spent = true;
        let done = self.offers[at].active == 0;
        if done {
            self.offers.remove(at);
        }
        done
    }
}

impl<'a> WorkerPool<'a> {
    /// A pool with no helper yet. `waiting` will read the batches on offer
    /// that no helper has claimed, `running` those claimed and not yet
    /// finished.
    pub fn new(waiting: Arc<Gauge>, running: Arc<Gauge>) -> WorkerPool<'a> {
        WorkerPool {
            state: Mutex::new(PoolState {
                offers: VecDeque::new(),
                waiting: 0,
                closed: false,
            }),
            wake: Condvar::new(),
            idle: Condvar::new(),
            waiting,
            running,
        }
    }

    /// The pool's lock, never held while a task runs.
    fn lock(&self) -> MutexGuard<'_, PoolState<'a>> {
        self.state.lock().expect(POISONED)
    }

    fn publish(&self, state: &PoolState<'a>) {
        self.waiting.set(state.waiting as i64);
        self.running
            .set((state.offers.len() - state.waiting) as i64);
    }

    /// Offers `batch` to the helpers, unless the pool is closed or `bound`
    /// batches already wait for one. Never blocks.
    ///
    /// # Errors
    ///
    /// [`Refused::Closed`] after [`WorkerPool::close`], so nothing is ever
    /// queued for helpers that are exiting; [`Refused::Full`] at the bound.
    pub fn submit(&self, batch: Arc<Batch<'a>>, bound: usize) -> Result<(), Refused> {
        let state = self.lock();
        if state.closed {
            return Err(Refused::Closed);
        }
        if state.waiting >= bound {
            return Err(Refused::Full(state.waiting));
        }
        self.offer(state, batch, 0);
        Ok(())
    }

    /// Offers `batch`'s workers from 1 on to the helpers: the calling
    /// thread runs worker 0 itself, then calls [`WorkerPool::retire`].
    pub(crate) fn share(&self, batch: &Arc<Batch<'a>>) {
        self.offer(self.lock(), Arc::clone(batch), 1);
    }

    fn offer(
        &self,
        mut state: MutexGuard<'_, PoolState<'a>>,
        batch: Arc<Batch<'a>>,
        claimed: usize,
    ) {
        let free = batch.exec.workers().saturating_sub(claimed);
        state.waiting += usize::from(claimed == 0);
        state.offers.push_back(Offer {
            batch,
            claimed,
            active: 0,
            spent: false,
        });
        self.publish(&state);
        drop(state);
        match free {
            0 => {}
            1 => self.wake.notify_one(),
            _ => self.wake.notify_all(),
        }
    }

    /// Withdraws a batch [`WorkerPool::share`]d by the calling thread, once
    /// its own schedule loop returned, and waits for the helpers that
    /// claimed it to report in: then no helper holds the batch, and one
    /// that wakes later finds nothing.
    pub(crate) fn retire(&self, batch: &Arc<Batch<'a>>) {
        let mut state = self.lock();
        while let Some(at) = state.position(Arc::as_ptr(batch)) {
            if state.spend(at) {
                self.publish(&state);
                return;
            }
            state = self.idle.wait(state).expect(POISONED);
        }
    }

    /// Refuses every batch from now on. The helpers run what is on offer
    /// to the end, then exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.wake.notify_all();
    }

    /// True when no batch is on offer or running.
    pub fn is_idle(&self) -> bool {
        self.lock().offers.is_empty()
    }

    /// A helper's life: claims a worker of the first batch that has one
    /// left, runs it and reports in, until the pool is closed and nothing
    /// is left to claim. `helper` numbers its `sweep.worker` trace span.
    pub fn help(&self, helper: usize) {
        let _span = scalesim_telemetry::trace::span_with("sweep.worker", || {
            vec![("worker", helper.to_string())]
        });
        let mut state = self.lock();
        loop {
            if let Some((batch, worker)) = state.claim() {
                self.publish(&state);
                drop(state);
                batch.run_worker(worker, || {});
                let ran = Arc::as_ptr(&batch);
                drop(batch);
                state = self.lock();
                // The offer holds the batch until its helpers report in, so
                // the pointer still names it.
                let at = state.position(ran).expect("a claimed batch is on offer");
                state.offers[at].active -= 1;
                state.spend(at);
                self.publish(&state);
                self.idle.notify_all();
            } else if state.closed {
                return;
            } else {
                state = self.wake.wait(state).expect(POISONED);
            }
        }
    }
}

impl WorkerPool<'static> {
    /// Starts `helpers` detached threads named `{name}-0`, `{name}-1`, …
    /// that [`WorkerPool::help`] until the pool is closed and drained.
    pub fn spawn(self: &Arc<Self>, helpers: usize, name: &str) {
        for i in 0..helpers {
            let pool = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("{name}-{i}"))
                .spawn(move || pool.help(i))
                .expect("spawn a pool helper");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use scalesim_topology::Layer;
    use std::time::Duration;

    /// A job of `layers` small GEMMs, every layer distinct.
    fn job(name: &str, layers: u64) -> BatchJob<'static> {
        let layers = (0..layers)
            .map(|l| Layer::gemm(format!("{name}-{l}"), 4 + l, 8, 12))
            .collect();
        BatchJob {
            sim: Simulator::new(SimConfig::default()),
            topology: Cow::Owned(Topology::from_layers(name, layers)),
        }
    }

    fn batch(name: &str, layers: u64, workers: usize) -> Arc<Batch<'static>> {
        Arc::new(Batch::new(
            vec![job(name, layers)],
            workers,
            FaultPlan::new(),
        ))
    }

    /// A seeded delay: nothing, a yield or a short spin, so every seed
    /// drives the threads through a different interleaving.
    fn jitter(seed: u64, at: u64) {
        let mut x = (seed ^ at).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        match x % 4 {
            0 => std::thread::yield_now(),
            1 => (0..x % 257).for_each(|_| std::hint::spin_loop()),
            _ => {}
        }
    }

    #[test]
    fn concurrent_submitters_each_get_their_jobs_simulated_once() {
        for seed in 0..6u64 {
            let (waiting, running) = (Arc::new(Gauge::new()), Arc::new(Gauge::new()));
            let pool = WorkerPool::new(Arc::clone(&waiting), Arc::clone(&running));
            let batches: Vec<Arc<Batch<'_>>> = std::thread::scope(|scope| {
                for helper in 0..3 {
                    let pool = &pool;
                    scope.spawn(move || pool.help(helper));
                }
                let submitters: Vec<_> = (0..4u64)
                    .map(|s| {
                        let pool = &pool;
                        scope.spawn(move || {
                            (0..5u64)
                                .map(|b| {
                                    jitter(seed, 8 * s + b);
                                    let batch =
                                        batch(&format!("s{s}b{b}"), 1 + (seed + s + b) % 4, 3);
                                    pool.submit(Arc::clone(&batch), usize::MAX)
                                        .expect("an open pool without a bound takes every batch");
                                    batch
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let batches: Vec<_> = submitters
                    .into_iter()
                    .flat_map(|s| s.join().unwrap())
                    .collect();
                for batch in &batches {
                    assert!(batch.slots[0].wait(None).unwrap().is_ok());
                }
                pool.close();
                batches
            });
            for batch in &batches {
                let topology = &batch.jobs[0].topology;
                let report = batch.slots[0].try_get().unwrap().unwrap();
                assert_eq!(
                    *report,
                    Simulator::new(SimConfig::default()).run_topology(topology)
                );
                assert_eq!(
                    batch.exec.summary().tasks,
                    topology.len() as u64,
                    "seed {seed}"
                );
                assert_eq!(batch.simulated.load(Ordering::Relaxed), 1);
            }
            assert!(pool.is_idle());
            assert_eq!((waiting.get(), running.get()), (0, 0));
        }
    }

    #[test]
    fn close_racing_bounded_submits_never_strands_a_batch() {
        for seed in 0..24u64 {
            let (waiting, running) = (Arc::new(Gauge::new()), Arc::new(Gauge::new()));
            let pool = WorkerPool::new(Arc::clone(&waiting), Arc::clone(&running));
            let accepted: Vec<Arc<Batch<'_>>> = std::thread::scope(|scope| {
                let pool = &pool;
                scope.spawn(move || pool.help(0));
                let submitters: Vec<_> = (0..3u64)
                    .map(|s| {
                        scope.spawn(move || {
                            let mut accepted = Vec::new();
                            for b in 0..6 {
                                jitter(seed, 8 * s + b);
                                let batch = batch("racer", 1, 1);
                                match pool.submit(Arc::clone(&batch), 2) {
                                    Ok(()) => accepted.push(batch),
                                    Err(Refused::Full(waiting)) => assert_eq!(waiting, 2),
                                    Err(Refused::Closed) => {}
                                }
                            }
                            accepted
                        })
                    })
                    .collect();
                jitter(seed, 99);
                pool.close();
                assert_eq!(
                    pool.submit(batch("late", 1, 1), usize::MAX),
                    Err(Refused::Closed)
                );
                submitters
                    .into_iter()
                    .flat_map(|s| s.join().unwrap())
                    .collect()
            });
            // The scope joined the helper, which ran every accepted batch
            // before it exited: none was queued behind the close.
            for batch in &accepted {
                assert!(
                    batch.slots[0].try_get().is_some_and(|r| r.is_ok()),
                    "seed {seed}"
                );
            }
            assert!(pool.is_idle());
            assert_eq!((waiting.get(), running.get()), (0, 0));
        }
    }

    #[test]
    fn a_helper_that_wakes_after_its_batch_was_withdrawn_finds_nothing() {
        // Even seeds start the helper before the caller runs its share,
        // odd ones only after the batch was retired.
        for seed in 0..32u64 {
            let pool = WorkerPool::new(Arc::default(), Arc::default());
            std::thread::scope(|scope| {
                let shared = batch("shared", 5, 2);
                pool.share(&shared);
                let early = (seed % 2 == 0).then(|| {
                    scope.spawn(|| {
                        jitter(seed, 0);
                        pool.help(1)
                    })
                });
                shared.run_worker(0, || jitter(seed, 1));
                pool.retire(&shared);
                assert_eq!(Arc::strong_count(&shared), 1, "a helper kept the batch");
                assert!(pool.is_idle());
                let late = scope.spawn(|| pool.help(2));
                jitter(seed, 2);
                pool.close();
                for helper in early.into_iter().chain([late]) {
                    helper.join().unwrap();
                }
                assert_eq!(shared.exec.summary().tasks, 5, "seed {seed}");
                assert!(shared.slots[0].try_get().is_some_and(|r| r.is_ok()));
            });
        }
    }

    #[test]
    fn a_panicking_one_job_batch_leaves_its_helper_alive() {
        for seed in 0..6u64 {
            let finished = AtomicUsize::new(0);
            let pool = WorkerPool::new(Arc::default(), Arc::default());
            let faults = FaultPlan::new().panic("bad", "injected");
            let on_done = |want: &'static str| {
                let finished = &finished;
                move |outcome: &JobOutcome, _| {
                    jitter(seed, 3);
                    let name = outcome.as_ref().map_or("", |report| report.name());
                    assert_eq!(name, want);
                    finished.fetch_add(1, Ordering::Relaxed);
                }
            };
            let bad =
                Arc::new(Batch::new(vec![job("bad", 3)], 1, faults.clone()).on_done(on_done("")));
            let good =
                Arc::new(Batch::new(vec![job("good", 2)], 1, faults).on_done(on_done("good")));
            std::thread::scope(|scope| {
                scope.spawn(|| pool.help(0));
                pool.submit(Arc::clone(&bad), usize::MAX).unwrap();
                jitter(seed, 4);
                pool.submit(Arc::clone(&good), usize::MAX).unwrap();
                let err = bad.slots[0].wait(None).unwrap().unwrap_err();
                assert_eq!(err, SimError::new("bad", "injected"));
                assert!(good.slots[0].wait(None).unwrap().is_ok());
                pool.close();
            });
            assert_eq!(finished.load(Ordering::Relaxed), 2, "one callback per job");
        }
    }

    #[test]
    fn the_layers_of_one_job_spread_over_the_helpers() {
        let pool = WorkerPool::new(Arc::default(), Arc::default());
        let slow = Arc::new(Batch::new(
            vec![job("slow", 6)],
            2,
            FaultPlan::new().delay("slow", Duration::from_millis(30)),
        ));
        std::thread::scope(|scope| {
            for helper in 0..2 {
                let pool = &pool;
                scope.spawn(move || pool.help(helper));
            }
            pool.submit(Arc::clone(&slow), 1).unwrap();
            assert!(slow.slots[0].wait(None).unwrap().is_ok());
            pool.close();
        });
        let summary = slow.exec.summary();
        assert_eq!(summary.tasks, 6);
        assert_eq!(summary.worker_busy.len(), 2);
        assert!(
            summary.worker_busy.iter().all(|&busy| busy > 0.0),
            "{summary:?}"
        );
    }
}
