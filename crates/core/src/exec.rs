//! Panic-safe execution primitives under the one worker pool
//! ([`crate::pool`]), which runs the sweep engine's, the explore
//! pipeline's and the server's simulations.
//!
//! A simulator bug that panics must never take the host down with it —
//! and, worse, must never *hang* it: before this module existed, a
//! panicking sweep worker simply never filled its completion slot and the
//! in-order emitter waited forever. Every simulation task now runs under
//! the [`Executor`]'s `catch_unwind`, which converts a panic into a typed
//! [`SimError`] that the caller can poison completion slots with, surface
//! over HTTP, or print — while every other worker keeps running or exits
//! cleanly.
//!
//! [`FaultPlan`] is the deterministic fault-injection hook used by tests
//! at every level (core sweep, explore, server engine): it matches jobs
//! by workload name and delays or panics their simulation at every task
//! a pool batch runs, exercising the recovery paths without real overload
//! or real bugs.
//!
//! # The executor
//!
//! [`Executor`] schedules a fixed set of tasks over per-worker *blocks*:
//! the task indices `0..tasks` are cut into one contiguous block per
//! worker, and a block is nothing but its range and an atomic count of
//! the tasks taken from it. A worker takes tasks from its own block with
//! `fetch_add` and, once that is dry, from the next workers' blocks in
//! round-robin order — a *steal*. Every taker walks worker 0's block from
//! its first index to its last and every other block from its last index
//! to its first. Tasks are split at *layer* granularity —
//! layer costs vary by orders of magnitude with fold count, so whole-point
//! scheduling lets one unlucky worker set the tail latency of the whole
//! sweep; layer tasks let idle workers take over the remainder of an
//! expensive block. Every task runs under `catch_unwind`; a panic aborts
//! the run and is returned as the typed [`SimError`]. Blocks, not one
//! shared cursor, keep neighbouring points — which share layers — on one
//! worker; worker 0, a sweep session's in-order emitter, walks its block
//! forward so rows stream between its tasks. DESIGN.md §3.9 has the
//! measurements behind both. Tasks only *compute* and consumers assemble
//! in a fixed order, so which worker ran a task is invisible in the
//! output.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A simulation task that panicked, caught at the execution boundary and
/// converted into a value. `task` names what was being simulated (the
/// workload label); `message` carries the panic payload when it was a
/// string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimError {
    /// What was being simulated (workload or layer label).
    pub task: String,
    /// The panic payload, when it was a string (a fixed fallback text
    /// otherwise).
    pub message: String,
}

impl SimError {
    /// An error for task `task` with panic payload `message`.
    pub fn new(task: impl Into<String>, message: impl Into<String>) -> SimError {
        SimError {
            task: task.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulation of `{}` panicked: {}",
            self.task, self.message
        )
    }
}

impl std::error::Error for SimError {}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` payloads; a fixed fallback otherwise).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "simulation panicked".to_owned()
    }
}

/// Deterministic fault injection for tests: match jobs by workload name
/// and delay or panic their simulation inside the worker that runs it.
/// This is how the panic-recovery, shedding, deadline and drain paths are
/// exercised without real overload; it is a test hook, not a production
/// feature (an empty plan — the default — injects nothing).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    rules: Vec<(String, FaultAction)>,
}

#[derive(Debug, Clone)]
enum FaultAction {
    Delay(Duration),
    Panic(String),
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Sleep `delay` inside the worker before simulating any job whose
    /// workload name is `workload` — a deterministic stand-in for a slow
    /// simulation. The delay applies at every task boundary the job
    /// crosses, so a job split into several tasks sleeps once per task.
    pub fn delay(mut self, workload: &str, delay: Duration) -> FaultPlan {
        self.rules
            .push((workload.into(), FaultAction::Delay(delay)));
        self
    }

    /// Panic with `message` instead of simulating any job whose workload
    /// name is `workload` — exercises the executor's panic recovery.
    pub fn panic(mut self, workload: &str, message: &str) -> FaultPlan {
        self.rules
            .push((workload.into(), FaultAction::Panic(message.into())));
        self
    }

    /// Applies every matching rule for `workload`: sleeps on delay rules,
    /// panics on panic rules. Executors call this at each task boundary,
    /// inside their `catch_unwind`.
    pub fn apply(&self, workload: &str) {
        for (name, action) in &self.rules {
            if name == workload {
                match action {
                    FaultAction::Delay(d) => std::thread::sleep(*d),
                    FaultAction::Panic(msg) => panic!("{msg}"),
                }
            }
        }
    }
}

/// A completion slot: empty until its first [`Slot::fill`], which wins —
/// later fills are ignored — and then read by any number of waiters.
///
/// The one primitive every "wait for a result another thread produces"
/// in the workspace waits on: a sweep batch's in-order emitter waits on one
/// slot per distinct point (a panic fills every empty one with the error,
/// so the emitter always wakes), and a server ticket waits on its
/// single-flight leader's.
#[derive(Debug)]
pub struct Slot<T> {
    value: Mutex<Option<T>>,
    filled: Condvar,
}

impl<T> Default for Slot<T> {
    fn default() -> Slot<T> {
        Slot {
            value: Mutex::new(None),
            filled: Condvar::new(),
        }
    }
}

/// A slot's lock is held only to store or clone its value, so it is
/// poisoned only if `T::clone` panicked.
const POISONED: &str = "a slot's value panicked while being cloned";

impl<T: Clone> Slot<T> {
    /// An empty slot.
    pub fn new() -> Slot<T> {
        Slot::default()
    }

    /// Fills the slot with `value` and wakes every waiter, unless it is
    /// already filled. Returns whether this call filled it.
    pub fn fill(&self, value: T) -> bool {
        let mut slot = self.value.lock().expect(POISONED);
        if slot.is_some() {
            return false;
        }
        *slot = Some(value);
        self.filled.notify_all();
        true
    }

    /// The value if the slot is filled, without waiting.
    pub fn try_get(&self) -> Option<T> {
        self.value.lock().expect(POISONED).clone()
    }

    /// Waits for the value, up to `deadline` if one is given: `None` once
    /// the deadline passes with the slot still empty. A later wait still
    /// gets the value when it comes.
    pub fn wait(&self, deadline: Option<Instant>) -> Option<T> {
        let mut slot = self.value.lock().expect(POISONED);
        loop {
            if let Some(value) = slot.as_ref() {
                return Some(value.clone());
            }
            slot = match deadline {
                None => self.filled.wait(slot).expect(POISONED),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    self.filled.wait_timeout(slot, left).expect(POISONED).0
                }
            };
        }
    }
}

/// One worker's share of the task set: the contiguous task indices
/// `tasks`, of which `taken` are gone — the first ones if `forward`, else
/// the last ones. `taken` only grows, so a block found dry stays dry.
///
/// `Relaxed` is enough for the cursor: it publishes nothing. What a task
/// index refers to was written before the workers got the executor
/// (thread spawn, or the pool's mutex under which a batch is offered to
/// its helpers, orders that), and `fetch_add` alone makes every index
/// go to exactly one taker.
struct Block {
    tasks: Range<usize>,
    taken: AtomicUsize,
    forward: bool,
}

impl Block {
    /// Takes the block's next task, if it has one left, in the block's
    /// direction (see the module docs for why). A worker stops visiting a
    /// block that told it `None`, so the cursor overshoots the block's
    /// length by at most the worker count.
    fn take(&self) -> Option<usize> {
        let n = self.taken.fetch_add(1, Ordering::Relaxed);
        (n < self.tasks.len()).then(|| {
            if self.forward {
                self.tasks.start + n
            } else {
                self.tasks.end - 1 - n
            }
        })
    }
}

/// Per-worker scheduling counters (shared, so the summary can be read
/// after the scope joins).
#[derive(Default)]
struct WorkerStats {
    executed: AtomicU64,
    stolen: AtomicU64,
    busy_nanos: AtomicU64,
    wall_nanos: AtomicU64,
}

/// Scheduling counters of one executor run: how much work ran, how much
/// of it moved between workers, and how busy each worker was.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecSummary {
    /// Tasks executed (including a panicking one, if any).
    pub tasks: u64,
    /// Tasks a worker took from another worker's block.
    pub steals: u64,
    /// Per-worker busy fraction in `[0, 1]`: time spent inside task
    /// bodies over the worker's wall time in the pool.
    pub worker_busy: Vec<f64>,
}

/// A panic-safe executor over a fixed task set.
///
/// Construction cuts the task indices `0..tasks` into one contiguous
/// block per worker (so a worker's own block holds consecutive layers
/// of the same jobs). Workers call [`Executor::run_worker`] — typically
/// from a scoped thread each — which loops: take from the own block, else
/// from the next block that has anything left, and returns once every
/// block is dry. Each task body runs under `catch_unwind`; a panic
/// becomes a typed [`SimError`], aborts every worker, and is returned from
/// the panicking worker's `run_worker` so the caller can poison downstream
/// consumers. The default panic hook still prints the panic to stderr
/// first, so post-mortems keep their backtrace.
pub struct Executor {
    blocks: Vec<Block>,
    stats: Vec<WorkerStats>,
    abort: AtomicBool,
}

impl Executor {
    /// An executor over tasks `0..tasks` for `workers` workers, the task
    /// indices cut into one contiguous block per worker.
    pub fn new(tasks: usize, workers: usize) -> Executor {
        let workers = workers.max(1).min(tasks.max(1));
        let per = tasks.div_ceil(workers);
        Executor {
            blocks: (0..workers)
                .map(|w| Block {
                    tasks: (w * per).min(tasks)..((w + 1) * per).min(tasks),
                    taken: AtomicUsize::new(0),
                    forward: w == 0,
                })
                .collect(),
            stats: (0..workers).map(|_| WorkerStats::default()).collect(),
            abort: AtomicBool::new(false),
        }
    }

    /// Actual worker count (clamped to the task count, minimum one).
    pub fn workers(&self) -> usize {
        self.blocks.len()
    }

    /// Requests an orderly stop: workers finish their current task and
    /// exit. Used by consumers that fail (e.g. a sink I/O error).
    pub fn abort(&self) {
        self.abort.store(true, Ordering::Relaxed);
    }

    /// Runs worker `worker`'s schedule loop until the task set is
    /// exhausted or the run aborts. `task` executes one task index (it
    /// runs under `catch_unwind`); `label` names a task for the
    /// [`SimError`] if that task panics, and is only called on panic.
    ///
    /// Returns the error if a task panicked *on this worker* — the caller
    /// owns propagation (poisoning completion slots, failing the job) so
    /// exactly one worker reports each panic.
    pub fn run_worker<F, L>(&self, worker: usize, task: F, label: L) -> Option<SimError>
    where
        F: Fn(usize),
        L: Fn(usize) -> String,
    {
        self.run_worker_between(worker, task, label, || {})
    }

    /// [`Executor::run_worker`], calling `between` after every task that
    /// did not panic: a sweep session's calling thread, which is worker 0,
    /// emits the rows its tasks completed there.
    pub(crate) fn run_worker_between<F, L>(
        &self,
        worker: usize,
        task: F,
        label: L,
        mut between: impl FnMut(),
    ) -> Option<SimError>
    where
        F: Fn(usize),
        L: Fn(usize) -> String,
    {
        let started = Instant::now();
        let stats = &self.stats[worker];
        let mut result = None;
        // How many blocks, starting with its own, this worker has found dry.
        let mut dry = 0;
        while let Some(t) = self.find_task(worker, &mut dry) {
            let span = scalesim_telemetry::trace::span_with("exec.task", || {
                vec![("task", t.to_string()), ("worker", worker.to_string())]
            });
            let task_started = Instant::now();
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(t)));
            drop(span);
            stats
                .busy_nanos
                .fetch_add(task_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            stats.executed.fetch_add(1, Ordering::Relaxed);
            if let Err(panic) = run {
                self.abort.store(true, Ordering::Relaxed);
                result = Some(SimError::new(label(t), panic_message(panic.as_ref())));
                break;
            }
            between();
        }
        stats
            .wall_nanos
            .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        result
    }

    /// Next task for `worker`: from its own block, then from the blocks
    /// after it, round-robin. `dry` counts the blocks already found
    /// empty, which stay empty — the task set is fixed at construction and
    /// tasks never push tasks — so each is visited once. `None` once the
    /// run aborts or every block is dry: the worker returns instead of
    /// waiting for its peers to finish the tasks they hold.
    fn find_task(&self, worker: usize, dry: &mut usize) -> Option<usize> {
        while *dry < self.blocks.len() && !self.abort.load(Ordering::Relaxed) {
            if let Some(t) = self.blocks[(worker + *dry) % self.blocks.len()].take() {
                if *dry > 0 {
                    self.stats[worker].stolen.fetch_add(1, Ordering::Relaxed);
                }
                return Some(t);
            }
            *dry += 1;
        }
        None
    }

    /// Scheduling counters of the run so far (stable once every
    /// `run_worker` has returned).
    pub fn summary(&self) -> ExecSummary {
        ExecSummary {
            tasks: self
                .stats
                .iter()
                .map(|s| s.executed.load(Ordering::Relaxed))
                .sum(),
            steals: self
                .stats
                .iter()
                .map(|s| s.stolen.load(Ordering::Relaxed))
                .sum(),
            worker_busy: self
                .stats
                .iter()
                .map(|s| {
                    let wall = s.wall_nanos.load(Ordering::Relaxed);
                    if wall == 0 {
                        0.0
                    } else {
                        s.busy_nanos.load(Ordering::Relaxed) as f64 / wall as f64
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panic_becomes_a_typed_error_naming_its_task() {
        let exec = Executor::new(2, 1);
        let err = exec.run_worker(0, |t| assert!(t == 0, "boom {t}"), |t| format!("TF{t}"));
        let err = err.expect("task 1 panicked");
        assert_eq!(err, SimError::new("TF1", "boom 1"));
        assert_eq!(err.to_string(), "simulation of `TF1` panicked: boom 1");
        let exec = Executor::new(1, 1);
        let err = exec.run_worker(0, |_| std::panic::panic_any(17u32), |_| "t".into());
        assert_eq!(err.expect("it panicked").message, "simulation panicked");
    }

    #[test]
    fn fault_plan_matches_by_workload() {
        let plan = FaultPlan::new().panic("bad", "injected");
        plan.apply("good"); // no rule -> no effect
        let exec = Executor::new(1, 1);
        let err = exec.run_worker(0, |_| plan.apply("bad"), |_| "bad".into());
        assert_eq!(err, Some(SimError::new("bad", "injected")));
    }

    /// Drives `exec` with `workers` scoped threads running `task`; returns
    /// the errors the workers returned.
    fn drive(exec: &Executor, task: impl Fn(usize) + Sync) -> Vec<SimError> {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..exec.workers())
                .map(|w| {
                    let task = &task;
                    scope.spawn(move || exec.run_worker(w, task, |t| t.to_string()))
                })
                .collect();
            workers
                .into_iter()
                .filter_map(|w| w.join().unwrap())
                .collect()
        })
    }

    /// A seeded delay for task `t`: nothing, a yield or a short spin, so
    /// every seed drives the workers through a different interleaving.
    fn jitter(seed: u64, t: usize) {
        let mut x = (seed ^ t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 29;
        match x % 4 {
            0 => std::thread::yield_now(),
            1 => (0..x % 257).for_each(|_| std::hint::spin_loop()),
            _ => {}
        }
    }

    fn run_counts(counts: &[AtomicU64]) -> Vec<u64> {
        counts.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn every_task_executes_exactly_once() {
        // Worker counts 1..=8 against task counts on both sides of every
        // block boundary, under seeded delays.
        for workers in 1..=8usize {
            for total in [0, 1, workers - 1, workers, workers + 1, 257, 10_000] {
                let seed = (workers * 10_007 + total) as u64;
                let counts: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
                let exec = Executor::new(total, workers);
                assert_eq!(exec.workers(), workers.min(total.max(1)));
                let errors = drive(&exec, |t| {
                    jitter(seed, t);
                    counts[t].fetch_add(1, Ordering::Relaxed);
                });
                assert!(errors.is_empty());
                assert_eq!(
                    run_counts(&counts),
                    vec![1; total],
                    "{total} tasks on {workers} workers"
                );
                let summary = exec.summary();
                assert_eq!(summary.tasks, total as u64);
                assert_eq!(summary.worker_busy.len(), exec.workers());
            }
        }
    }

    #[test]
    fn a_slow_block_is_drained_by_the_other_workers() {
        // Worker 0 sits in the first task it takes (its block's first
        // index) until some other task of that block has run — which only
        // another worker can have taken.
        for workers in 2..=8usize {
            let total = 16 * workers;
            let counts: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
            let taken_over = AtomicBool::new(false);
            let exec = Executor::new(total, workers);
            drive(&exec, |t| {
                counts[t].fetch_add(1, Ordering::Relaxed);
                if t == 0 {
                    let started = Instant::now();
                    while !taken_over.load(Ordering::Acquire) {
                        assert!(
                            started.elapsed() < Duration::from_secs(60),
                            "nobody took over worker 0's block"
                        );
                        std::thread::yield_now();
                    }
                } else if t < 16 {
                    taken_over.store(true, Ordering::Release);
                }
            });
            assert_eq!(run_counts(&counts), vec![1; total]);
            let summary = exec.summary();
            assert_eq!(summary.tasks, total as u64);
            assert!(summary.steals > 0, "{workers} workers stole nothing");
            assert!(summary.steals <= total as u64);
        }
    }

    #[test]
    fn a_panic_or_abort_mid_run_stops_every_worker_and_repeats_no_task() {
        for workers in 1..=8usize {
            for (seed, panics) in [(1u64, true), (2, false)] {
                let total = 10_000;
                // The task that ends the run: somewhere in the first block.
                let fatal = (seed as usize * 7919 + workers) % (total / 8);
                let counts: Vec<AtomicU64> = (0..total).map(|_| AtomicU64::new(0)).collect();
                let exec = Executor::new(total, workers);
                // `drive` returning is every worker having stopped.
                let errors = drive(&exec, |t| {
                    jitter(seed + workers as u64, t);
                    counts[t].fetch_add(1, Ordering::Relaxed);
                    if t == fatal {
                        if panics {
                            panic!("task {t} exploded");
                        }
                        exec.abort();
                    }
                });
                let ran = run_counts(&counts);
                assert!(ran.iter().all(|&n| n <= 1), "a task ran twice");
                assert_eq!(ran[fatal], 1);
                assert_eq!(exec.summary().tasks, ran.iter().sum::<u64>());
                let want = SimError::new(fatal.to_string(), format!("task {fatal} exploded"));
                assert_eq!(
                    errors,
                    panics.then_some(want).into_iter().collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn worker_zero_s_block_is_walked_forward_and_the_others_backward() {
        // Worker 1 alone: its own block from the last index, then worker
        // 0's from the first — the order worker 0, a session's in-order
        // emitter, fills rows in.
        let exec = Executor::new(8, 2);
        let order = Mutex::new(Vec::new());
        exec.run_worker(1, |t| order.lock().unwrap().push(t), |t| t.to_string());
        assert_eq!(*order.lock().unwrap(), [7, 6, 5, 4, 0, 1, 2, 3]);
        assert_eq!(exec.summary().steals, 4);
    }

    #[test]
    fn uneven_blocks_get_rebalanced_by_stealing() {
        // All the slow tasks start in worker 0's block; with more workers
        // than one, some of them must be stolen.
        let total = 64;
        let exec = Executor::new(total, 4);
        drive(&exec, |t| {
            if t < total / 4 {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let summary = exec.summary();
        assert_eq!(summary.tasks, total as u64);
        assert!(
            summary.steals > 0,
            "a skewed block distribution must trigger steals"
        );
    }

    #[test]
    fn a_panicking_task_aborts_the_run_with_its_error() {
        let total = 100;
        let executed = AtomicU64::new(0);
        let exec = Executor::new(total, 4);
        let errors = drive(&exec, |t| {
            executed.fetch_add(1, Ordering::Relaxed);
            if t == 17 {
                panic!("task 17 exploded");
            }
        });
        assert_eq!(errors, [SimError::new("17", "task 17 exploded")]);
        // The abort is prompt: at least the panicking task ran, but the
        // run did not insist on finishing everything.
        assert!(executed.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn external_abort_stops_workers() {
        let exec = Executor::new(1000, 2);
        exec.abort();
        assert!(drive(&exec, |_| {}).is_empty());
        assert_eq!(exec.summary().tasks, 0);
    }

    #[test]
    fn slot_waiters_with_and_without_deadlines_all_see_the_fill() {
        // Eight waiters race one filler under seeded yields and spins:
        // even ones wait unbounded, odd ones in short deadlines, retrying
        // after each expiry.
        for seed in 0..200u64 {
            let slot: Slot<u64> = Slot::new();
            let expired = AtomicU64::new(0);
            let seen: Vec<u64> = std::thread::scope(|scope| {
                let waiters: Vec<_> = (0..8usize)
                    .map(|w| {
                        let (slot, expired) = (&slot, &expired);
                        scope.spawn(move || {
                            jitter(seed, w);
                            if w % 2 == 0 {
                                return slot.wait(None).expect("an unbounded wait returns");
                            }
                            loop {
                                let deadline = Instant::now() + Duration::from_micros(w as u64);
                                match slot.wait(Some(deadline)) {
                                    Some(value) => return value,
                                    None => {
                                        assert!(Instant::now() >= deadline);
                                        expired.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        })
                    })
                    .collect();
                jitter(seed, 8);
                assert!(slot.fill(seed), "the first fill wins");
                assert!(!slot.fill(seed + 1), "a second fill is ignored");
                waiters.into_iter().map(|h| h.join().unwrap()).collect()
            });
            assert_eq!(seen, vec![seed; 8], "seed {seed}");
            assert_eq!(slot.try_get(), Some(seed));
        }
    }

    #[test]
    fn an_expired_slot_wait_returns_none_and_a_later_wait_the_value() {
        let slot: Slot<&str> = Slot::new();
        assert_eq!(slot.try_get(), None);
        assert_eq!(slot.wait(Some(Instant::now())), None);
        let later = Instant::now() + Duration::from_millis(5);
        assert_eq!(slot.wait(Some(later)), None);
        assert!(Instant::now() >= later);
        assert!(slot.fill("done"));
        // A deadline already past still reads a filled slot.
        assert_eq!(slot.wait(Some(later)), Some("done"));
        assert_eq!(slot.wait(None), Some("done"));
    }

    #[test]
    fn a_poison_never_overwrites_a_fill() {
        // A sweep batch's slots: a worker fills some with reports while
        // another, whose task panicked, fills every still-empty one with
        // the error. Each slot keeps whichever fill came first.
        for seed in 0..200u64 {
            let slots: Vec<Slot<Result<usize, &str>>> = (0..16).map(|_| Slot::new()).collect();
            let (filled, poisoned) = std::thread::scope(|scope| {
                let filler = scope.spawn(|| {
                    (0..16)
                        .filter(|&i| i % 3 != 0)
                        .filter(|&i| {
                            jitter(seed, i);
                            slots[i].fill(Ok(i))
                        })
                        .collect::<Vec<usize>>()
                });
                let poisoner = scope.spawn(|| {
                    jitter(seed, 16);
                    (0..16)
                        .filter(|&i| slots[i].fill(Err("panicked")))
                        .collect::<Vec<usize>>()
                });
                (filler.join().unwrap(), poisoner.join().unwrap())
            });
            for (i, slot) in slots.iter().enumerate() {
                let expected = if filled.contains(&i) {
                    Ok(i)
                } else {
                    Err("panicked")
                };
                assert_eq!(slot.wait(None), Some(expected), "seed {seed}, slot {i}");
                assert_ne!(filled.contains(&i), poisoned.contains(&i));
            }
        }
    }
}
