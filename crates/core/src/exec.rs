//! Panic-safe execution primitives shared by the sweep engine, the
//! explore pipeline and the server worker pool.
//!
//! A simulator bug that panics must never take the host down with it —
//! and, worse, must never *hang* it: before this module existed, a
//! panicking sweep worker simply never filled its completion slot and the
//! in-order emitter waited forever. Every simulation task now runs inside
//! [`run_caught`], which converts a panic into a typed [`SimError`] that
//! the caller can poison completion slots with, surface over HTTP, or
//! print — while every other worker keeps running or exits cleanly.
//!
//! [`FaultPlan`] is the deterministic fault-injection hook used by tests
//! at every level (core sweep, explore, server engine): it matches jobs
//! by workload name and delays or panics their simulation, exercising the
//! recovery paths without real overload or real bugs.
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
//! expensive block. Every task runs under [`run_caught`]; the first panic
//! aborts the run and is returned as the typed [`SimError`].
//!
//! Why blocks and not one shared cursor, which is simpler still: against
//! the per-worker deques this replaced, one global cursor measured
//! `explore_gemm_100k` `pass_s` 0.627 → 0.721 (0 of 6 pairs won) and
//! `cpu_s_per_pass` ×1.19 — more work, not more waiting: neighbouring
//! points share layers (`auto` sits next to its fixed dataflow) and two
//! workers then simulate one layer at once, the layer cache having no
//! single-flight. Blocks keep neighbours on one worker. Why the two
//! directions: in a sweep session worker 0 is the thread that emits rows
//! in order, so walking its block from the first index lets it stream
//! rows between its own tasks. A separate emitter thread woken at every
//! early row measured `pass_s` ×1.057 against a last-index walk (0 of 10
//! pairs won), so the other blocks keep that walk: their first row is
//! filled last and the emitter waits for it once. DESIGN.md §3.9 has the
//! measurements.
//!
//! The executor's workers are the threads that simulate:
//! `Simulator::run_layer` spawns nothing — a partitioned layer's tile
//! classes run one after the other on the thread that called it — so a
//! pool of `N` workers means `N` simulating threads, each with one warm
//! arena.
//!
//! Determinism is unaffected by stealing: tasks only *compute* (each
//! writes its own result slot), and result consumers assemble or emit in
//! a fixed order — which worker ran a task, and when, is invisible in the
//! output.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use scalesim_topology::Topology;

use crate::report::NetworkReport;
use crate::simulator::Simulator;

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

/// Runs `f` with panics caught at the boundary: a panic becomes
/// `Err(`[`SimError`]`)` tagged with `task`, instead of unwinding into
/// scope joins or thread pools. The default panic hook still prints the
/// panic to stderr first, so post-mortems keep their backtrace.
///
/// # Errors
///
/// Returns [`SimError`] if and only if `f` panicked.
pub fn run_caught<T>(task: &str, f: impl FnOnce() -> T) -> Result<T, SimError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .map_err(|panic| SimError::new(task, panic_message(panic.as_ref())))
}

/// Extracts a human-readable message from a panic payload (`&str` and
/// `String` payloads; a fixed fallback otherwise).
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
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

    /// True when the plan has no rules (the common production case, kept
    /// cheap to test on hot paths).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
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
/// (thread spawn, or the mutex under which a session hands a batch to its
/// parked workers, orders that), and `fetch_add` alone makes every index
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
struct WorkerStats {
    executed: AtomicU64,
    stolen: AtomicU64,
    busy_nanos: AtomicU64,
    wall_nanos: AtomicU64,
}

impl WorkerStats {
    fn new() -> WorkerStats {
        WorkerStats {
            executed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            busy_nanos: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
        }
    }
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
/// block is dry. Each task body runs under `catch_unwind`; the first
/// panic records a typed [`SimError`], aborts every worker, and is returned
/// from the panicking worker's `run_worker` so the caller can poison
/// downstream consumers.
pub struct Executor {
    blocks: Vec<Block>,
    stats: Vec<WorkerStats>,
    abort: AtomicBool,
    error: Mutex<Option<SimError>>,
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
            stats: (0..workers).map(|_| WorkerStats::new()).collect(),
            abort: AtomicBool::new(false),
            error: Mutex::new(None),
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

    /// True once a stop was requested (by [`Executor::abort`] or a panic).
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }

    /// The first panic's typed error, if any task panicked.
    pub fn error(&self) -> Option<SimError> {
        self.error.lock().unwrap().clone()
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
                let err = SimError::new(label(t), panic_message(panic.as_ref()));
                {
                    // First panic wins; later ones are casualties of the
                    // abort and would only obscure the root cause.
                    let mut first = self.error.lock().unwrap();
                    if first.is_none() {
                        *first = Some(err.clone());
                    }
                }
                self.abort.store(true, Ordering::Relaxed);
                result = Some(err);
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

/// Simulates the layers of `topology` in order on the calling thread, each
/// under [`run_caught`], and assembles the per-layer reports —
/// byte-identical to [`Simulator::run_topology`], but a panicking layer
/// (or injected fault) returns a typed [`SimError`] instead of unwinding.
/// `faults` is applied once per layer, keyed by the topology name; pass an
/// empty plan outside tests.
///
/// # Errors
///
/// The first layer's panic, as a [`SimError`].
pub fn run_topology_guarded(
    sim: &Simulator,
    topology: &Topology,
    faults: &FaultPlan,
) -> Result<NetworkReport, SimError> {
    let name = topology.name();
    // Sized exactly: the report outlives the run in result caches, and
    // collecting through `Result` would leave the vector room to spare.
    let mut reports = Vec::with_capacity(topology.len());
    for layer in topology.iter() {
        reports.push(run_caught(name, || {
            faults.apply(name);
            sim.run_layer(layer)
        })?);
    }
    Ok(NetworkReport::new(name, reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_caught_passes_values_through() {
        assert_eq!(run_caught("t", || 41 + 1), Ok(42));
    }

    #[test]
    fn run_caught_converts_panics_to_typed_errors() {
        let err = run_caught("TF0", || panic!("boom {}", 7)).unwrap_err();
        assert_eq!(err.task, "TF0");
        assert_eq!(err.message, "boom 7");
        assert_eq!(err.to_string(), "simulation of `TF0` panicked: boom 7");
    }

    #[test]
    fn run_caught_handles_non_string_payloads() {
        let err = run_caught("t", || std::panic::panic_any(17u32)).unwrap_err();
        assert_eq!(err.message, "simulation panicked");
    }

    #[test]
    fn fault_plan_matches_by_workload() {
        let plan = FaultPlan::new().panic("bad", "injected");
        assert!(!plan.is_empty());
        plan.apply("good"); // no rule -> no effect
        let err = run_caught("bad", || plan.apply("bad")).unwrap_err();
        assert_eq!(err.message, "injected");
    }

    /// Drives `exec` with `workers` scoped threads running `task`.
    fn drive(exec: &Executor, task: impl Fn(usize) + Sync) {
        std::thread::scope(|scope| {
            for w in 0..exec.workers() {
                let task = &task;
                scope.spawn(move || exec.run_worker(w, task, |t| t.to_string()));
            }
        });
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
                drive(&exec, |t| {
                    jitter(seed, t);
                    counts[t].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(
                    run_counts(&counts),
                    vec![1; total],
                    "{total} tasks on {workers} workers"
                );
                let summary = exec.summary();
                assert_eq!(summary.tasks, total as u64);
                assert_eq!(summary.worker_busy.len(), exec.workers());
                assert!(exec.error().is_none());
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
                drive(&exec, |t| {
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
                assert!(exec.aborted());
                assert_eq!(
                    exec.error(),
                    panics.then(|| SimError::new(
                        fatal.to_string(),
                        format!("task {fatal} exploded")
                    ))
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
        drive(&exec, |t| {
            executed.fetch_add(1, Ordering::Relaxed);
            if t == 17 {
                panic!("task 17 exploded");
            }
        });
        let err = exec.error().expect("panic must be recorded");
        assert_eq!(err.task, "17");
        assert_eq!(err.message, "task 17 exploded");
        assert!(exec.aborted());
        // The abort is prompt: at least the panicking task ran, but the
        // run did not insist on finishing everything.
        assert!(executed.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn external_abort_stops_workers() {
        let exec = Executor::new(1000, 2);
        exec.abort();
        drive(&exec, |_| {});
        assert_eq!(exec.summary().tasks, 0);
        assert!(exec.error().is_none());
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

    #[test]
    fn guarded_topology_run_matches_run_topology() {
        use scalesim_topology::networks;
        let sim = Simulator::new(crate::config::SimConfig::default());
        let topology = networks::alexnet();
        let direct = sim.run_topology(&topology);
        let guarded = run_topology_guarded(&sim, &topology, &FaultPlan::new()).unwrap();
        assert_eq!(direct.to_csv(), guarded.to_csv());
    }

    #[test]
    fn guarded_topology_run_surfaces_injected_panics() {
        use scalesim_topology::networks;
        let sim = Simulator::new(crate::config::SimConfig::default());
        let topology = networks::alexnet();
        let faults = FaultPlan::new().panic("alexnet", "guarded fault");
        let err = run_topology_guarded(&sim, &topology, &faults).unwrap_err();
        assert_eq!(err.task, "alexnet");
        assert_eq!(err.message, "guarded fault");
    }
}
