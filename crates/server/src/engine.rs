//! The execution engine: a worker pool over the simulator with
//! single-flight deduplication and a content-addressed result cache.
//!
//! Every job resolves to a [`JobKey`] before touching the simulator. The
//! engine then guarantees that, among any set of concurrently submitted
//! jobs with equal keys, **exactly one** simulation runs: the first caller
//! becomes the *leader* and enqueues work for the pool, later callers
//! become *joiners* that block on the leader's completion slot. Finished
//! results land in a sharded LRU cache, so repeats after completion are
//! pure cache hits.
//!
//! Stats semantics: `cache_hits` counts both LRU hits and single-flight
//! joins — every request that was served without running a simulation.
//! This makes hit-rate assertions independent of scheduling timing (a
//! duplicate counts the same whether it arrived before or after the leader
//! finished).
//!
//! # Overload and shutdown policy
//!
//! The leader queue is **bounded** ([`EngineOptions::queue_depth`]). A
//! leader that would grow it past the bound is *shed* with
//! [`JobError::Overloaded`] (carrying a back-off hint derived from recent
//! simulation times) instead of queueing without limit. Submission
//! ([`Engine::submit`]) never blocks; the one blocking point is
//! [`Ticket::wait`], which takes a deadline: when it expires before the
//! result is ready the caller gets [`JobError::DeadlineExpired`] while the
//! in-flight leader keeps running and its result still lands in the
//! cache. After [`Engine::shutdown`], submissions fail fast with
//! [`JobError::ShuttingDown`] — nothing is ever enqueued onto a pool whose
//! workers are exiting, so no caller can block forever on a slot that will
//! never be filled.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
#[cfg(test)]
use std::time::Duration;
use std::time::Instant;

use scalesim::cache::ShardedLru;
use scalesim::{ExploreEngine, NetworkReport, Simulator};

// The fault-injection hook lives with the panic-safe executor in core, so
// the sweep engine, the explore pipeline and this worker pool share one
// injection point; re-exported here to keep the server API unchanged.
pub use scalesim::exec::FaultPlan;
use scalesim_telemetry::{log, Counter, FlightRecorder, Gauge, Histogram, Registry};

use crate::job::{JobError, JobKey, NormalizedJob, SimJob};
use crate::json::Json;

/// How many recent job records the per-engine flight recorder retains.
/// Oldest records are evicted first; memory stays bounded at roughly
/// `capacity * sizeof(JobRecord)` regardless of traffic.
pub const FLIGHT_RECORDER_CAPACITY: usize = 256;

/// Request context attached to a job so the flight recorder can tie each
/// record back to the HTTP request that caused it. Internal callers
/// (batch, sweep expansion, tests) use [`JobContext::internal`].
#[derive(Debug, Clone, Copy)]
pub struct JobContext<'a> {
    /// The route (or internal caller) that submitted the job.
    pub route: &'static str,
    /// Request id minted by the HTTP layer; empty for internal callers.
    pub request_id: &'a str,
}

impl JobContext<'_> {
    /// Context for jobs submitted outside the HTTP request path.
    pub fn internal() -> JobContext<'static> {
        JobContext {
            route: "internal",
            request_id: "",
        }
    }
}

/// One entry in the engine's flight recorder: a completed or rejected
/// job as seen either by the requesting thread (hit/joined/shed/deadline/
/// shutdown outcomes) or by the worker that simulated it (fresh/failed).
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Content-addressed job key.
    pub key: String,
    /// Route (or internal caller) that submitted the job.
    pub route: &'static str,
    /// Request id minted by the HTTP layer; empty for internal callers.
    pub request_id: String,
    /// Outcome tag: `fresh`, `hit`, `joined`, `shed`, `deadline`,
    /// `failed`, or `shutdown`.
    pub outcome: &'static str,
    /// Leader queue wait in microseconds (fresh/failed records only).
    pub queue_wait_micros: u64,
    /// Simulation wall time in microseconds; for `hit`/`joined` this is
    /// the leader's measurement, 0 when no simulation backs the record.
    pub sim_micros: u64,
    /// Worker thread that ran the simulation; empty when none did.
    pub worker: String,
    /// When the record was made, as milliseconds since the engine started.
    pub age_ms: u64,
}

impl JobRecord {
    /// JSON object served by `GET /debug/jobs`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("key", Json::str(self.key.clone())),
            ("route", Json::str(self.route)),
            ("request_id", Json::str(self.request_id.clone())),
            ("outcome", Json::str(self.outcome)),
            (
                "queue_wait_micros",
                Json::Int(self.queue_wait_micros.into()),
            ),
            ("sim_micros", Json::Int(self.sim_micros.into())),
            ("worker", Json::str(self.worker.clone())),
            ("age_ms", Json::Int(self.age_ms.into())),
        ])
    }

    /// One `key=value` line for stderr dumps.
    fn to_line(&self) -> String {
        format!(
            "key={} route={} request_id={} outcome={} queue_wait_micros={} \
             sim_micros={} worker={} age_ms={}",
            self.key,
            self.route,
            if self.request_id.is_empty() {
                "-"
            } else {
                &self.request_id
            },
            self.outcome,
            self.queue_wait_micros,
            self.sim_micros,
            if self.worker.is_empty() {
                "-"
            } else {
                &self.worker
            },
            self.age_ms,
        )
    }
}

/// How a completed request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// This request's simulation actually ran.
    Fresh,
    /// Served from the result cache.
    Cache,
    /// Joined an identical in-flight simulation (single-flight dedup).
    Joined,
}

impl Served {
    /// Short lowercase tag, used in the `X-Scalesim-Cache` response header.
    pub fn tag(self) -> &'static str {
        match self {
            Served::Fresh => "miss",
            Served::Cache => "hit",
            Served::Joined => "joined",
        }
    }
}

/// A finished job as [`Engine::run_all`] hands it back: the shared result
/// and how this request came by it.
pub type ServedResult = (Arc<SimResult>, Served);

/// The outcome of one simulation job.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Content-addressed key of the normalized job.
    pub key: JobKey,
    /// The simulation report (shared with `/explore` outcomes).
    pub report: Arc<NetworkReport>,
    /// Wall time of the underlying simulation in microseconds (the
    /// leader's measurement; identical for cache hits and joins, keeping
    /// response bodies for equal jobs byte-identical).
    pub sim_wall_micros: u64,
}

impl SimResult {
    /// JSON body returned by `POST /simulate`. Deterministic for a given
    /// key: field order is fixed and no request-specific data is included.
    pub fn to_json(&self) -> Json {
        let layers: Vec<Json> = self
            .report
            .layers()
            .iter()
            .map(|l| {
                Json::obj(vec![
                    ("name", Json::str(l.name.clone())),
                    ("cycles", Json::Int(l.total_cycles.into())),
                    ("effective_cycles", Json::Int(l.effective_cycles().into())),
                    ("macs", Json::Int(l.mac_ops.into())),
                    ("mapping_util", Json::Float(l.mapping_utilization)),
                    ("compute_util", Json::Float(l.compute_utilization)),
                    ("sram_accesses", Json::Int(l.sram.total().into())),
                    ("dram_bytes", Json::Int(l.dram.total_bytes().into())),
                    ("req_bw", Json::Float(l.required_bandwidth())),
                    ("avg_bw", Json::Float(l.average_bandwidth())),
                    ("energy", Json::Float(l.energy.total())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("key", Json::str(self.key.to_string())),
            ("network", Json::str(self.report.name().to_owned())),
            ("total_cycles", Json::Int(self.report.total_cycles().into())),
            ("total_macs", Json::Int(self.report.total_macs().into())),
            (
                "total_dram_bytes",
                Json::Int(self.report.total_dram_bytes().into()),
            ),
            (
                "overall_utilization",
                Json::Float(self.report.overall_utilization()),
            ),
            (
                "total_energy",
                Json::Float(self.report.total_energy().total()),
            ),
            ("sim_wall_micros", Json::Int(self.sim_wall_micros.into())),
            ("layers", Json::Arr(layers)),
        ])
    }
}

/// Service counters, backed by [`scalesim_telemetry`] primitives registered
/// in the engine's [`Registry`] — `GET /stats` and `GET /metrics` read the
/// *same* atomics, so the two views can never drift.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Jobs accepted for execution (normalized successfully).
    pub accepted: Arc<Counter>,
    /// Jobs completed (any path: fresh, cache, join).
    pub completed: Arc<Counter>,
    /// Simulations actually executed by the pool.
    pub simulations: Arc<Counter>,
    /// Requests that ran a fresh simulation
    /// (`scalesim_requests_total{outcome="fresh"}`).
    pub fresh: Arc<Counter>,
    /// Requests served from the LRU result cache
    /// (`scalesim_requests_total{outcome="hit"}`).
    pub lru_hits: Arc<Counter>,
    /// Requests that joined an identical in-flight simulation
    /// (`scalesim_requests_total{outcome="joined"}`).
    pub joins: Arc<Counter>,
    /// Requests whose simulation failed (a joiner of a failed leader counts
    /// here *and* in `joins`).
    pub errors: Arc<Counter>,
    /// Jobs currently being simulated.
    pub in_flight: Arc<Gauge>,
    /// Total simulation wall time in microseconds (fresh runs only).
    pub total_sim_micros: Arc<Counter>,
    /// Leader queue wait (enqueue to worker pickup), seconds.
    pub queue_wait: Arc<Histogram>,
    /// Simulation wall time (fresh runs only), seconds.
    pub sim_duration: Arc<Histogram>,
    /// Joiners that piled onto each completed leader (single-flight fan-in
    /// per key; counts joiners present when the leader finished).
    pub joiners_per_key: Arc<Histogram>,
    /// Jobs shed because the bounded queue was full
    /// (`scalesim_jobs_shed_total`).
    pub shed: Arc<Counter>,
    /// Requests whose deadline expired before the result was ready
    /// (`scalesim_jobs_deadline_expired_total`).
    pub deadline_expired: Arc<Counter>,
    /// Leaders currently waiting in the bounded queue
    /// (`scalesim_queue_depth`).
    pub queue_depth: Arc<Gauge>,
}

impl Stats {
    fn new(registry: &Registry) -> Stats {
        let outcome = |tag| {
            registry.counter_with(
                "scalesim_requests_total",
                "Completed requests by outcome.",
                &[("outcome", tag)],
            )
        };
        Stats {
            accepted: registry.counter(
                "scalesim_jobs_accepted_total",
                "Jobs accepted for execution (normalized successfully).",
            ),
            completed: registry.counter(
                "scalesim_jobs_completed_total",
                "Jobs completed on any path: fresh, cache hit, or join.",
            ),
            simulations: registry.counter(
                "scalesim_simulations_total",
                "Simulations actually executed by the worker pool.",
            ),
            fresh: outcome("fresh"),
            lru_hits: outcome("hit"),
            joins: outcome("joined"),
            errors: registry.counter(
                "scalesim_job_errors_total",
                "Requests whose simulation failed.",
            ),
            in_flight: registry.gauge("scalesim_jobs_in_flight", "Jobs currently being simulated."),
            total_sim_micros: registry.counter(
                "scalesim_sim_wall_micros_total",
                "Total simulation wall time in microseconds (fresh runs only).",
            ),
            queue_wait: registry.histogram(
                "scalesim_queue_wait_seconds",
                "Leader queue wait from enqueue to worker pickup.",
                &Histogram::duration_buckets(),
            ),
            sim_duration: registry.histogram(
                "scalesim_sim_seconds",
                "Simulation wall time (fresh runs only).",
                &Histogram::duration_buckets(),
            ),
            joiners_per_key: registry.histogram(
                "scalesim_dedup_joiners",
                "Joiners that piled onto each completed leader (per job key).",
                &[0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0],
            ),
            shed: registry.counter(
                "scalesim_jobs_shed_total",
                "Jobs shed with `Overloaded` because the bounded queue was full.",
            ),
            deadline_expired: registry.counter(
                "scalesim_jobs_deadline_expired_total",
                "Requests whose deadline expired before the result was ready.",
            ),
            queue_depth: registry.gauge(
                "scalesim_queue_depth",
                "Leaders currently waiting in the bounded queue.",
            ),
        }
    }

    /// Requests served without running a simulation (LRU hits + joins).
    pub fn cache_hits(&self) -> u64 {
        self.lru_hits.get() + self.joins.get()
    }

    /// JSON body returned by `GET /stats`. Field set is kept stable for
    /// pre-telemetry clients; values read the same counters as `/metrics`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("accepted", Json::Int(self.accepted.get().into())),
            ("completed", Json::Int(self.completed.get().into())),
            ("simulations", Json::Int(self.simulations.get().into())),
            ("cache_hits", Json::Int(self.cache_hits().into())),
            ("lru_hits", Json::Int(self.lru_hits.get().into())),
            ("joins", Json::Int(self.joins.get().into())),
            ("in_flight", Json::Int(self.in_flight.get().max(0).into())),
            (
                "total_sim_micros",
                Json::Int(self.total_sim_micros.get().into()),
            ),
            ("shed", Json::Int(self.shed.get().into())),
            (
                "deadline_expired",
                Json::Int(self.deadline_expired.get().into()),
            ),
            (
                "queue_depth",
                Json::Int(self.queue_depth.get().max(0).into()),
            ),
        ])
    }
}

/// Completion slot shared by a leader and its joiners.
struct Slot {
    state: Mutex<Option<Result<Arc<SimResult>, JobError>>>,
    done: Condvar,
    /// Joiners registered so far; sampled into the `joiners_per_key`
    /// histogram when the leader finishes (joiners racing in after the
    /// fill are missed — acceptable for telemetry).
    joiners: AtomicU64,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(None),
            done: Condvar::new(),
            joiners: AtomicU64::new(0),
        })
    }

    fn fill(&self, result: Result<Arc<SimResult>, JobError>) {
        *self.state.lock().unwrap() = Some(result);
        self.done.notify_all();
    }

    /// Waits for the slot to be filled, up to `deadline` if one is given.
    /// Returns `None` when the deadline expires first — the leader keeps
    /// running and will still fill the slot (and the cache) later.
    fn wait_timeout(&self, deadline: Option<Instant>) -> Option<Result<Arc<SimResult>, JobError>> {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(result) = state.as_ref() {
                return Some(result.clone());
            }
            match deadline {
                None => state = self.done.wait(state).unwrap(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return None;
                    }
                    (state, _) = self.done.wait_timeout(state, deadline - now).unwrap();
                }
            }
        }
    }
}

/// Sizing knobs for an [`Engine`]. `..Default::default()` keeps the
/// historical behavior everywhere a knob is not set explicitly.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Simulator worker threads (minimum 1).
    pub workers: usize,
    /// Result-cache capacity in entries.
    pub cache_capacity: usize,
    /// Maximum leaders waiting in the queue before new leaders are shed
    /// with [`JobError::Overloaded`] (minimum 1).
    pub queue_depth: usize,
}

impl Default for EngineOptions {
    fn default() -> EngineOptions {
        EngineOptions {
            workers: 1,
            cache_capacity: 256,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }
}

/// Default bound on the leader queue: deep enough that well-behaved
/// workloads (batch manifests, sweeps) never notice it, shallow enough
/// that an overload burst is shed in bounded memory and bounded latency.
pub const DEFAULT_QUEUE_DEPTH: usize = 256;

/// A queued leader job: the normalized work plus its completion slot, the
/// enqueue instant (for the queue-wait histogram) and the leader's request
/// context (for the flight recorder).
struct QueuedJob {
    job: NormalizedJob,
    key: JobKey,
    slot: Arc<Slot>,
    enqueued: Instant,
    route: &'static str,
    request_id: String,
}

struct Shared {
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    inflight: Mutex<HashMap<u128, Arc<Slot>>>,
    cache: ShardedLru<Arc<SimResult>>,
    registry: Arc<Registry>,
    stats: Stats,
    explorer: OnceLock<ExploreEngine>,
    shutdown: AtomicBool,
    workers: usize,
    queue_depth: usize,
    faults: Mutex<FaultPlan>,
    recorder: FlightRecorder<JobRecord>,
    started: Instant,
}

impl Shared {
    /// Appends one record to the flight recorder (bounded; oldest out).
    #[allow(clippy::too_many_arguments)]
    fn record_job(
        &self,
        key: &JobKey,
        route: &'static str,
        request_id: &str,
        outcome: &'static str,
        queue_wait_micros: u64,
        sim_micros: u64,
        worker: &str,
    ) {
        self.recorder.record(JobRecord {
            key: key.to_string(),
            route,
            request_id: request_id.to_owned(),
            outcome,
            queue_wait_micros,
            sim_micros,
            worker: worker.to_owned(),
            age_ms: self.started.elapsed().as_millis() as u64,
        });
    }

    /// Writes every retained record to stderr, newest last. Called on
    /// worker panic and on drain so post-mortems survive the process.
    fn dump_recorder(&self, why: &str) {
        let records = self.recorder.snapshot();
        eprintln!("flight recorder dump ({why}): {} records", records.len());
        for record in records {
            eprintln!("  {}", record.to_line());
        }
    }
}

/// The simulation engine: worker pool + cache + single-flight table.
///
/// Cloning is cheap (an `Arc`); drop of the last handle created by
/// [`Engine::new`] does *not* stop workers — call [`Engine::shutdown`].
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
}

impl Engine {
    /// Spawns `workers` simulator threads and a cache of `cache_capacity`
    /// results, with the default queue bound. Worker threads are detached;
    /// they exit on [`Engine::shutdown`].
    pub fn new(workers: usize, cache_capacity: usize) -> Engine {
        Engine::with_options(EngineOptions {
            workers,
            cache_capacity,
            ..EngineOptions::default()
        })
    }

    /// Spawns an engine with explicit sizing ([`EngineOptions`]).
    pub fn with_options(options: EngineOptions) -> Engine {
        let EngineOptions {
            workers,
            cache_capacity,
            queue_depth,
        } = options;
        let workers = workers.max(1);
        let queue_depth = queue_depth.max(1);
        // One registry per engine (not the process-wide one): stats stay
        // attributable to this engine, and engines in tests don't bleed
        // counters into each other. `/metrics` renders this registry plus
        // the global simulator-side one.
        let registry = Arc::new(Registry::new());
        let stats = Stats::new(&registry);
        let evictions = registry.counter(
            "scalesim_cache_evictions_total",
            "Results evicted from the LRU cache.",
        );
        let resident = registry.gauge(
            "scalesim_cache_resident_entries",
            "Results currently held by the LRU cache.",
        );
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            cache: ShardedLru::new(cache_capacity, workers.next_power_of_two().min(16))
                .with_metrics(evictions, resident),
            explorer: OnceLock::new(),
            registry,
            stats,
            shutdown: AtomicBool::new(false),
            workers,
            queue_depth,
            faults: Mutex::new(FaultPlan::default()),
            recorder: FlightRecorder::new(FLIGHT_RECORDER_CAPACITY),
            started: Instant::now(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("sim-worker-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("spawn simulation worker");
        }
        Engine { shared }
    }

    /// Service counters.
    pub fn stats(&self) -> &Stats {
        &self.shared.stats
    }

    /// The engine's metric registry — everything `GET /stats` reports plus
    /// cache, queue-wait and dedup histograms, renderable as Prometheus
    /// text via [`Registry::render`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.shared.registry
    }

    /// The explore pipeline of `POST /explore`, built by the first request
    /// and kept: its `scalesim_explore_*` series are registered in
    /// [`Engine::registry`] once, and a server nobody explores on scrapes
    /// none of them. Its own result cache is never probed — `/explore`
    /// simulates through [`Engine::run_all`] — so one entry is all it is
    /// given.
    pub(crate) fn explorer(&self) -> &ExploreEngine {
        let shared = &self.shared;
        shared
            .explorer
            .get_or_init(|| ExploreEngine::with_registry(1, &shared.registry))
    }

    /// Runs a job to completion, deduplicating against the cache and any
    /// identical in-flight simulation. Blocks the calling thread.
    pub fn run(&self, job: &SimJob) -> Result<(Arc<SimResult>, Served), JobError> {
        self.run_with_context(job, None, JobContext::internal())
    }

    /// Runs an already-normalized job through the pool, cache and
    /// single-flight table, for callers that build [`NormalizedJob`]s
    /// directly.
    pub fn run_normalized(
        &self,
        normalized: NormalizedJob,
    ) -> Result<(Arc<SimResult>, Served), JobError> {
        self.submit(normalized, JobContext::internal())?.wait(None)
    }

    /// [`Engine::run`] with a completion deadline and the request context
    /// the flight recorder files the job under: when `deadline` passes
    /// before the result is ready the call returns
    /// [`JobError::DeadlineExpired`], while the in-flight simulation keeps
    /// running and its result still lands in the cache.
    pub fn run_with_context(
        &self,
        job: &SimJob,
        deadline: Option<Instant>,
        ctx: JobContext<'_>,
    ) -> Result<(Arc<SimResult>, Served), JobError> {
        self.submit(job.normalize()?, ctx)?.wait(deadline)
    }

    /// Hands a job to the engine without waiting for it: probes the cache,
    /// joins an identical in-flight simulation or becomes its leader and
    /// queues it, subject to admission control. Never blocks;
    /// [`Ticket::wait`] collects the result. A caller with many jobs goes
    /// through [`Engine::run_all`], which submits several before it waits
    /// for the first, from its own thread.
    ///
    /// Every terminal outcome leaves one [`JobRecord`] in the flight
    /// recorder: hit, shed and shutdown are recorded here, joined and
    /// deadline by [`Ticket::wait`], fresh and failed by the worker that
    /// ran the simulation (with queue wait and worker identity).
    ///
    /// # Errors
    ///
    /// [`JobError::ShuttingDown`] after [`Engine::shutdown`], and
    /// [`JobError::Overloaded`] when the job would have to queue behind
    /// [`EngineOptions::queue_depth`] others.
    pub fn submit<'a>(
        &'a self,
        normalized: NormalizedJob,
        ctx: JobContext<'a>,
    ) -> Result<Ticket<'a>, JobError> {
        let shared = &*self.shared;
        let key = normalized.key();
        let stats = &shared.stats;
        let record = |outcome, sim_micros| {
            shared.record_job(&key, ctx.route, ctx.request_id, outcome, 0, sim_micros, "")
        };
        let hit = |result: Arc<SimResult>| {
            stats.lru_hits.inc();
            stats.completed.inc();
            record("hit", result.sim_wall_micros);
            Ticket {
                shared,
                ctx,
                key,
                state: TicketState::Hit(result),
            }
        };
        // Fail fast on a stopped pool: enqueueing here would park the
        // caller on a slot no worker will ever fill.
        if shared.shutdown.load(Ordering::SeqCst) {
            record("shutdown", 0);
            return Err(JobError::ShuttingDown);
        }
        stats.accepted.inc();

        if let Some(result) = shared.cache.get(key.0) {
            return Ok(hit(result));
        }

        // Slow path: become the leader for this key, or join an existing one.
        let (slot, leader) = {
            let mut inflight = shared.inflight.lock().unwrap();
            // A leader may have completed between the cache probe and this
            // lock; its result is in the cache (inserted before the inflight
            // entry is removed), so re-check under the lock.
            if let Some(result) = shared.cache.get(key.0) {
                return Ok(hit(result));
            }
            match inflight.get(&key.0) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Slot::new();
                    inflight.insert(key.0, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };

        if leader {
            let mut queue = shared.queue.lock().unwrap();
            // Admission control, decided under the queue lock so the bound
            // and the shutdown flag are race-free with workers exiting.
            if shared.shutdown.load(Ordering::SeqCst) {
                drop(queue);
                record("shutdown", 0);
                return Err(self.abandon_leader(&key, &slot, JobError::ShuttingDown));
            }
            if queue.len() >= shared.queue_depth {
                let retry_after_ms = self.retry_after_hint_ms(queue.len());
                drop(queue);
                stats.shed.inc();
                log::info(
                    "engine.job_shed",
                    &[
                        ("key", &key.to_string()),
                        ("retry_after_ms", &retry_after_ms.to_string()),
                    ],
                );
                record("shed", 0);
                return Err(self.abandon_leader(
                    &key,
                    &slot,
                    JobError::Overloaded { retry_after_ms },
                ));
            }
            queue.push_back(QueuedJob {
                job: normalized,
                key,
                slot: Arc::clone(&slot),
                enqueued: Instant::now(),
                route: ctx.route,
                request_id: ctx.request_id.to_owned(),
            });
            stats.queue_depth.set(queue.len() as i64);
            drop(queue);
            shared.queue_cv.notify_one();
        } else {
            slot.joiners.fetch_add(1, Ordering::Relaxed);
            stats.joins.inc();
        }
        Ok(Ticket {
            shared,
            ctx,
            key,
            state: TicketState::Pending { slot, leader },
        })
    }

    /// Runs `jobs` to completion from the calling thread and returns their
    /// results in submission order: the one way anything in this crate
    /// (`POST /sweep`, `POST /explore`, the batch runner) runs more than
    /// one job. At most `min(2 × workers, queue depth)` submitted jobs are
    /// unfinished at any time — enough to keep the workers fed, and never
    /// more than the queue admits, so a caller cannot shed itself; jobs the
    /// cache answers hold no place in that window. No thread is started.
    ///
    /// # Errors
    ///
    /// The first failure in submission order, with the index of its job:
    /// what [`Engine::submit`] refuses (shutdown, or a queue other
    /// callers filled), [`JobError::DeadlineExpired`] at `deadline`, a
    /// failed simulation. The jobs already submitted finish regardless and
    /// land in the cache.
    pub fn run_all(
        &self,
        jobs: impl IntoIterator<Item = NormalizedJob>,
        ctx: JobContext<'_>,
        deadline: Option<Instant>,
    ) -> Result<Vec<ServedResult>, (usize, JobError)> {
        let window = (2 * self.shared.workers).min(self.shared.queue_depth);
        let mut jobs = jobs.into_iter();
        let mut results = Vec::with_capacity(jobs.size_hint().0);
        // Submitted and not yet waited for, in submission order;
        // `unfinished` counts those the cache did not answer.
        let mut tickets: VecDeque<Ticket<'_>> = VecDeque::new();
        let mut unfinished = 0;
        loop {
            if unfinished < window {
                if let Some(job) = jobs.next() {
                    let ticket = self
                        .submit(job, ctx)
                        .map_err(|e| (results.len() + tickets.len(), e))?;
                    unfinished += usize::from(ticket.is_pending());
                    tickets.push_back(ticket);
                    continue;
                }
            }
            // The window is full or everything is submitted: take the oldest.
            let Some(ticket) = tickets.pop_front() else {
                return Ok(results);
            };
            unfinished -= usize::from(ticket.is_pending());
            results.push(ticket.wait(deadline).map_err(|e| (results.len(), e))?);
        }
    }

    /// Signals workers to exit once the queue drains. Idempotent. After
    /// this, new submissions fail fast with [`JobError::ShuttingDown`];
    /// already-queued leaders (and their joiners) still complete.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
    }

    /// True once nothing is queued and nothing is being simulated. Used by
    /// the HTTP layer's graceful drain to decide when shutdown is complete.
    pub fn is_idle(&self) -> bool {
        self.shared.queue.lock().unwrap().is_empty() && self.shared.stats.in_flight.get() <= 0
    }

    /// Installs a [`FaultPlan`] (test hook). Replaces any previous plan;
    /// pass `FaultPlan::new()` to clear.
    pub fn inject_faults(&self, plan: FaultPlan) {
        *self.shared.faults.lock().unwrap() = plan;
    }

    /// The flight recorder's retained job records, oldest first (at most
    /// [`FLIGHT_RECORDER_CAPACITY`]). This is the body of
    /// `GET /debug/jobs`.
    pub fn recent_jobs(&self) -> Vec<JobRecord> {
        self.shared.recorder.snapshot()
    }

    /// Dumps the flight recorder to stderr (newest record last), tagged
    /// with `why`. The HTTP layer calls this when a graceful drain starts;
    /// workers call it when a simulation panics.
    pub fn dump_flight_recorder(&self, why: &str) {
        self.shared.dump_recorder(why);
    }

    /// Drops a leader slot that was never enqueued: the inflight entry is
    /// removed first (so a later identical request elects a fresh leader),
    /// then any joiners that raced in are released with the same error.
    fn abandon_leader(&self, key: &JobKey, slot: &Slot, err: JobError) -> JobError {
        self.shared.inflight.lock().unwrap().remove(&key.0);
        slot.fill(Err(err.clone()));
        err
    }

    /// Back-off hint for shed jobs: roughly how long until a queue slot
    /// frees up, from the average simulation time of this engine's recent
    /// work. Clamped to [100 ms, 30 s]; defaults to 1 s before any
    /// simulation has completed.
    fn retry_after_hint_ms(&self, queue_len: usize) -> u64 {
        let stats = &self.shared.stats;
        let avg_ms = stats
            .total_sim_micros
            .get()
            .checked_div(stats.simulations.get())
            .map_or(1000, |avg_micros| avg_micros / 1000);
        (avg_ms.max(1) * (queue_len as u64 + 1) / self.shared.workers.max(1) as u64)
            .clamp(100, 30_000)
    }
}

/// A job [`Engine::submit`] accepted: the claim on its result.
pub struct Ticket<'a> {
    shared: &'a Shared,
    ctx: JobContext<'a>,
    key: JobKey,
    state: TicketState,
}

enum TicketState {
    /// Answered by the cache at submission.
    Hit(Arc<SimResult>),
    /// Queued as the leader of its key, or joined to one in flight.
    Pending { slot: Arc<Slot>, leader: bool },
}

impl Ticket<'_> {
    /// False when the cache answered at submission, so
    /// [`Ticket::wait`] returns at once and the job holds no queue slot.
    pub fn is_pending(&self) -> bool {
        matches!(self.state, TicketState::Pending { .. })
    }

    /// Blocks until the job's result is ready, or `deadline` passes.
    ///
    /// # Errors
    ///
    /// [`JobError::DeadlineExpired`] at the deadline — the in-flight
    /// simulation keeps running and its result still lands in the cache —
    /// and the simulation's own failure, shared by a leader and its
    /// joiners.
    pub fn wait(self, deadline: Option<Instant>) -> Result<(Arc<SimResult>, Served), JobError> {
        let Ticket {
            shared, ctx, key, ..
        } = self;
        let (slot, leader) = match self.state {
            TicketState::Hit(result) => return Ok((result, Served::Cache)),
            TicketState::Pending { slot, leader } => (slot, leader),
        };
        let stats = &shared.stats;
        let record = |outcome, sim_micros| {
            shared.record_job(&key, ctx.route, ctx.request_id, outcome, 0, sim_micros, "")
        };
        let Some(outcome) = slot.wait_timeout(deadline) else {
            stats.deadline_expired.inc();
            record("deadline", 0);
            return Err(JobError::DeadlineExpired);
        };
        stats.completed.inc();
        match &outcome {
            Ok(_) if leader => stats.fresh.inc(),
            Ok(result) => record("joined", result.sim_wall_micros),
            Err(e) => {
                stats.errors.inc();
                log::error(
                    "engine.job_failed",
                    &[("key", &key.to_string()), ("error", &e.to_string())],
                );
            }
        }
        let served = if leader {
            Served::Fresh
        } else {
            Served::Joined
        };
        outcome.map(|result| (result, served))
    }
}

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let QueuedJob {
            job,
            key,
            slot,
            enqueued,
            route,
            request_id,
        } = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(item) = queue.pop_front() {
                    shared.stats.queue_depth.set(queue.len() as i64);
                    break item;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.queue_cv.wait(queue).unwrap();
            }
        };

        let queue_wait = enqueued.elapsed();
        let queue_wait_micros = queue_wait.as_micros() as u64;
        shared.stats.queue_wait.observe_duration(queue_wait);
        shared.stats.in_flight.add(1);
        let faults = shared.faults.lock().unwrap().clone();
        let started = Instant::now();
        let mut sim = Simulator::new(job.config).with_grid(job.grid);
        if job.auto_dataflow {
            sim = sim.with_auto_dataflow();
        }
        // Panics (including injected faults) are caught at every layer
        // boundary, so a simulator bug in one layer surfaces as a typed
        // error instead of unwinding the worker.
        let run = scalesim::exec::run_topology_guarded(&sim, &job.topology, &faults);
        let sim_wall = started.elapsed();
        let sim_wall_micros = sim_wall.as_micros() as u64;
        let worker = std::thread::current();
        let worker = worker.name().unwrap_or("sim-worker");

        let outcome = match run {
            Ok(report) => {
                shared.stats.simulations.inc();
                shared.stats.total_sim_micros.add(sim_wall_micros);
                shared.stats.sim_duration.observe_duration(sim_wall);
                shared.record_job(
                    &key,
                    route,
                    &request_id,
                    "fresh",
                    queue_wait_micros,
                    sim_wall_micros,
                    worker,
                );
                Ok(Arc::new(SimResult {
                    key,
                    report: Arc::new(report),
                    sim_wall_micros,
                }))
            }
            Err(err) => {
                shared.record_job(
                    &key,
                    route,
                    &request_id,
                    "failed",
                    queue_wait_micros,
                    sim_wall_micros,
                    worker,
                );
                // A panicking simulation is exactly the post-mortem the
                // recorder exists for: preserve it on stderr immediately.
                shared.dump_recorder("worker panic");
                Err(JobError::Internal(err.to_string()))
            }
        };

        // Order matters: publish to the cache *before* removing the inflight
        // entry, so a racing `run()` that misses the inflight table is
        // guaranteed to find the result in the cache.
        if let Ok(result) = &outcome {
            shared.cache.insert(key.0, Arc::clone(result));
        }
        shared.inflight.lock().unwrap().remove(&key.0);
        shared.stats.in_flight.sub(1);
        shared
            .stats
            .joiners_per_key
            .observe(slot.joiners.load(Ordering::Relaxed) as f64);
        slot.fill(outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_job() -> SimJob {
        // Single tiny layer so engine tests stay fast.
        SimJob {
            workload: crate::job::Workload::InlineCsv {
                name: "tiny".into(),
                csv: "Layer,IfmapH,IfmapW,FilterH,FilterW,Channels,Filters,Strides\n\
                      L1,8,8,3,3,4,8,1\n"
                    .into(),
            },
            layer: None,
            config: vec![
                ("ArrayHeight".into(), "8".into()),
                ("ArrayWidth".into(), "8".into()),
            ],
            grid: (1, 1),
            dataflow: None,
            bandwidth: None,
            batch: None,
        }
    }

    #[test]
    fn fresh_then_cached() {
        let engine = Engine::new(2, 64);
        let job = small_job();
        let (first, served) = engine.run(&job).unwrap();
        assert_eq!(served, Served::Fresh);
        let (second, served) = engine.run(&job).unwrap();
        assert_eq!(served, Served::Cache);
        assert_eq!(first.key, second.key);
        assert_eq!(first.report, second.report);
        let stats = engine.stats();
        assert_eq!(stats.simulations.get(), 1);
        assert_eq!(stats.fresh.get(), 1);
        assert_eq!(stats.cache_hits(), 1);
        assert_eq!(stats.completed.get(), 2);
        engine.shutdown();
    }

    #[test]
    fn concurrent_duplicates_run_once() {
        let engine = Engine::new(4, 64);
        let job = small_job();
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let engine = engine.clone();
                    let job = job.clone();
                    s.spawn(move || engine.run(&job).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = engine.stats();
        assert_eq!(stats.simulations.get(), 1);
        assert_eq!(stats.cache_hits(), 7);
        let first_json = results[0].0.to_json().to_string();
        for (result, _) in &results {
            assert_eq!(result.to_json().to_string(), first_json);
        }
        engine.shutdown();
    }

    /// `submit` hands over without waiting: one thread holds the tickets
    /// of several queued jobs and of a duplicate and a hit, then collects.
    #[test]
    fn one_thread_submits_many_jobs_before_waiting_for_any() {
        let engine = Engine::new(1, 64);
        engine.inject_faults(FaultPlan::new().delay("tiny", Duration::from_millis(20)));
        let job_n = |n: u64| {
            let mut job = small_job();
            job.config.push(("IfmapSramSz".into(), n.to_string()));
            job.normalize().unwrap()
        };
        engine.run_normalized(job_n(0)).unwrap();
        let ctx = JobContext::internal();
        let tickets: Vec<Ticket<'_>> = [1, 2, 3, 1, 0]
            .iter()
            .map(|&n| engine.submit(job_n(n), ctx).unwrap())
            .collect();
        // A queued or joined job completes when it is waited for.
        assert_eq!(engine.stats().completed.get(), 2, "the warm-up and the hit");
        let pending: Vec<bool> = tickets.iter().map(Ticket::is_pending).collect();
        assert_eq!(pending, [true, true, true, true, false]);
        let served: Vec<Served> = tickets
            .into_iter()
            .map(|t| t.wait(None).unwrap().1)
            .collect();
        use Served::{Cache, Fresh, Joined};
        assert_eq!(served, [Fresh, Fresh, Fresh, Joined, Cache]);
        assert_eq!(engine.stats().simulations.get(), 4);
        assert_eq!(engine.stats().completed.get(), 6);
        engine.shutdown();
    }

    #[test]
    fn distinct_jobs_each_simulate() {
        let engine = Engine::new(2, 64);
        let a = small_job();
        let mut b = small_job();
        b.config.push(("Dataflow".into(), "is".into()));
        engine.run(&a).unwrap();
        engine.run(&b).unwrap();
        assert_eq!(engine.stats().simulations.get(), 2);
        assert_eq!(engine.stats().cache_hits(), 0);
        engine.shutdown();
    }

    #[test]
    fn bad_job_is_rejected_before_the_pool() {
        let engine = Engine::new(1, 4);
        let job = SimJob::builtin("no_such_net");
        assert!(engine.run(&job).is_err());
        assert_eq!(engine.stats().accepted.get(), 0);
        engine.shutdown();
    }

    #[test]
    fn stats_json_shape() {
        let engine = Engine::new(1, 4);
        let json = engine.stats().to_json();
        for field in [
            "accepted",
            "completed",
            "simulations",
            "cache_hits",
            "lru_hits",
            "joins",
            "in_flight",
            "total_sim_micros",
        ] {
            assert!(json.get(field).is_some(), "missing stats field {field}");
        }
        engine.shutdown();
    }

    /// `/stats` and `/metrics` must report from one source of truth: the
    /// JSON counters and the rendered Prometheus exposition agree exactly.
    #[test]
    fn stats_and_metrics_share_counters() {
        let engine = Engine::new(2, 64);
        let job = small_job();
        engine.run(&job).unwrap();
        engine.run(&job).unwrap();

        let json = engine.stats().to_json();
        assert_eq!(json.get("simulations").and_then(Json::as_u64), Some(1));
        let registry = engine.registry();
        assert_eq!(
            registry.counter_value("scalesim_simulations_total", &[]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("scalesim_requests_total", &[("outcome", "fresh")]),
            Some(1)
        );
        assert_eq!(
            registry.counter_value("scalesim_requests_total", &[("outcome", "hit")]),
            Some(1)
        );

        let text = registry.render();
        assert!(text.contains("scalesim_simulations_total 1"));
        assert!(text.contains("scalesim_requests_total{outcome=\"fresh\"} 1"));
        assert!(text.contains("scalesim_requests_total{outcome=\"hit\"} 1"));
        assert!(text.contains("# TYPE scalesim_queue_wait_seconds histogram"));
        assert!(text.contains("scalesim_queue_wait_seconds_count 1"));
        assert!(text.contains("scalesim_sim_seconds_count 1"));
        assert!(text.contains("scalesim_cache_resident_entries 1"));
        assert!(text.contains("scalesim_cache_evictions_total 0"));
        assert!(text.contains("scalesim_dedup_joiners_count 1"));
        engine.shutdown();
    }

    #[test]
    fn auto_dataflow_jobs_simulate_per_layer_selection() {
        let engine = Engine::new(2, 64);
        let mut auto = small_job();
        auto.dataflow = Some("auto".into());
        let fixed = small_job();
        let (auto_result, _) = engine.run(&auto).unwrap();
        let (fixed_result, _) = engine.run(&fixed).unwrap();
        // Distinct keys, both simulated (no accidental cache collision).
        assert_ne!(auto_result.key, fixed_result.key);
        assert_eq!(engine.stats().simulations.get(), 2);
        engine.shutdown();
    }

    /// A layer with no work must serialize as real zeros, not `null`
    /// (NaN utilization used to slip through `Json::Float` as `null`,
    /// silently corrupting clients' sweeps).
    #[test]
    fn degenerate_layer_json_has_no_nulls() {
        use scalesim::{GemmShape, Layer, SimConfig, Simulator, Topology};
        let layer = Layer::Gemm {
            name: "empty".into(),
            shape: GemmShape { m: 0, k: 8, n: 8 },
        };
        let topology = Topology::from_layers("degenerate", vec![layer]);
        let report = Simulator::new(SimConfig::default()).run_topology(&topology);
        let result = SimResult {
            key: JobKey(0),
            report: Arc::new(report),
            sim_wall_micros: 0,
        };
        let text = result.to_json().to_string();
        assert!(
            !text.contains("null"),
            "degenerate report leaked null: {text}"
        );
        assert!(text.contains("\"compute_util\":0"));
        assert!(text.contains("\"overall_utilization\":0"));
    }

    /// Regression (hang): `run_normalized` after `shutdown()` used to
    /// enqueue a leader onto a pool whose workers had exited, and
    /// `slot.wait()` then blocked forever. It must fail fast instead.
    #[test]
    fn run_after_shutdown_returns_shutting_down() {
        let engine = Engine::new(1, 4);
        engine.shutdown();
        let started = Instant::now();
        let err = engine.run(&small_job()).unwrap_err();
        assert_eq!(err, JobError::ShuttingDown);
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "rejection must be immediate, took {:?}",
            started.elapsed()
        );
        // Nothing was accepted or queued.
        assert_eq!(engine.stats().accepted.get(), 0);
        assert!(engine.is_idle());
    }

    /// With one worker and a queue bound of one, a third distinct job
    /// arriving while the first simulates is shed with `Overloaded` and a
    /// back-off hint — never queued without limit, never blocked forever.
    #[test]
    fn full_queue_sheds_with_overloaded() {
        let engine = Engine::with_options(EngineOptions {
            workers: 1,
            cache_capacity: 16,
            queue_depth: 1,
        });
        engine.inject_faults(FaultPlan::new().delay("tiny", Duration::from_millis(400)));
        fn job_n(n: u64) -> SimJob {
            let mut job = small_job();
            job.config.push(("IfmapSramSz".into(), n.to_string()));
            job
        }

        let (first, second) = std::thread::scope(|s| {
            let e1 = engine.clone();
            let first = s.spawn(move || e1.run(&job_n(1)));
            // Wait until the first job occupies the worker.
            while engine.stats().in_flight.get() < 1 {
                std::thread::sleep(Duration::from_millis(5));
            }
            let e2 = engine.clone();
            let second = s.spawn(move || e2.run(&job_n(2)));
            // Wait until the second job occupies the single queue slot.
            while engine.stats().queue_depth.get() < 1 {
                std::thread::sleep(Duration::from_millis(5));
            }
            let shed = engine.run(&job_n(3)).unwrap_err();
            match shed {
                JobError::Overloaded { retry_after_ms } => {
                    assert!((100..=30_000).contains(&retry_after_ms))
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
            (first.join().unwrap(), second.join().unwrap())
        });
        assert!(first.is_ok() && second.is_ok(), "admitted jobs complete");
        assert_eq!(engine.stats().shed.get(), 1);
        // The shed key was abandoned cleanly: retrying it now succeeds.
        engine.inject_faults(FaultPlan::new());
        let (_, served) = engine.run(&job_n(3)).unwrap();
        assert_eq!(served, Served::Fresh);
        engine.shutdown();
    }

    /// A request whose deadline expires gets `DeadlineExpired`, while the
    /// leader simulation keeps running and its result still lands in the
    /// cache for the next request.
    #[test]
    fn expired_deadline_still_caches_the_result() {
        let engine = Engine::new(1, 16);
        engine.inject_faults(FaultPlan::new().delay("tiny", Duration::from_millis(200)));
        let job = small_job();
        let deadline = Instant::now() + Duration::from_millis(10);
        let err = engine
            .run_with_context(&job, Some(deadline), JobContext::internal())
            .unwrap_err();
        assert_eq!(err, JobError::DeadlineExpired);
        assert_eq!(engine.stats().deadline_expired.get(), 1);

        // No deadline: joins the still-running leader or hits the cache.
        let (_, served) = engine.run(&job).unwrap();
        assert!(matches!(served, Served::Joined | Served::Cache));
        assert_eq!(engine.stats().simulations.get(), 1);

        // Registry view of the new counters.
        let text = engine.registry().render();
        assert!(text.contains("scalesim_jobs_deadline_expired_total 1"));
        assert!(text.contains("scalesim_jobs_shed_total 0"));
        engine.shutdown();
    }

    /// Injected panics surface as `Internal` errors and the worker
    /// survives to run later jobs.
    #[test]
    fn injected_panic_recovers_as_internal_error() {
        let engine = Engine::new(1, 16);
        engine.inject_faults(FaultPlan::new().panic("tiny", "injected fault"));
        let err = engine.run(&small_job()).unwrap_err();
        match err {
            JobError::Internal(msg) => assert!(msg.contains("injected fault"), "got: {msg}"),
            other => panic!("expected Internal, got {other:?}"),
        }
        engine.inject_faults(FaultPlan::new());
        let (_, served) = engine.run(&small_job()).unwrap();
        assert_eq!(served, Served::Fresh, "worker survived the panic");
        engine.shutdown();
    }

    #[test]
    fn cache_evictions_surface_in_metrics() {
        // Capacity 1, single shard: the second distinct job evicts the first.
        let engine = Engine::new(1, 1);
        let a = small_job();
        let mut b = small_job();
        b.config.push(("Dataflow".into(), "is".into()));
        engine.run(&a).unwrap();
        engine.run(&b).unwrap();
        let registry = engine.registry();
        assert_eq!(
            registry.counter_value("scalesim_cache_evictions_total", &[]),
            Some(1)
        );
        let text = registry.render();
        assert!(text.contains("scalesim_cache_evictions_total 1"));
        assert!(text.contains("scalesim_cache_resident_entries 1"));
        engine.shutdown();
    }
}
