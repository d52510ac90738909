//! `scalesim-server` — a concurrent simulation service over the
//! `scale-sim-rs` simulator.
//!
//! Design-space exploration (the paper's Sections IV–V) re-runs the same
//! layer/configuration pairs constantly: sweeping partition grids over
//! ResNet-50 revisits identical monolithic baselines, and several users
//! sweeping together duplicate each other's work. This crate turns the
//! simulator into a shared service that exploits that redundancy:
//!
//! * **Job model** ([`job`]) — a [`SimJob`] names a workload (built-in
//!   network or inline topology CSV), config overrides, partition grid,
//!   dataflow and bandwidth. Normalization routes every field through the
//!   simulator's canonical serializers, so equivalent requests — reordered
//!   config keys, `ws` vs `weight_stationary`, reformatted CSV — collapse
//!   to one content-addressed [`JobKey`].
//! * **Engine** ([`engine`]) — a worker pool with *single-flight*
//!   deduplication (concurrent identical jobs run one simulation; the rest
//!   join it) in front of a sharded LRU result cache ([`ShardedLru`]).
//! * **Front ends** — an HTTP/1.1 service ([`http`]; `POST /simulate`,
//!   `POST /sweep`, `POST /explore`, `GET /stats`, `GET /metrics`,
//!   `GET /healthz`) and a manifest-driven batch runner ([`batch`]) that
//!   emits one combined REPORT CSV. Both are wired to the `scale-sim`
//!   binary's `serve` and `batch` subcommands via [`cli`]. The three that
//!   run many jobs — `/sweep`, `/explore`, `batch` — do it one way,
//!   [`Engine::run_all`]: from the calling thread, a bounded window of
//!   jobs ahead of the one waited for, no thread of their own.
//! * **Sweeps** ([`sweep`]) — `POST /sweep` walks a design-space plan
//!   (the plan grammar of `scalesim::sweep`, spelled in JSON) and submits
//!   every point to the engine from the connection's thread, sharing its
//!   cache and single-flight table with ordinary `/simulate` traffic.
//! * **Exploration** ([`explore`]) — `POST /explore` takes the same plan
//!   plus `keep_within` / `budget` knobs and runs the analytical-guided
//!   pipeline of [`scalesim::ExploreEngine`]: predict every candidate with
//!   the lower-bound runtime model, prune to the analytical Pareto band,
//!   simulate only the survivors — as ordinary jobs of the same engine.
//! * **Telemetry** — every service counter is a `scalesim-telemetry`
//!   metric: the [`Stats`] snapshot served at `/stats` and the Prometheus
//!   exposition at `/metrics` read the *same* counters, so the two views
//!   can never drift. Queue wait, simulation wall time and dedup fan-in
//!   are histograms; cache occupancy and evictions come from the LRU
//!   itself. Structured logs (access lines, job failures) are gated by the
//!   `SCALESIM_LOG` environment variable.
//! * **Overload & shutdown policy** — the engine queue is bounded
//!   ([`EngineOptions::queue_depth`]): jobs that would overflow it are
//!   shed with [`JobError::Overloaded`] (HTTP 503 + `Retry-After`), never
//!   queued without limit. Requests carry deadlines (the
//!   `X-Scalesim-Deadline-Ms` header or
//!   [`http::ServerOptions::default_deadline`]; HTTP 504 on expiry, with
//!   the in-flight result still cached for the next caller). `scale-sim
//!   serve` installs `SIGINT`/`SIGTERM` handlers ([`signals`]) and drains
//!   gracefully: `/healthz` flips to `draining`, new jobs shed with
//!   [`JobError::ShuttingDown`], in-flight work gets a bounded grace
//!   period. The engine has a test-only fault-injection hook
//!   ([`FaultPlan`]) so every failure path is exercised without real
//!   overload.
//!
//! Everything is built on `std` networking and threads plus a hand-rolled
//! JSON module ([`json`]) — matching the repo-wide policy of no heavyweight
//! external dependencies.

#![warn(missing_docs)]

pub mod batch;
pub mod cli;
pub mod engine;
pub mod explore;
pub mod http;
pub mod job;
pub mod json;
pub mod signals;
pub mod sweep;

pub use batch::{parse_manifest, run_batch, BatchOutcome};
pub use engine::{
    Engine, EngineOptions, FaultPlan, JobContext, JobRecord, Served, ServedResult, SimResult,
    Stats, Ticket, FLIGHT_RECORDER_CAPACITY,
};
pub use http::{Server, ServerHandle, ServerOptions};
pub use job::{JobError, JobKey, NormalizedJob, SimJob, Workload};
pub use json::Json;
pub use scalesim::cache::ShardedLru;
