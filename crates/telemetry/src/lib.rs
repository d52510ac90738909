//! `scalesim-telemetry` — zero-dependency observability for scale-sim-rs.
//!
//! The workspace's dependency policy is std-only (the build environment has
//! no crates.io access — see `vendor/README.md`), so this crate implements
//! the observability layer from scratch rather than binding `tracing` /
//! `prometheus`:
//!
//! * **Metrics** ([`metrics`], [`registry`]) — [`Counter`], [`Gauge`]
//!   and fixed-bucket [`Histogram`] primitives behind a label-aware, get-or-create [`Registry`] with a Prometheus
//!   text-format renderer ([`Registry::render`]). A process-wide
//!   [`global()`] registry carries simulator-side metrics; servers render
//!   it alongside their own per-engine registries.
//! * **Spans and tracing** ([`trace`]) — [`TraceSpan`], the one span
//!   guard: RAII timing of a named region into a bounded ring of finished
//!   spans with parent/child links and per-thread rows, exportable as
//!   Chrome trace-event JSON (Perfetto / `chrome://tracing`); off by
//!   default and one branch per span when disabled.
//! * **Flight recorder** ([`recorder`]) — a bounded ring of recent
//!   records (e.g. one per server job) for in-memory post-mortems.
//!
//! * **JSON strings** ([`JsonStr`]) — the one escaper the trace export,
//!   the sweep and explore JSONL rows and the server's JSON write through.
//!
//! These four are the whole surface: there is no log channel, and a
//! signal stays only while something reads it (DESIGN.md §2 lists each
//! series and route with its reader).
//!
//! The cost model is deliberate: disabled tracing is one branch, metric
//! updates held as `Arc` handles are one relaxed atomic op, and registry
//! lookups (a short mutex + linear scan) only appear on per-layer or
//! per-request paths, never inside per-cycle or per-fold loops.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use json::JsonStr;
pub use metrics::{Counter, Gauge, Histogram};
pub use recorder::FlightRecorder;
pub use registry::{global, Labels, Registry};
pub use trace::TraceSpan;
