//! The design-space sweep engine: parallel, cache-aware evaluation of
//! (workload × budget × partition grid × aspect ratio × dataflow) points.
//!
//! The paper's headline results (Sec. IV, Figs. 9–12) are design-space
//! studies: thousands of cycle-accurate simulations over the cartesian
//! product of array budgets, aspect ratios, partition grids and workloads.
//! [`SweepPlan`] names such a product, and [`SweepEngine`] evaluates it
//!
//! * **in parallel** — the calling thread and up to `--jobs N` − 1 helper
//!   threads of a [`crate::pool::WorkerPool`] per run take the (point,
//!   layer) tasks of a [`crate::pool::Batch`]; they are the only threads
//!   that simulate (a partitioned layer's tiles run on the worker that
//!   took the layer), and a caller with several batches of points — the
//!   explore pipeline — keeps the helpers for all of them;
//! * **deduplicated** — points of one batch with the same workload, grid,
//!   array and dataflow choice are one simulation, so duplicate points of
//!   a plan are simulated once; a rerun is answered layer by layer by the
//!   process-wide [`crate::layer_cache`];
//! * **deterministically streamed** — results are emitted to a
//!   [`SweepSink`] in plan order as they complete, regardless of worker
//!   completion order, so parallel output is byte-identical to a serial
//!   run.
//!
//! The module is in three parts: `plan` (the grammar, the expansion into
//! points and the `--dry-run` summary), `session` (the engine, its
//! in-order emitter and [`summarize_groups`], which finds each group's
//! fastest point and the paper's runtime/bandwidth sweet spot) and `sink`
//! (where rows go, and the one CSV and JSONL row format that sweeps and
//! explores write).

use std::fmt;
use std::io;
use std::sync::Arc;

use scalesim_telemetry::{Counter, Registry};

use crate::exec::SimError;

mod plan;
mod session;
mod sink;

pub use plan::{
    squareish, AspectAxis, BudgetBreakdown, DataflowChoice, GridAxis, PlanSpaceSummary, PointIter,
    PointSpec, SweepPlan, SweepWorkload,
};
pub use session::{summarize_groups, GroupIndices, SweepEngine, SweepOutcome, SweepResult};
pub use sink::{CsvSink, JsonLinesSink, SweepSink, SWEEP_CSV_HEADER};

pub(crate) use session::ProgressTicker;
pub(crate) use sink::{row_halves, NullSink, RowFormat};

/// Metric names the sweep engine records (into the registry it was created
/// with — [`scalesim_telemetry::global`] by default). Part of the public
/// API: servers and dashboards read these back by name.
pub mod telemetry_names {
    /// Counter: sweep points completed (any path).
    pub const POINTS: &str = "scalesim_sweep_points_total";
    /// Counter: points served without a fresh simulation (a sweep's
    /// in-plan duplicates; the server's cache hits and joins).
    pub const CACHE_HITS: &str = "scalesim_sweep_cache_hits_total";
    /// Counter: simulations executed for sweep points.
    pub const SIMULATIONS: &str = "scalesim_sweep_simulations_total";
}

/// The [`telemetry_names`] counters of one registry. This is the only
/// place they are registered: the sweep engine and the server's sweep and
/// explore routes all count through it, so a registry shows one HELP text
/// and one family order whichever registers first.
#[derive(Debug, Clone)]
pub struct SweepCounters {
    /// [`telemetry_names::POINTS`].
    pub points: Arc<Counter>,
    /// [`telemetry_names::CACHE_HITS`].
    pub cache_hits: Arc<Counter>,
    /// [`telemetry_names::SIMULATIONS`].
    pub simulations: Arc<Counter>,
}

impl SweepCounters {
    /// The counters in `registry`, registered by the first call.
    pub fn new(registry: &Registry) -> SweepCounters {
        SweepCounters {
            points: registry.counter(
                telemetry_names::POINTS,
                "Sweep points completed (any path).",
            ),
            cache_hits: registry.counter(
                telemetry_names::CACHE_HITS,
                "Sweep points served without a fresh simulation.",
            ),
            simulations: registry.counter(
                telemetry_names::SIMULATIONS,
                "Simulations executed for sweep points.",
            ),
        }
    }
}

/// Why a sweep failed.
#[derive(Debug)]
pub enum SweepError {
    /// The plan itself is invalid.
    Plan(String),
    /// The sink raised an I/O error.
    Io(io::Error),
    /// A simulation panicked; the panic was caught at the task boundary
    /// and the sweep aborted cleanly instead of hanging.
    Sim(SimError),
}

impl SweepError {
    fn plan(msg: impl Into<String>) -> SweepError {
        SweepError::Plan(msg.into())
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Plan(msg) => write!(f, "{msg}"),
            SweepError::Io(e) => write!(f, "sweep output failed: {e}"),
            SweepError::Sim(e) => write!(f, "sweep aborted: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<io::Error> for SweepError {
    fn from(e: io::Error) -> SweepError {
        SweepError::Io(e)
    }
}

impl From<SimError> for SweepError {
    fn from(e: SimError) -> SweepError {
        SweepError::Sim(e)
    }
}
