//! The design-space sweep engine: parallel, cache-aware evaluation of
//! (workload × budget × partition grid × aspect ratio × dataflow) points.
//!
//! The paper's headline results (Sec. IV, Figs. 9–12) are design-space
//! studies: thousands of cycle-accurate simulations over the cartesian
//! product of array budgets, aspect ratios, partition grids and workloads.
//! [`SweepPlan`] names such a product, and [`SweepEngine`] evaluates it
//!
//! * **in parallel** — up to `--jobs N` scoped worker threads per run take
//!   (point, layer) tasks from a block-scheduled [`Executor`]; they are the
//!   only threads that simulate (a partitioned layer's tiles run on the
//!   worker that took the layer), and a caller with several batches of
//!   points — the explore pipeline — keeps them for all of them;
//! * **memoized** — every point is content-addressed by the same canonical
//!   job text the `scalesim-server` cache uses ([`canonical_job_text`]),
//!   deduplicated through a [`ShardedLru`], so duplicate points inside a
//!   plan and repeats across plans are never re-simulated;
//! * **deterministically streamed** — results are emitted to a
//!   [`SweepSink`] in plan order as they complete, regardless of worker
//!   completion order, so parallel output is byte-identical to a serial
//!   run.
//!
//! The classic [`run_partition_sweep`] (the Fig. 11/12 experiment as an
//! API) is now a thin wrapper over this engine, and [`sweet_spot`] still
//! answers the paper's "intersection of runtime and bandwidth curves".

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use scalesim_analytical::{aspect_ratio_shapes, PartitionGrid};
use scalesim_systolic::ArrayShape;
use scalesim_telemetry::{Counter, Histogram, Registry};
use scalesim_topology::{networks, topology_to_csv, Dataflow, Layer, Topology};

use crate::cache::{ContentKey, ShardedLru};
use crate::config::{parse_config, SimConfig};
use crate::exec::{ExecSummary, Executor, FaultPlan, SimError};
use crate::report::{LayerReport, NetworkReport};
use crate::simulator::Simulator;

/// Metric names the sweep engine records (into the registry it was created
/// with — [`scalesim_telemetry::global`] by default). Part of the public
/// API: servers and dashboards read these back by name.
pub mod telemetry_names {
    /// Counter: sweep points completed (any path).
    pub const POINTS: &str = "scalesim_sweep_points_total";
    /// Counter: points served without a fresh simulation (in-plan
    /// duplicates and LRU hits from earlier plans).
    pub const CACHE_HITS: &str = "scalesim_sweep_cache_hits_total";
    /// Counter: simulations the sweep pool actually executed.
    pub const SIMULATIONS: &str = "scalesim_sweep_simulations_total";
    /// Histogram: wall time per freshly simulated point, seconds.
    pub const POINT_SECONDS: &str = "scalesim_sweep_point_seconds";
    /// Counter: results evicted from the sweep result cache.
    pub const CACHE_EVICTIONS: &str = "scalesim_sweep_cache_evictions_total";
    /// Gauge: results currently held by the sweep result cache.
    pub const CACHE_RESIDENT: &str = "scalesim_sweep_cache_resident_entries";
    /// Counter: layer-granularity tasks executed by the sweep's pool
    /// (re-exported from [`crate::exec`]).
    pub const EXEC_TASKS: &str = crate::exec::telemetry_names::TASKS;
    /// Counter: tasks a worker took from another worker's block.
    pub const EXEC_STEALS: &str = crate::exec::telemetry_names::STEALS;
}

/// Splits a power-of-two `n` into the most square `(rows, cols)` pair with
/// `rows ≥ cols`.
///
/// # Panics
///
/// Panics if `n` is not a power of two.
pub fn squareish(n: u64) -> (u64, u64) {
    assert!(n.is_power_of_two(), "need a power of two, got {n}");
    let rows = 1u64 << n.trailing_zeros().div_ceil(2);
    (rows, n / rows)
}

/// The canonical text a simulation job's content key is derived from.
///
/// Every semantic field appears via the simulator's own round-tripping
/// serializers, so any two requests that simulate identically serialize
/// identically. This is the *shared* key space of the sweep engine and the
/// `scalesim-server` result cache — both hash exactly this text.
///
/// `auto_dataflow` appends a marker line only when set, keeping keys of
/// fixed-dataflow jobs stable across versions.
pub fn canonical_job_text(
    config: &SimConfig,
    workload: &str,
    grid: PartitionGrid,
    topology_csv: &str,
    auto_dataflow: bool,
) -> String {
    let mut text = format!(
        "config:\n{}\nworkload: {}\ngrid: {}x{}\ntopology:\n{}",
        config.to_config_string(),
        workload,
        grid.rows(),
        grid.cols(),
        topology_csv,
    );
    if auto_dataflow {
        text.push_str("auto_dataflow: true\n");
    }
    text
}

/// The dataflow axis of a sweep: a fixed mapping or per-layer auto
/// selection (the analytical model picks the fastest mapping per layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataflowChoice {
    /// Every layer runs the given dataflow.
    Fixed(Dataflow),
    /// The fastest dataflow is selected per layer (Sec. III-B model).
    Auto,
}

impl fmt::Display for DataflowChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowChoice::Fixed(df) => write!(f, "{df}"),
            DataflowChoice::Auto => write!(f, "auto"),
        }
    }
}

impl std::str::FromStr for DataflowChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<DataflowChoice, String> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(DataflowChoice::Auto);
        }
        s.parse::<Dataflow>()
            .map(DataflowChoice::Fixed)
            .map_err(|_| format!("bad dataflow `{s}` (want os/ws/is/auto)"))
    }
}

/// The partition-grid axis of a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GridAxis {
    /// Every power-of-two partition count that keeps the per-partition
    /// array at or above the `min_dim × min_dim` floor, arranged
    /// square-ish (the paper's arrangement).
    PowersOfTwo,
    /// An explicit list of grids.
    Explicit(Vec<PartitionGrid>),
}

/// The array aspect-ratio axis of a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AspectAxis {
    /// One square-ish array per per-partition budget.
    Squareish,
    /// Every power-of-two aspect ratio from tall to wide (Fig. 9/10).
    All,
}

/// One workload of a sweep: a display label plus the resolved topology.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepWorkload {
    /// Label used in point rows and grouping (e.g. `"TF0"`).
    pub label: String,
    /// The topology simulated at every point of this workload.
    pub topology: Topology,
}

/// A design-space sweep: the cartesian product of workloads, MAC budgets,
/// partition grids, array aspect ratios and dataflows, over a base
/// hardware configuration.
///
/// Build one programmatically or parse the plan-file format with
/// [`SweepPlan::parse`]; expand it to points with [`SweepPlan::expand`];
/// run it with [`SweepEngine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Plan name (reports and telemetry only).
    pub name: String,
    /// Base hardware configuration; the array (and possibly dataflow) is
    /// replaced per point, SRAM sizes and bandwidth are inherited.
    pub base: SimConfig,
    /// Workloads to sweep.
    pub workloads: Vec<SweepWorkload>,
    /// Total MAC budgets (powers of two).
    pub budgets: Vec<u64>,
    /// Minimum array dimension (power of two), the paper's 8 by default.
    pub min_dim: u64,
    /// Partition-grid axis.
    pub grids: GridAxis,
    /// Array aspect-ratio axis.
    pub aspects: AspectAxis,
    /// Dataflow axis; empty means "the base configuration's dataflow".
    pub dataflows: Vec<DataflowChoice>,
}

impl SweepPlan {
    /// A plan with the paper's defaults: base [`SimConfig::default`],
    /// `min_dim = 8`, power-of-two square-ish grids, square-ish arrays,
    /// the base dataflow. Add workloads and budgets before running.
    pub fn new(name: impl Into<String>) -> SweepPlan {
        SweepPlan {
            name: name.into(),
            base: SimConfig::default(),
            workloads: Vec::new(),
            budgets: Vec::new(),
            min_dim: 8,
            grids: GridAxis::PowersOfTwo,
            aspects: AspectAxis::Squareish,
            dataflows: Vec::new(),
        }
    }

    /// Adds a workload resolved by name via [`networks::by_name`]
    /// (built-in networks or Table IV layer tags like `TF0`).
    pub fn workload(mut self, name: &str) -> Result<SweepPlan, SweepError> {
        self.set("workload", name).map_err(SweepError::plan)?;
        Ok(self)
    }

    /// Sets one key of the plan grammar (the table under
    /// [`SweepPlan::parse`]): the plan file is a sequence of these, and
    /// the server's JSON plan maps its fields onto the same keys, so the
    /// two spellings cannot drift. List-valued keys append; a later
    /// scalar replaces an earlier one.
    ///
    /// # Errors
    ///
    /// A one-line message naming the rejected key or value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let list = || value.split(',').map(str::trim).filter(|s| !s.is_empty());
        match key {
            "name" => self.name = value.to_owned(),
            "workload" => {
                for name in list() {
                    let topology = networks::by_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?;
                    self.workloads.push(SweepWorkload {
                        label: topology.name().to_owned(),
                        topology,
                    });
                }
            }
            "budget" => {
                for token in list() {
                    self.budgets
                        .push(parse_budget(token).ok_or_else(|| format!("bad budget `{token}`"))?);
                }
            }
            "min_dim" => {
                self.min_dim = value
                    .parse()
                    .map_err(|_| format!("bad min_dim `{value}`"))?;
            }
            "grid" => {
                self.grids = if value.eq_ignore_ascii_case("all") {
                    GridAxis::PowersOfTwo
                } else {
                    GridAxis::Explicit(list().map(str::parse).collect::<Result<_, _>>()?)
                };
            }
            "aspect" => {
                self.aspects = match value.to_ascii_lowercase().as_str() {
                    "squareish" | "square" => AspectAxis::Squareish,
                    "all" => AspectAxis::All,
                    other => return Err(format!("bad aspect `{other}` (want squareish or all)")),
                };
            }
            "dataflow" => {
                for token in list() {
                    self.dataflows.push(token.parse()?);
                }
            }
            "bandwidth" => {
                let bw: f64 = value
                    .parse()
                    .map_err(|_| format!("bad bandwidth `{value}`"))?;
                if !(bw.is_finite() && bw > 0.0) {
                    return Err("bandwidth must be positive".into());
                }
                self.base.dram_bandwidth = Some(bw);
            }
            _ => {
                let cfg_key = key
                    .strip_prefix("config.")
                    .ok_or_else(|| format!("unknown plan key `{key}`"))?;
                // The base written out and read back with the override as
                // its last line: `parse_config` stays the one place that
                // knows Table I's keys and their checks.
                let text = format!("{}{cfg_key} : {value}\n", self.base.to_config_string());
                self.base = parse_config(&text).map_err(|e| {
                    // Its line number counts lines of `text`, not of the plan.
                    let msg = e.to_string();
                    let msg = match msg.split_once(": ") {
                        Some((at, rest)) if at.starts_with("line ") => rest,
                        _ => &msg,
                    };
                    format!("{key}: {msg}")
                })?;
            }
        }
        Ok(())
    }

    /// Parses the plan-file format: `key = value` lines (`:` works too),
    /// `#` comments. Keys:
    ///
    /// | key | value |
    /// |---|---|
    /// | `name` | plan name |
    /// | `workload` | comma-separated workload names ([`networks::by_name`] vocabulary); repeatable |
    /// | `budget` | comma-separated total MAC budgets, plain (`16384`) or exponent (`2^14`); repeatable |
    /// | `min_dim` | minimum array dimension (default 8) |
    /// | `grid` | `all` (power-of-two counts, square-ish) or comma-separated `PRxPC` list |
    /// | `aspect` | `squareish` (default) or `all` (every power-of-two ratio) |
    /// | `dataflow` | comma-separated `os`/`ws`/`is`/`auto` |
    /// | `bandwidth` | DRAM bytes/cycle; enables the stall model |
    /// | `config.<Key>` | base-config override in Table I vocabulary (e.g. `config.IfmapSramSz`) |
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] on unknown keys, unknown workloads or
    /// malformed values.
    pub fn parse(text: &str) -> Result<SweepPlan, SweepError> {
        Self::parse_with_origin(text, None)
    }

    /// Like [`SweepPlan::parse`], but diagnostics carry `origin` (usually
    /// the plan's file name) ahead of the line number, `origin:line: msg`
    /// style, so errors from multi-file tooling point at the right file.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] on unknown keys, unknown workloads or
    /// malformed values.
    ///
    /// ```
    /// use scalesim::SweepPlan;
    ///
    /// let err = SweepPlan::parse_named("budget = nonsense", "fig9.plan").unwrap_err();
    /// assert!(err.to_string().starts_with("fig9.plan:1: "));
    /// ```
    pub fn parse_named(text: &str, origin: &str) -> Result<SweepPlan, SweepError> {
        Self::parse_with_origin(text, Some(origin))
    }

    fn parse_with_origin(text: &str, origin: Option<&str>) -> Result<SweepPlan, SweepError> {
        let mut plan = SweepPlan::new("sweep");
        for (lineno, raw) in text.lines().enumerate() {
            let line = match raw.split_once('#') {
                Some((before, _)) => before.trim(),
                None => raw.trim(),
            };
            if line.is_empty() {
                continue;
            }
            line.split_once('=')
                .or_else(|| line.split_once(':'))
                .ok_or_else(|| "expected `key = value`".to_owned())
                .and_then(|(key, value)| plan.set(key.trim(), value.trim()))
                // Diagnostic prefix: `origin:line:` when a file name is
                // known, bare `line N:` otherwise (the historical format).
                .map_err(|msg| match origin {
                    Some(name) => SweepError::plan(format!("{name}:{}: {msg}", lineno + 1)),
                    None => SweepError::plan(format!("line {}: {msg}", lineno + 1)),
                })?;
        }
        Ok(plan)
    }

    /// Dense workload ids: each label's position in `workloads` (the last
    /// one, should a label repeat).
    pub(crate) fn workload_index(&self) -> HashMap<&str, usize> {
        self.workloads
            .iter()
            .enumerate()
            .map(|(i, w)| (w.label.as_str(), i))
            .collect()
    }

    /// The dataflow axis with the empty-means-base default applied.
    fn dataflow_axis(&self) -> Vec<DataflowChoice> {
        if self.dataflows.is_empty() {
            vec![DataflowChoice::Fixed(self.base.dataflow)]
        } else {
            self.dataflows.clone()
        }
    }

    /// Expands the plan into its ordered list of points: workloads ×
    /// budgets × grids × aspect ratios × dataflows, in that nesting order.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] if the plan is empty or any budget /
    /// grid combination is invalid (budgets and `min_dim` must be powers
    /// of two; every grid must split its budget into a power-of-two
    /// per-partition array of at least `min_dim × min_dim`).
    pub fn expand(&self) -> Result<Vec<PointSpec>, SweepError> {
        Ok(self.points()?.collect())
    }

    /// Validates the plan and returns a lazy iterator over its points, in
    /// exactly the order [`SweepPlan::expand`] would materialize them.
    ///
    /// Per-budget `(grid, array)` combinations are computed eagerly (they
    /// are small), but the workload × combination × dataflow product is
    /// generated on demand — a million-point space costs no allocation
    /// beyond the per-budget tables, which is what lets explore's stage 0
    /// walk spaces far too large to expand.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] under the same conditions as
    /// [`SweepPlan::expand`].
    pub fn points(&self) -> Result<PointIter<'_>, SweepError> {
        PointIter::new(self)
    }

    /// Per-budget validated `(grid, array)` combinations — the shared
    /// candidate generator behind [`SweepPlan::expand`], `sweep --dry-run`
    /// and explore stage 0.
    fn budget_combos(&self, budget: u64) -> Result<Vec<(PartitionGrid, ArrayShape)>, SweepError> {
        let floor = self.min_dim * self.min_dim;
        if !budget.is_power_of_two() || budget < floor {
            return Err(SweepError::plan(format!(
                "budget {budget} must be a power of two of at least {floor} MACs"
            )));
        }
        let grids: Vec<PartitionGrid> = match &self.grids {
            GridAxis::PowersOfTwo => {
                let mut grids = Vec::new();
                let mut p = 1u64;
                while budget / p >= floor {
                    let (gr, gc) = squareish(p);
                    grids.push(PartitionGrid::new(gr, gc));
                    p *= 2;
                }
                grids
            }
            GridAxis::Explicit(grids) => grids.clone(),
        };
        let mut combos = Vec::new();
        for grid in grids {
            let count = grid.count();
            if !budget.is_multiple_of(count) || !(budget / count).is_power_of_two() {
                return Err(SweepError::plan(format!(
                    "grid {grid} does not split budget {budget} into a power of two"
                )));
            }
            let per_array = budget / count;
            if per_array < floor {
                return Err(SweepError::plan(format!(
                    "grid {grid} leaves {per_array} MACs per array, below the \
                     {}x{} floor",
                    self.min_dim, self.min_dim
                )));
            }
            match self.aspects {
                AspectAxis::Squareish => {
                    let (ar, ac) = squareish(per_array);
                    combos.push((grid, ArrayShape::new(ar, ac)));
                }
                AspectAxis::All => {
                    combos.extend(
                        aspect_ratio_shapes(per_array, self.min_dim)
                            .into_iter()
                            .map(|array| (grid, array)),
                    );
                }
            }
        }
        Ok(combos)
    }

    /// Validates the plan and summarizes its candidate space without
    /// simulating anything — the engine behind `scale-sim sweep --dry-run`.
    ///
    /// The duplicate count is exact: it groups points by the same identity
    /// the [`SweepEngine`]'s content-addressed dedup uses (workload, grid,
    /// array, effective dataflow), so `points - distinct_jobs` is the
    /// number of simulations a run would save before the LRU cache even
    /// gets a say.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] under the same conditions as
    /// [`SweepPlan::expand`].
    pub fn space_summary(&self) -> Result<PlanSpaceSummary, SweepError> {
        let iter = self.points()?;
        let per_budget: Vec<BudgetBreakdown> = self
            .budgets
            .iter()
            .zip(&iter.combos)
            .map(|(&budget, combos)| {
                let mut grids: Vec<PartitionGrid> = combos.iter().map(|&(g, _)| g).collect();
                grids.dedup();
                BudgetBreakdown {
                    budget,
                    grids: grids.len(),
                    combos: combos.len(),
                }
            })
            .collect();
        let dataflows = iter.dataflows.len();
        let points = iter.len();
        let mut seen = HashSet::new();
        for spec in self.points()? {
            let effective = match spec.dataflow {
                DataflowChoice::Fixed(df) => (df, false),
                DataflowChoice::Auto => (self.base.dataflow, true),
            };
            seen.insert((spec.workload, spec.grid, spec.array, effective));
        }
        Ok(PlanSpaceSummary {
            points,
            distinct_jobs: seen.len(),
            workloads: self.workloads.len(),
            budgets: self.budgets.len(),
            dataflows,
            per_budget,
        })
    }
}

/// A lazy, validating iterator over a plan's design points in plan order.
///
/// Created by [`SweepPlan::points`]. The iterator is exact-size: the full
/// cartesian count is known up front from the per-budget tables.
pub struct PointIter<'a> {
    plan: &'a SweepPlan,
    dataflows: Vec<DataflowChoice>,
    /// Validated `(grid, array)` pairs, one table per plan budget.
    combos: Vec<Vec<(PartitionGrid, ArrayShape)>>,
    index: usize,
    total: usize,
    /// Cursor: (workload, budget, combo, dataflow).
    w: usize,
    b: usize,
    c: usize,
    d: usize,
}

impl<'a> PointIter<'a> {
    fn new(plan: &'a SweepPlan) -> Result<PointIter<'a>, SweepError> {
        if plan.workloads.is_empty() {
            return Err(SweepError::plan("plan has no workloads"));
        }
        if plan.budgets.is_empty() {
            return Err(SweepError::plan("plan has no budgets"));
        }
        if !plan.min_dim.is_power_of_two() {
            return Err(SweepError::plan(format!(
                "min_dim {} is not a power of two",
                plan.min_dim
            )));
        }
        let combos: Vec<Vec<(PartitionGrid, ArrayShape)>> = plan
            .budgets
            .iter()
            .map(|&budget| plan.budget_combos(budget))
            .collect::<Result<_, _>>()?;
        let dataflows = plan.dataflow_axis();
        let per_workload = combos.iter().map(Vec::len).sum::<usize>() * dataflows.len();
        let total = per_workload * plan.workloads.len();
        Ok(PointIter {
            plan,
            dataflows,
            combos,
            index: 0,
            total,
            w: 0,
            b: 0,
            c: 0,
            d: 0,
        })
    }
}

impl Iterator for PointIter<'_> {
    type Item = PointSpec;

    fn next(&mut self) -> Option<PointSpec> {
        // Skip budgets whose combo table is empty (possible with explicit
        // grids only; `budget_combos` rejects empty power-of-two tables).
        while self.b < self.combos.len() && self.combos[self.b].is_empty() {
            self.b += 1;
        }
        if self.w >= self.plan.workloads.len() || self.b >= self.combos.len() {
            return None;
        }
        let (grid, array) = self.combos[self.b][self.c];
        let spec = PointSpec {
            index: self.index,
            workload: self.plan.workloads[self.w].label.clone(),
            budget: self.plan.budgets[self.b],
            grid,
            array,
            dataflow: self.dataflows[self.d],
        };
        self.index += 1;
        self.d += 1;
        if self.d == self.dataflows.len() {
            self.d = 0;
            self.c += 1;
            if self.c == self.combos[self.b].len() {
                self.c = 0;
                self.b += 1;
                if self.b == self.combos.len() {
                    self.b = 0;
                    self.w += 1;
                }
            }
        }
        Some(spec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PointIter<'_> {}

/// Per-budget axis breakdown inside a [`PlanSpaceSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetBreakdown {
    /// The MAC budget.
    pub budget: u64,
    /// Distinct partition grids at this budget.
    pub grids: usize,
    /// `(grid, array)` combinations at this budget (grids × aspect
    /// ratios).
    pub combos: usize,
}

/// What `sweep --dry-run` reports: the size and shape of a plan's
/// candidate space, computed without simulating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanSpaceSummary {
    /// Total cartesian points (workloads × budgets × grids × aspects ×
    /// dataflows).
    pub points: usize,
    /// Distinct simulation jobs after the engine's content-addressed
    /// dedup (exact, not an estimate).
    pub distinct_jobs: usize,
    /// Workloads on the workload axis.
    pub workloads: usize,
    /// Budgets on the budget axis.
    pub budgets: usize,
    /// Dataflows on the dataflow axis (after the empty-means-base
    /// default).
    pub dataflows: usize,
    /// Per-budget grid/combination counts.
    pub per_budget: Vec<BudgetBreakdown>,
}

fn parse_budget(token: &str) -> Option<u64> {
    if let Some((base, exp)) = token.split_once('^') {
        let base: u64 = base.trim().parse().ok()?;
        let exp: u32 = exp.trim().parse().ok()?;
        base.checked_pow(exp)
    } else {
        token.parse().ok()
    }
}

/// One expanded design point (before simulation).
#[derive(Debug, Clone, PartialEq)]
pub struct PointSpec {
    /// Position in plan order (stable across serial and parallel runs).
    pub index: usize,
    /// Workload label.
    pub workload: String,
    /// Total MAC budget across all partitions.
    pub budget: u64,
    /// Partition grid.
    pub grid: PartitionGrid,
    /// Per-partition array shape.
    pub array: ArrayShape,
    /// Dataflow at this point.
    pub dataflow: DataflowChoice,
}

impl PointSpec {
    /// Number of partitions at this point.
    pub fn partitions(&self) -> u64 {
        self.grid.count()
    }

    /// The effective hardware configuration of this point over `base`.
    /// Under [`DataflowChoice::Auto`] the base dataflow is kept as the
    /// fallback label; the simulator re-selects per layer.
    pub fn config(&self, base: &SimConfig) -> SimConfig {
        let mut config = SimConfig {
            array: self.array,
            ..*base
        };
        if let DataflowChoice::Fixed(df) = self.dataflow {
            config.dataflow = df;
        }
        config
    }
}

/// One simulated sweep result: the point and its full report.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The design point.
    pub spec: PointSpec,
    /// The simulation report (shared with the result cache).
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
    /// Simulations actually executed by this run.
    pub simulations: u64,
    /// Points served without a fresh simulation (in-plan duplicates plus
    /// LRU hits from earlier plans on the same engine).
    pub cache_hits: u64,
    /// Wall latency of each freshly simulated point — first layer task
    /// start to assembly — in microseconds, in work-list order. One entry
    /// per entry of `simulations`; feeds the tail-latency bench tier.
    pub point_latencies_micros: Vec<u64>,
    /// Scheduler counters for this run (tasks, steals,
    /// per-worker busy fractions).
    pub exec: ExecSummary,
}

/// A per-group sweep summary: the fastest point and the paper's runtime/
/// bandwidth sweet spot (Sec. IV-A) within one (workload, budget,
/// dataflow) series.
#[derive(Debug, Clone, Copy)]
pub struct GroupSummary<'a> {
    /// Workload label of the group.
    pub workload: &'a str,
    /// MAC budget of the group.
    pub budget: u64,
    /// Dataflow of the group.
    pub dataflow: DataflowChoice,
    /// The point with the lowest effective (stall-inclusive) runtime.
    pub best: &'a SweepResult,
    /// The runtime/bandwidth crossing over the group's partition series;
    /// `None` when the group holds a single partition count.
    pub sweet_spot: Option<&'a SweepResult>,
}

impl SweepOutcome {
    /// Groups results by (workload, budget, dataflow) and summarizes each:
    /// fastest point by effective cycles, plus the sweet spot across the
    /// group's partition counts (points ordered by partition count).
    pub fn summarize(&self) -> Vec<GroupSummary<'_>> {
        summarize_groups(self.results.iter().map(|r| (&r.spec, &*r.report)))
            .into_iter()
            .map(|group| {
                let best = &self.results[group.best];
                GroupSummary {
                    workload: &best.spec.workload,
                    budget: best.spec.budget,
                    dataflow: best.spec.dataflow,
                    best,
                    sweet_spot: group.sweet_spot.map(|i| &self.results[i]),
                }
            })
            .collect()
    }
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
/// sweet spot. The one implementation behind [`SweepOutcome::summarize`]
/// and the server's `/sweep` summary.
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

/// Where a sweep streams its rows. Called from the engine's emitter in
/// strict plan order — implementations never see out-of-order points.
pub trait SweepSink {
    /// Called once before any point, with the total point count.
    ///
    /// # Errors
    ///
    /// I/O errors abort the sweep.
    fn begin(&mut self, plan: &SweepPlan, points: usize) -> io::Result<()> {
        let _ = (plan, points);
        Ok(())
    }

    /// Called once per point, in plan order, as results become available.
    ///
    /// # Errors
    ///
    /// I/O errors abort the sweep.
    fn point(&mut self, spec: &PointSpec, report: &NetworkReport) -> io::Result<()>;

    /// Called once after the last point.
    ///
    /// # Errors
    ///
    /// I/O errors abort the sweep.
    fn end(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The CSV columns emitted by [`CsvSink`], terminated by a newline.
pub const SWEEP_CSV_HEADER: &str = "workload,budget,partitions,grid,array,dataflow,cycles,\
     effective_cycles,macs,overall_util,dram_bytes,peak_bw_bytes_per_cycle,energy\n";

pub(crate) fn sweep_row_fields(spec: &PointSpec, report: &NetworkReport) -> (String, String) {
    // (prefix identifying the point, suffix of measured values) — shared
    // between the CSV and JSONL sinks so the two stay in sync.
    let prefix = format!(
        "{},{},{},{},{},{}",
        spec.workload,
        spec.budget,
        spec.partitions(),
        spec.grid,
        spec.array,
        spec.dataflow,
    );
    let suffix = format!(
        "{},{},{},{:.4},{},{:.3},{:.1}",
        report.total_cycles(),
        report.total_effective_cycles(),
        report.total_macs(),
        report.overall_utilization(),
        report.total_dram_bytes(),
        report.peak_required_bandwidth(),
        report.total_energy().total(),
    );
    (prefix, suffix)
}

/// Streams sweep rows as CSV ([`SWEEP_CSV_HEADER`] + one row per point).
pub struct CsvSink<W: io::Write> {
    writer: W,
}

impl<W: io::Write> CsvSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> CsvSink<W> {
        CsvSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: io::Write> SweepSink for CsvSink<W> {
    fn begin(&mut self, _plan: &SweepPlan, _points: usize) -> io::Result<()> {
        self.writer.write_all(SWEEP_CSV_HEADER.as_bytes())
    }

    fn point(&mut self, spec: &PointSpec, report: &NetworkReport) -> io::Result<()> {
        let (prefix, suffix) = sweep_row_fields(spec, report);
        writeln!(self.writer, "{prefix},{suffix}")
    }

    fn end(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams sweep rows as JSON Lines: one object per point, fixed key
/// order, deterministic for identical results.
pub struct JsonLinesSink<W: io::Write> {
    writer: W,
}

impl<W: io::Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl<W: io::Write> SweepSink for JsonLinesSink<W> {
    fn point(&mut self, spec: &PointSpec, report: &NetworkReport) -> io::Result<()> {
        writeln!(
            self.writer,
            "{{\"workload\":\"{}\",\"budget\":{},\"partitions\":{},\"grid\":\"{}\",\
             \"array\":\"{}\",\"dataflow\":\"{}\",\"cycles\":{},\"effective_cycles\":{},\
             \"macs\":{},\"overall_util\":{:.4},\"dram_bytes\":{},\
             \"peak_bw_bytes_per_cycle\":{:.3},\"energy\":{:.1}}}",
            escape_json(&spec.workload),
            spec.budget,
            spec.partitions(),
            spec.grid,
            spec.array,
            spec.dataflow,
            report.total_cycles(),
            report.total_effective_cycles(),
            report.total_macs(),
            report.overall_utilization(),
            report.total_dram_bytes(),
            report.peak_required_bandwidth(),
            report.total_energy().total(),
        )
    }

    fn end(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// A sink that discards rows (for callers that only want the outcome).
pub(crate) struct NullSink;

impl SweepSink for NullSink {
    fn point(&mut self, _spec: &PointSpec, _report: &NetworkReport) -> io::Result<()> {
        Ok(())
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

/// A prepared point: its spec plus the distinct job that answers it.
struct PreparedPoint {
    spec: PointSpec,
    distinct: usize,
}

/// One distinct simulation job (several points may share it).
struct DistinctJob {
    key: u128,
    config: SimConfig,
    grid: PartitionGrid,
    auto: bool,
    workload: usize,
}

/// Mutable per-pending-job state shared by that job's layer tasks: the
/// filled layer reports, the count of tasks still owed, the first-task
/// start instant (point latency runs from the first layer start to
/// assembly) and the finished latency.
struct JobState {
    layers: Mutex<Vec<Option<LayerReport>>>,
    remaining: AtomicUsize,
    started: Mutex<Option<Instant>>,
    latency_micros: AtomicU64,
}

/// Completion slots shared between workers and the in-order emitter.
///
/// A slot may complete with a report or — when a simulation panics — be
/// *poisoned* with the [`SimError`]. Poisoning fills every still-empty
/// slot, so an emitter blocked in [`Slots::wait`] always wakes up with a
/// definite answer: before it existed, a panicking worker left its slot
/// empty forever and the sweep hung instead of failing.
struct Slots {
    filled: Mutex<Vec<Option<SlotState>>>,
    ready: Condvar,
}

/// A completed slot: the simulated report, or the error that poisoned it.
type SlotState = Result<Arc<NetworkReport>, SimError>;

impl Slots {
    fn new(n: usize) -> Slots {
        Slots {
            filled: Mutex::new(vec![None; n]),
            ready: Condvar::new(),
        }
    }

    fn fill(&self, i: usize, report: Arc<NetworkReport>) {
        *self
            .filled
            .lock()
            .unwrap()
            .get_mut(i)
            .expect("slot index in range") = Some(Ok(report));
        self.ready.notify_all();
    }

    /// Fills every still-empty slot with `err`, waking all waiters.
    fn poison(&self, err: &SimError) {
        let mut filled = self.filled.lock().unwrap();
        for slot in filled.iter_mut() {
            if slot.is_none() {
                *slot = Some(Err(err.clone()));
            }
        }
        self.ready.notify_all();
    }

    fn wait(&self, i: usize) -> Result<Arc<NetworkReport>, SimError> {
        let mut filled = self.filled.lock().unwrap();
        loop {
            if let Some(result) = &filled[i] {
                return result.clone();
            }
            filled = self.ready.wait(filled).unwrap();
        }
    }

    /// Like [`Slots::wait`], but gives up after `timeout` so the caller
    /// can do periodic work (the progress ticker's heartbeat) while a
    /// slow head-of-line point is still simulating.
    fn wait_for(
        &self,
        i: usize,
        timeout: Duration,
    ) -> Option<Result<Arc<NetworkReport>, SimError>> {
        let deadline = Instant::now() + timeout;
        let mut filled = self.filled.lock().unwrap();
        loop {
            if let Some(result) = &filled[i] {
                return Some(result.clone());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            filled = self.ready.wait_timeout(filled, left).unwrap().0;
        }
    }
}

/// The parallel, memoizing sweep executor: a content-addressed result
/// cache (shared across every plan run on the same engine) plus one set of
/// scoped worker threads per run.
///
/// Determinism: duplicate points are simulated once and results are
/// emitted in plan order, so the output stream is byte-identical to a
/// `jobs = 1` run — and each point's report is byte-identical to a fresh
/// single-shot [`Simulator`] run of the same configuration.
pub struct SweepEngine {
    cache: ShardedLru<Arc<NetworkReport>>,
    points_total: Arc<Counter>,
    cache_hits: Arc<Counter>,
    simulations: Arc<Counter>,
    point_seconds: Arc<Histogram>,
    exec_tasks: Arc<Counter>,
    exec_steals: Arc<Counter>,
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
    /// how many of these have completed, *not* on emitted points —
    /// instantly-emitted cache hits used to make warm sweeps report
    /// absurdly optimistic ETAs.
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

impl SweepEngine {
    /// An engine caching up to `cache_capacity` distinct results, with
    /// telemetry in the process-global registry.
    ///
    /// The capacity is approximate: it is spread over the [`ShardedLru`]'s
    /// 16 shards (per-shard LRU eviction), so an unlucky key distribution
    /// can evict before `cache_capacity` distinct results are resident.
    /// Size generously — at least 16x the working set — when exact
    /// retention matters.
    pub fn new(cache_capacity: usize) -> SweepEngine {
        SweepEngine::with_registry(cache_capacity, scalesim_telemetry::global())
    }

    /// An engine recording its metrics into `registry` (e.g. a server
    /// engine's scoped registry).
    pub fn with_registry(cache_capacity: usize, registry: &Registry) -> SweepEngine {
        let evictions = registry.counter(
            telemetry_names::CACHE_EVICTIONS,
            "Results evicted from the sweep result cache.",
        );
        let resident = registry.gauge(
            telemetry_names::CACHE_RESIDENT,
            "Results currently held by the sweep result cache.",
        );
        SweepEngine {
            cache: ShardedLru::new(cache_capacity, 16).with_metrics(evictions, resident),
            points_total: registry.counter(
                telemetry_names::POINTS,
                "Sweep points completed (any path).",
            ),
            cache_hits: registry.counter(
                telemetry_names::CACHE_HITS,
                "Sweep points served without a fresh simulation.",
            ),
            simulations: registry.counter(
                telemetry_names::SIMULATIONS,
                "Simulations executed by the sweep pool.",
            ),
            point_seconds: registry.histogram(
                telemetry_names::POINT_SECONDS,
                "Wall time per freshly simulated sweep point.",
                &Histogram::duration_buckets(),
            ),
            exec_tasks: registry.counter(
                telemetry_names::EXEC_TASKS,
                "Layer-granularity tasks executed by the sweep pool.",
            ),
            exec_steals: registry.counter(
                telemetry_names::EXEC_STEALS,
                "Tasks a worker took from another worker's block.",
            ),
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

    /// Number of distinct results currently cached.
    pub fn cached_results(&self) -> usize {
        self.cache.len()
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
    /// workload label must name one of the plan's workloads. Dedup, caching
    /// and the determinism contract are identical to
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
    /// What the batches share is set up once: the plan's canonical
    /// topology texts, label index and layer lists, and up to `jobs`
    /// worker threads. Workers start with the first batch that needs
    /// them, park on a condition variable between batches and exit when
    /// `body` returns, so a worker's thread-local
    /// [`crate::arena::SimArena`] stays warm for the whole session: the
    /// hundreds of 8-point batches of an exploration cost their
    /// simulations, not thread start-up. Each batch gets a fresh
    /// [`Executor`] over its (job, layer) tasks, and the calling thread is
    /// its in-order emitter.
    ///
    /// A panicking simulation fails its batch with [`SweepError::Sim`]:
    /// the first panic wins, every unfilled slot is poisoned and the
    /// emitter never hangs.
    pub(crate) fn session<R>(
        &self,
        plan: &SweepPlan,
        jobs: usize,
        body: impl FnOnce(&mut RunBatch<'_>) -> Result<R, SweepError>,
    ) -> Result<R, SweepError> {
        let session = Session::new(self, plan, jobs);
        let pool = WorkerPool::default();
        std::thread::scope(|scope| {
            // Dropped when `body` returns or unwinds: parked workers must
            // wake up and exit, or the scope would never join.
            let _stop = StopOnDrop(&pool);
            let mut spawned = 0;
            body(&mut |points, sink| {
                let (batch, prepared) = Batch::prepare(&session, points)?;
                self.cache_hits.add(batch.cache_hits);
                sink.begin(plan, prepared.len())?;
                let batch = Arc::new(batch);
                let simulating = !batch.tasks.is_empty();
                if simulating {
                    pool.start(&batch);
                    while spawned < batch.exec.workers() {
                        let (pool, worker) = (&pool, spawned);
                        scope.spawn(move || pool.worker_loop(worker));
                        spawned += 1;
                    }
                }
                let emitted = batch.emit(prepared, sink);
                if simulating {
                    // After an emit error the executor is aborted: the
                    // workers finish the task in hand and report in.
                    pool.wait_idle();
                }
                let results = emitted?;
                sink.end()?;
                Ok(batch.outcome(results))
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
    /// Canonical topology text per workload, for content keys.
    csvs: Vec<String>,
    workload_index: HashMap<&'a str, usize>,
    layer_lists: Vec<Vec<&'a Layer>>,
    faults: FaultPlan,
    network_runs: Arc<Counter>,
}

impl<'a> Session<'a> {
    fn new(engine: &'a SweepEngine, plan: &'a SweepPlan, jobs: usize) -> Session<'a> {
        Session {
            engine,
            plan,
            jobs: jobs.max(1),
            csvs: plan
                .workloads
                .iter()
                .map(|w| topology_to_csv(&w.topology))
                .collect(),
            workload_index: plan.workload_index(),
            layer_lists: plan
                .workloads
                .iter()
                .map(|w| w.topology.iter().collect())
                .collect(),
            faults: engine.faults.lock().unwrap().clone(),
            network_runs: scalesim_telemetry::global().counter(
                crate::simulator::telemetry_names::NETWORK_RUNS,
                "Topologies simulated end to end.",
            ),
        }
    }
}

/// One batch of points in flight: its distinct jobs, their (job, layer)
/// tasks, the executor scheduling those and the slots the emitter reads.
/// Shared between the session's workers and the emitting thread.
struct Batch<'a> {
    session: &'a Session<'a>,
    distinct: Vec<DistinctJob>,
    /// The jobs the cache could not answer, as indices into `distinct`.
    pending: Vec<usize>,
    /// (index into `pending`, layer).
    tasks: Vec<(usize, usize)>,
    /// One per pending job.
    states: Vec<JobState>,
    /// One per distinct job.
    slots: Slots,
    cache_hits: u64,
    sims_done: AtomicUsize,
    exec: Executor,
}

impl<'a> Batch<'a> {
    /// Deduplicates `points` into distinct jobs by content key, probes the
    /// cross-plan cache and lays out one task per (pending job, layer).
    fn prepare(
        session: &'a Session<'a>,
        points: Vec<PointSpec>,
    ) -> Result<(Batch<'a>, Vec<PreparedPoint>), SweepError> {
        let mut distinct_of_key: HashMap<u128, usize> = HashMap::new();
        let mut distinct: Vec<DistinctJob> = Vec::new();
        let mut prepared: Vec<PreparedPoint> = Vec::with_capacity(points.len());
        for spec in points {
            let workload = *session
                .workload_index
                .get(spec.workload.as_str())
                .ok_or_else(|| {
                    SweepError::plan(format!(
                        "point references unknown workload `{}`",
                        spec.workload
                    ))
                })?;
            let config = spec.config(&session.plan.base);
            let auto = spec.dataflow == DataflowChoice::Auto;
            let text = canonical_job_text(
                &config,
                &spec.workload,
                spec.grid,
                &session.csvs[workload],
                auto,
            );
            let key = ContentKey::from_content(text.as_bytes()).0;
            let slot = *distinct_of_key.entry(key).or_insert_with(|| {
                distinct.push(DistinctJob {
                    key,
                    config,
                    grid: spec.grid,
                    auto,
                    workload,
                });
                distinct.len() - 1
            });
            prepared.push(PreparedPoint {
                spec,
                distinct: slot,
            });
        }

        let slots = Slots::new(distinct.len());
        let mut pending: Vec<usize> = Vec::new();
        for (i, job) in distinct.iter().enumerate() {
            match session.engine.cache.get(job.key) {
                Some(report) => slots.fill(i, report),
                None => pending.push(i),
            }
        }

        // One task per (pending job, layer): layer costs vary by orders
        // of magnitude with fold count, so layer-granularity tasks plus
        // stealing keep the pool balanced where whole-point
        // scheduling lets one unlucky worker set the tail latency.
        let mut tasks: Vec<(usize, usize)> = Vec::new();
        let mut states: Vec<JobState> = Vec::with_capacity(pending.len());
        for (p, &job_index) in pending.iter().enumerate() {
            let layers = session.layer_lists[distinct[job_index].workload].len();
            // An empty topology still gets one task, so its slot is
            // filled by the same assembly path as everything else.
            let job_tasks = layers.max(1);
            tasks.extend((0..job_tasks).map(|layer| (p, layer)));
            states.push(JobState {
                layers: Mutex::new(vec![None; layers]),
                remaining: AtomicUsize::new(job_tasks),
                started: Mutex::new(None),
                latency_micros: AtomicU64::new(0),
            });
        }
        let batch = Batch {
            session,
            cache_hits: (prepared.len() - pending.len()) as u64,
            exec: Executor::new(tasks.len(), session.jobs),
            distinct,
            pending,
            tasks,
            states,
            slots,
            sims_done: AtomicUsize::new(0),
        };
        Ok((batch, prepared))
    }

    /// Simulates task `t`: one layer of one pending job. The task that
    /// retires a job's last layer assembles the report, caches it and
    /// fills the job's slot.
    fn run_task(&self, t: usize) {
        let session = self.session;
        let (p, layer_index) = self.tasks[t];
        let job_index = self.pending[p];
        let job = &self.distinct[job_index];
        let workload = &session.plan.workloads[job.workload];
        let state = &self.states[p];
        state
            .started
            .lock()
            .unwrap()
            .get_or_insert_with(Instant::now);
        session.faults.apply(workload.topology.name());
        if let Some(layer) = session.layer_lists[job.workload].get(layer_index) {
            let mut sim = Simulator::new(job.config).with_grid(job.grid);
            if job.auto {
                sim = sim.with_auto_dataflow();
            }
            let report = sim.run_layer(layer);
            state.layers.lock().unwrap()[layer_index] = Some(report);
        }
        if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task of the job: assemble the layer reports in layer
            // order — exactly what `run_topology` produces, so the result
            // is byte-identical to a serial run no matter which workers
            // simulated which layers.
            let layers = std::mem::take(&mut *state.layers.lock().unwrap())
                .into_iter()
                .map(|r| r.expect("every layer task stored its report"))
                .collect();
            session.network_runs.inc();
            let report = Arc::new(NetworkReport::new(workload.topology.name(), layers));
            let elapsed = state
                .started
                .lock()
                .unwrap()
                .expect("assembly follows the first task")
                .elapsed();
            state
                .latency_micros
                .store(elapsed.as_micros() as u64, Ordering::Relaxed);
            let engine = session.engine;
            engine.point_seconds.observe_duration(elapsed);
            engine.simulations.inc();
            self.sims_done.fetch_add(1, Ordering::Relaxed);
            engine.cache.insert(job.key, Arc::clone(&report));
            self.slots.fill(job_index, report);
        }
    }

    /// Worker `worker`'s share of the batch. A panic must fail the sweep,
    /// not hang it: it poisons every unfilled slot, so the emitter wakes
    /// with the typed error.
    fn run_worker(&self, worker: usize) {
        let label = |t: usize| {
            let (p, _) = self.tasks[t];
            let workload = self.distinct[self.pending[p]].workload;
            self.session.plan.workloads[workload]
                .topology
                .name()
                .to_owned()
        };
        if let Some(err) = self.exec.run_worker(worker, |t| self.run_task(t), label) {
            self.slots.poison(&err);
        }
    }

    /// The emitter, run by the session's calling thread: waits for each
    /// point's slot in the order given and streams it to `sink`. Aborts
    /// the executor on a poisoned slot or a sink error.
    fn emit(
        &self,
        prepared: Vec<PreparedPoint>,
        sink: &mut dyn SweepSink,
    ) -> Result<Vec<SweepResult>, SweepError> {
        let engine = self.session.engine;
        let mut ticker = engine.progress.then(|| {
            ProgressTicker::new(
                &format!("sweep {}", self.session.plan.name),
                prepared.len(),
                self.pending.len(),
                self.cache_hits,
            )
        });
        let mut results: Vec<SweepResult> = Vec::with_capacity(prepared.len());
        for point in prepared {
            let state = match ticker.as_mut() {
                // Bounded waits so the ticker keeps printing worker
                // progress while a slow head-of-line point runs.
                Some(ticker) => loop {
                    match self
                        .slots
                        .wait_for(point.distinct, ProgressTicker::INTERVAL)
                    {
                        Some(state) => break state,
                        None => ticker.heartbeat(self.sims_done.load(Ordering::Relaxed)),
                    }
                },
                None => self.slots.wait(point.distinct),
            };
            let report = match state {
                Ok(report) => report,
                Err(err) => {
                    self.exec.abort();
                    return Err(SweepError::Sim(err));
                }
            };
            if let Err(e) = sink.point(&point.spec, &report) {
                self.exec.abort();
                return Err(SweepError::Io(e));
            }
            engine.points_total.inc();
            if let Some(ticker) = ticker.as_mut() {
                ticker.tick(self.sims_done.load(Ordering::Relaxed));
            }
            results.push(SweepResult {
                spec: point.spec,
                report,
            });
        }
        Ok(results)
    }

    /// The batch's outcome, once its workers have reported in.
    fn outcome(&self, results: Vec<SweepResult>) -> SweepOutcome {
        let engine = self.session.engine;
        let exec = if self.tasks.is_empty() {
            ExecSummary::default()
        } else {
            self.exec.summary()
        };
        engine.exec_tasks.add(exec.tasks);
        engine.exec_steals.add(exec.steals);
        SweepOutcome {
            plan_name: self.session.plan.name.clone(),
            results,
            simulations: self.pending.len() as u64,
            cache_hits: self.cache_hits,
            point_latencies_micros: self
                .states
                .iter()
                .map(|s| s.latency_micros.load(Ordering::Relaxed))
                .collect(),
            exec,
        }
    }
}

/// A session's worker threads and the batch they are working on. Workers
/// park on `wake` between batches; the session's thread parks on `idle`
/// until the workers of the batch it handed over have all reported in.
#[derive(Default)]
struct WorkerPool<'a> {
    state: Mutex<PoolState<'a>>,
    wake: Condvar,
    idle: Condvar,
}

#[derive(Default)]
struct PoolState<'a> {
    batch: Option<Arc<Batch<'a>>>,
    /// Bumped with every batch handed over, so a worker can tell a new
    /// batch from the one it has just finished.
    generation: u64,
    /// Workers of the current batch that have not reported in yet.
    running: usize,
    stop: bool,
}

impl<'a> WorkerPool<'a> {
    /// Hands `batch` to the workers `0..batch.exec.workers()`.
    fn start(&self, batch: &Arc<Batch<'a>>) {
        let mut state = self.state.lock().unwrap();
        state.batch = Some(Arc::clone(batch));
        state.generation += 1;
        state.running = batch.exec.workers();
        self.wake.notify_all();
    }

    /// Blocks until every worker of the current batch has returned from
    /// its schedule loop, then lets go of the batch.
    fn wait_idle(&self) {
        let mut state = self.state.lock().unwrap();
        while state.running > 0 {
            state = self.idle.wait(state).unwrap();
        }
        state.batch = None;
    }

    /// Worker `worker`'s thread: takes its share of every batch that has
    /// one for it, until the session ends.
    fn worker_loop(&self, worker: usize) {
        let _span = scalesim_telemetry::trace::span_with("sweep.worker", || {
            vec![("worker", worker.to_string())]
        });
        let mut seen = 0;
        loop {
            let batch = {
                let mut state = self.state.lock().unwrap();
                loop {
                    if state.stop {
                        return;
                    }
                    if state.generation != seen {
                        seen = state.generation;
                        match &state.batch {
                            Some(batch) if worker < batch.exec.workers() => {
                                break Arc::clone(batch)
                            }
                            _ => {}
                        }
                    }
                    state = self.wake.wait(state).unwrap();
                }
            };
            batch.run_worker(worker);
            drop(batch);
            let mut state = self.state.lock().unwrap();
            state.running -= 1;
            if state.running == 0 {
                self.idle.notify_all();
            }
        }
    }
}

/// Ends a session's workers when dropped: aborts the batch in flight, if
/// the session is unwinding out of one, and wakes every parked worker.
struct StopOnDrop<'p, 'a>(&'p WorkerPool<'a>);

impl Drop for StopOnDrop<'_, '_> {
    fn drop(&mut self) {
        // A poisoned lock means a worker panicked outside any task, which
        // `worker_loop` has no code to do; stop the rest regardless.
        let mut state = match self.0.state.lock() {
            Ok(state) => state,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some(batch) = &state.batch {
            batch.exec.abort();
        }
        state.stop = true;
        self.0.wake.notify_all();
    }
}

/// One point of a partition sweep: the configuration and its full report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The partition grid.
    pub grid: PartitionGrid,
    /// The per-partition array.
    pub array: ArrayShape,
    /// The simulated layer report.
    pub report: LayerReport,
}

impl SweepPoint {
    /// Number of partitions at this point.
    pub fn partitions(&self) -> u64 {
        self.grid.count()
    }
}

/// Simulates `layer` at every power-of-two partition count of `mac_budget`
/// (down to `min_dim × min_dim` arrays), inheriting SRAM sizes, dataflow
/// and bandwidth settings from `base` (the array field is replaced per
/// point; the SRAM budget divides across partitions as usual).
///
/// Points are returned in ascending partition count, starting monolithic.
/// Evaluation runs through the parallel [`SweepEngine`]; each report is
/// byte-identical to a direct [`Simulator::run_layer`] of the same point.
///
/// # Panics
///
/// Panics if `mac_budget`/`min_dim` are not powers of two or the budget
/// cannot fit one `min_dim × min_dim` array.
pub fn run_partition_sweep(
    layer: &Layer,
    base: &SimConfig,
    mac_budget: u64,
    min_dim: u64,
) -> Vec<SweepPoint> {
    assert!(
        mac_budget.is_power_of_two() && min_dim.is_power_of_two(),
        "budget and min_dim must be powers of two"
    );
    assert!(
        mac_budget >= min_dim * min_dim,
        "budget {mac_budget} cannot fit a {min_dim}x{min_dim} array"
    );
    let plan = SweepPlan {
        name: format!("partition_sweep:{}", layer.name()),
        base: *base,
        workloads: vec![SweepWorkload {
            label: layer.name().to_owned(),
            topology: Topology::from_layers(layer.name(), vec![layer.clone()]),
        }],
        budgets: vec![mac_budget],
        min_dim,
        grids: GridAxis::PowersOfTwo,
        aspects: AspectAxis::Squareish,
        dataflows: vec![DataflowChoice::Fixed(base.dataflow)],
    };
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let outcome = SweepEngine::new(64)
        .run(&plan, jobs)
        .expect("partition sweep plan is valid by construction");
    outcome
        .results
        .into_iter()
        .map(|r| SweepPoint {
            grid: r.spec.grid,
            array: r.spec.array,
            report: r.report.layers()[0].clone(),
        })
        .collect()
}

/// The paper's sweet spot over raw series: both curves are normalized to
/// their maxima; returns the first index where the rising bandwidth curve
/// meets or crosses the falling runtime curve. `None` only for empty
/// input.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sweet_spot_index(cycles: &[u64], bandwidth: &[f64]) -> Option<usize> {
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

/// The paper's sweet spot: "the intersection of runtime and bandwidth
/// curves" (Sec. IV-A). Both series are normalized to their sweep maxima;
/// the sweet spot is the first point where the rising bandwidth curve
/// meets or crosses the falling runtime curve. Returns `None` only for an
/// empty sweep.
pub fn sweet_spot(points: &[SweepPoint]) -> Option<&SweepPoint> {
    let cycles: Vec<u64> = points.iter().map(|p| p.report.total_cycles).collect();
    let bw: Vec<f64> = points
        .iter()
        .map(|p| p.report.required_bandwidth())
        .collect();
    sweet_spot_index(&cycles, &bw).map(|i| &points[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::networks;

    #[test]
    fn squareish_splits() {
        assert_eq!(squareish(1), (1, 1));
        assert_eq!(squareish(2), (2, 1));
        assert_eq!(squareish(4), (2, 2));
        assert_eq!(squareish(8), (4, 2));
        assert_eq!(squareish(1 << 14), (128, 128));
        assert_eq!(squareish(1 << 16), (256, 256));
    }

    #[test]
    #[should_panic(expected = "power")]
    fn non_power_of_two_panics() {
        let _ = squareish(12);
    }

    #[test]
    fn sweep_covers_all_partition_counts() {
        let layer = networks::language_model("TF1").unwrap();
        let base = SimConfig::builder().sram_kb(64, 64, 32).build();
        let points = run_partition_sweep(&layer, &base, 1 << 10, 8);
        // 2^10 budget, 8x8 floor: P = 1..16 -> 5 points.
        assert_eq!(points.len(), 5);
        assert!(points
            .iter()
            .all(|p| p.grid.count() * p.array.macs() == 1 << 10));
        // The Fig. 11 shape: end-to-end, runtime falls and bandwidth rises.
        // (The paper calls the runtime trend "almost monotonic" — fixed
        // square-ish grids can mis-split a skewed layer at one point, so
        // only the endpoints are asserted strictly.)
        assert!(points.last().unwrap().report.total_cycles < points[0].report.total_cycles);
        assert!(
            points.last().unwrap().report.required_bandwidth()
                > points[0].report.required_bandwidth()
        );
    }

    #[test]
    fn partition_sweep_matches_single_shot_runs() {
        // The parallel engine path must be indistinguishable from a direct
        // serial Simulator loop — same reports, byte for byte.
        let layer = networks::language_model("TF1").unwrap();
        let base = SimConfig::builder().sram_kb(64, 64, 32).build();
        let points = run_partition_sweep(&layer, &base, 1 << 10, 8);
        for p in &points {
            let config = SimConfig {
                array: p.array,
                ..base
            };
            let fresh = Simulator::new(config).with_grid(p.grid).run_layer(&layer);
            assert_eq!(p.report, fresh);
            let via_network = NetworkReport::new(layer.name(), vec![p.report.clone()]);
            let fresh_network = NetworkReport::new(layer.name(), vec![fresh]);
            assert_eq!(via_network.to_csv(), fresh_network.to_csv());
        }
    }

    #[test]
    fn sweet_spot_is_an_interior_crossing() {
        let layer = networks::language_model("TF1").unwrap();
        let base = SimConfig::builder().sram_kb(64, 64, 32).build();
        let points = run_partition_sweep(&layer, &base, 1 << 12, 8);
        let spot = sweet_spot(&points).expect("nonempty sweep");
        // The crossing cannot be the monolithic point (bandwidth starts
        // below runtime on this workload) and must exist.
        assert!(spot.partitions() >= 1);
        assert!(points.iter().any(|p| p.grid == spot.grid));
    }

    #[test]
    fn sweet_spot_of_empty_sweep_is_none() {
        assert!(sweet_spot(&[]).is_none());
        assert!(sweet_spot_index(&[], &[]).is_none());
    }

    fn small_plan() -> SweepPlan {
        let mut plan = SweepPlan::new("test").workload("TF1").unwrap();
        plan.base = SimConfig::builder().sram_kb(64, 64, 32).build();
        plan.budgets = vec![1 << 10];
        plan
    }

    #[test]
    fn expansion_orders_the_cartesian_product() {
        let mut plan = small_plan();
        plan.dataflows = vec![
            DataflowChoice::Fixed(Dataflow::OutputStationary),
            DataflowChoice::Auto,
        ];
        let points = plan.expand().unwrap();
        // 5 partition counts x 1 aspect x 2 dataflows.
        assert_eq!(points.len(), 10);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        // Dataflow is the innermost axis.
        assert_eq!(points[0].dataflow.to_string(), "os");
        assert_eq!(points[1].dataflow.to_string(), "auto");
        assert_eq!(points[0].grid, points[1].grid);
    }

    #[test]
    fn expansion_rejects_bad_plans() {
        assert!(SweepPlan::new("empty").expand().is_err());
        let mut plan = small_plan();
        plan.budgets = vec![1000]; // not a power of two
        assert!(plan.expand().is_err());
        let mut plan = small_plan();
        plan.grids = GridAxis::Explicit(vec![PartitionGrid::new(3, 1)]);
        assert!(plan.expand().is_err()); // 1024 / 3 is not integral
        let mut plan = small_plan();
        plan.grids = GridAxis::Explicit(vec![PartitionGrid::new(32, 1)]);
        assert!(plan.expand().is_err()); // 32 MACs per array < 8x8 floor
    }

    #[test]
    fn engine_deduplicates_and_counts_hits_exactly() {
        let plan = small_plan();
        let engine = SweepEngine::with_registry(64, &Registry::new());
        let first = engine.run(&plan, 4).unwrap();
        assert_eq!(first.results.len(), 5);
        assert_eq!(first.simulations, 5);
        assert_eq!(first.cache_hits, 0);

        // The same plan again: every point is an LRU hit.
        let second = engine.run(&plan, 4).unwrap();
        assert_eq!(second.simulations, 0);
        assert_eq!(second.cache_hits, 5);
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!(a.report, b.report);
        }

        // A plan with in-plan duplicates: one budget listed twice.
        let mut doubled = small_plan();
        doubled.budgets = vec![1 << 10, 1 << 10];
        let fresh_engine = SweepEngine::with_registry(64, &Registry::new());
        let outcome = fresh_engine.run(&doubled, 4).unwrap();
        assert_eq!(outcome.results.len(), 10);
        assert_eq!(outcome.simulations, 5);
        assert_eq!(outcome.cache_hits, 5);
    }

    #[test]
    fn parallel_output_is_byte_identical_to_serial() {
        let mut plan = small_plan();
        plan.budgets = vec![1 << 10, 1 << 12];
        let serial_engine = SweepEngine::with_registry(64, &Registry::new());
        let mut serial = CsvSink::new(Vec::new());
        serial_engine.run_streaming(&plan, 1, &mut serial).unwrap();
        let parallel_engine = SweepEngine::with_registry(64, &Registry::new());
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
        let engine = SweepEngine::with_registry(64, &registry);
        let plan = small_plan();
        engine.run(&plan, 2).unwrap();
        engine.run(&plan, 2).unwrap();
        assert_eq!(
            registry.counter_value(telemetry_names::POINTS, &[]),
            Some(10)
        );
        assert_eq!(
            registry.counter_value(telemetry_names::SIMULATIONS, &[]),
            Some(5)
        );
        assert_eq!(
            registry.counter_value(telemetry_names::CACHE_HITS, &[]),
            Some(5)
        );
        let text = registry.render();
        assert!(text.contains("scalesim_sweep_point_seconds_count 5"));
        assert!(text.contains("scalesim_sweep_cache_resident_entries 5"));
    }

    #[test]
    fn plan_file_round_trips_the_fig9_study() {
        let text = "\
            # Fig. 9 search space, TF0\n\
            name = fig9_tf0\n\
            workload = TF0\n\
            budget = 2^10, 2^12\n\
            min_dim = 8\n\
            grid = all\n\
            aspect = all\n\
            dataflow = os\n\
            config.IfmapSramSz = 64\n\
            config.FilterSramSz = 64\n\
            config.OfmapSramSz = 32\n";
        let plan = SweepPlan::parse(text).unwrap();
        assert_eq!(plan.name, "fig9_tf0");
        assert_eq!(plan.workloads.len(), 1);
        assert_eq!(plan.workloads[0].label, "TF0");
        assert_eq!(plan.budgets, vec![1 << 10, 1 << 12]);
        assert_eq!(plan.aspects, AspectAxis::All);
        assert_eq!(
            plan.dataflows,
            vec![DataflowChoice::Fixed(Dataflow::OutputStationary)]
        );
        let points = plan.expand().unwrap();
        // Budget 2^b with an 8x8 floor has P = 1..2^(b-6) partition counts,
        // and a per-partition budget of 2^k admits k-5 aspect ratios:
        // 2^10 -> 5+4+3+2+1 = 15 points, 2^12 -> 7+..+1 = 28 points.
        assert_eq!(points.len(), 43);
    }

    #[test]
    fn plan_file_rejects_unknown_keys_and_workloads() {
        assert!(SweepPlan::parse("frobnicate = 1").is_err());
        assert!(SweepPlan::parse("workload = not_a_network").is_err());
        assert!(SweepPlan::parse("budget = banana").is_err());
        assert!(SweepPlan::parse("dataflow = rs").is_err());
        assert!(SweepPlan::parse("grid = 0x2").is_err());
        assert!(SweepPlan::parse("no_equals_sign").is_err());
        // A rejected override is reported at its own line of the plan.
        let err = SweepPlan::parse_named("workload = TF1\nconfig.Bogus = 1\n", "p.plan");
        assert_eq!(
            err.unwrap_err().to_string(),
            "p.plan:2: config.Bogus: unknown parameter `Bogus`"
        );
        let err = SweepPlan::parse("config.ArrayHeight = 0").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: config.ArrayHeight: parameter `ArrayHeight` must be nonzero"
        );
    }

    #[test]
    fn explicit_grids_and_bandwidth_parse() {
        let text = "workload = TF1\nbudget = 2^10\ngrid = 1x1, 2x2\nbandwidth = 32\n";
        let plan = SweepPlan::parse(text).unwrap();
        assert_eq!(plan.base.dram_bandwidth, Some(32.0));
        let points = plan.expand().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].partitions(), 1);
        assert_eq!(points[1].partitions(), 4);
        // Stall analysis runs at every point.
        let outcome = SweepEngine::with_registry(8, &Registry::new())
            .run(&plan, 2)
            .unwrap();
        assert!(outcome.results[0].report.layers()[0].stall.is_some());
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
            let outcome = SweepEngine::with_registry(8, &Registry::new())
                .run(&plan, 1)
                .unwrap();
            let bytes: Vec<u64> = outcome
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
        let outcome = SweepEngine::with_registry(64, &Registry::new())
            .run(&plan, 4)
            .unwrap();
        let summary = outcome.summarize();
        assert_eq!(summary.len(), 2);
        for group in &summary {
            assert_eq!(group.workload, "TF1");
            let spot = group.sweet_spot.expect("multi-point group");
            assert!(plan.budgets.contains(&group.budget));
            // The best point has the minimum effective cycles of its group.
            let min = outcome
                .results
                .iter()
                .filter(|r| r.spec.budget == group.budget)
                .map(|r| r.report.total_effective_cycles())
                .min()
                .unwrap();
            assert_eq!(group.best.report.total_effective_cycles(), min);
            assert_eq!(spot.spec.budget, group.budget);
        }
    }

    #[test]
    fn auto_dataflow_points_key_separately_from_fixed() {
        // `auto` and the dataflow it happens to select must not collide in
        // the cache: the canonical text carries an auto marker.
        let config = SimConfig::default();
        let fixed = canonical_job_text(&config, "w", PartitionGrid::new(1, 1), "csv", false);
        let auto = canonical_job_text(&config, "w", PartitionGrid::new(1, 1), "csv", true);
        assert_ne!(fixed, auto);
        assert!(auto.ends_with("auto_dataflow: true\n"));
        assert!(fixed.starts_with("config:\n"));
    }

    #[test]
    fn jsonl_sink_emits_one_valid_object_per_point() {
        let plan = small_plan();
        let mut sink = JsonLinesSink::new(Vec::new());
        SweepEngine::with_registry(8, &Registry::new())
            .run_streaming(&plan, 2, &mut sink)
            .unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            assert!(line.starts_with("{\"workload\":\"TF1\""));
            assert!(line.ends_with('}'));
        }
    }
}
