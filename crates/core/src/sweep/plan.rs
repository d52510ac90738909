//! The plan grammar and its expansion: [`SweepPlan`], the lazy
//! [`PointIter`] over its points, and the `--dry-run` space summary.

use std::collections::{HashMap, HashSet};
use std::fmt;

use scalesim_analytical::{aspect_ratio_shapes, PartitionGrid};
use scalesim_systolic::ArrayShape;
use scalesim_topology::{networks, Dataflow, Topology};

use super::SweepError;
use crate::config::SimConfig;

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
/// run it with [`SweepEngine::run`](super::SweepEngine::run).
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

    /// Sets one key of the plan grammar (the table under
    /// [`SweepPlan::parse`]): the plan file is a sequence of these, and
    /// the server's JSON plan maps its fields onto the same keys, so the
    /// two spellings cannot drift. List-valued keys append; a later
    /// scalar replaces an earlier one. `config.<Key>` and `bandwidth`
    /// (`config.DramBandwidth`) set the base through [`SimConfig::set`].
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
                    let grids: Vec<PartitionGrid> =
                        list().map(str::parse).collect::<Result<_, _>>()?;
                    if grids.is_empty() {
                        return Err("grid list is empty (want `all` or PRxPC grids)".to_owned());
                    }
                    GridAxis::Explicit(grids)
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
            _ => {
                let cfg_key = match key {
                    "bandwidth" => "DramBandwidth",
                    _ => key
                        .strip_prefix("config.")
                        .ok_or_else(|| format!("unknown plan key `{key}`"))?,
                };
                let mut base = self.base;
                base.set(cfg_key, value)
                    .and_then(|()| base.check_array())
                    .map_err(|e| format!("{key}: {e}"))?;
                self.base = base;
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
        let floor = self.min_dim.checked_mul(self.min_dim).ok_or_else(|| {
            SweepError::plan(format!("min_dim {} squared passes u64::MAX", self.min_dim))
        })?;
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
                    p = p.checked_mul(2).ok_or_else(|| {
                        SweepError::plan(format!(
                            "budget {budget} splits into more partition counts than a u64 holds"
                        ))
                    })?;
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
    /// The duplicate count is exact: it groups points by the identity the
    /// [`SweepEngine`](super::SweepEngine)'s dedup uses (workload, grid, array, dataflow
    /// choice), so `points - distinct_jobs` is the number of simulations a
    /// run saves.
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
                let grids: HashSet<PartitionGrid> = combos.iter().map(|&(g, _)| g).collect();
                BudgetBreakdown {
                    budget,
                    grids: grids.len(),
                    combos: combos.len(),
                }
            })
            .collect();
        let dataflows = iter.dataflows.len();
        let points = iter.len();
        let workload_index = self.workload_index();
        let seen: HashSet<_> = self
            .points()?
            .map(|spec| point_identity(workload_index[spec.workload.as_str()], &spec))
            .collect();
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

/// What makes two points of one plan the same simulation, for `spec`
/// whose workload sits at `workload` in [`SweepPlan::workloads`]: that
/// index, the grid, the array and the dataflow choice (the rest of the
/// config is the plan's base). [`SweepPlan::space_summary`] counts these
/// and a batch dedups by them.
pub(super) fn point_identity(
    workload: usize,
    spec: &PointSpec,
) -> (usize, PartitionGrid, ArrayShape, DataflowChoice) {
    (workload, spec.grid, spec.array, spec.dataflow)
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
        if matches!(&plan.grids, GridAxis::Explicit(grids) if grids.is_empty()) {
            return Err(SweepError::plan("plan has no grids"));
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

    /// Advances to the next point and returns where it sits in the plan,
    /// without building its [`PointSpec`]: the one traversal behind
    /// [`Iterator::next`], and what explore's stages 0–1 walk.
    pub(crate) fn step(&mut self) -> Option<PointAt> {
        if self.w >= self.plan.workloads.len() {
            return None;
        }
        let (grid, array) = self.combos[self.b][self.c];
        let at = PointAt {
            index: self.index,
            workload: self.w,
            budget: self.b,
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
        Some(at)
    }
}

/// Where a point sits in its plan: its plan-order index, its positions on
/// the workload and budget axes, and the grid, array and dataflow it
/// takes. What [`PointIter::step`] yields.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PointAt {
    pub(crate) index: usize,
    /// Position in [`SweepPlan::workloads`].
    pub(crate) workload: usize,
    /// Position in [`SweepPlan::budgets`].
    pub(crate) budget: usize,
    pub(crate) grid: PartitionGrid,
    pub(crate) array: ArrayShape,
    pub(crate) dataflow: DataflowChoice,
}

impl PointAt {
    /// The point's spec in `plan`, the plan it was stepped from.
    pub(crate) fn spec(&self, plan: &SweepPlan) -> PointSpec {
        PointSpec {
            index: self.index,
            workload: plan.workloads[self.workload].label.clone(),
            budget: plan.budgets[self.budget],
            grid: self.grid,
            array: self.array,
            dataflow: self.dataflow,
        }
    }
}

impl Iterator for PointIter<'_> {
    type Item = PointSpec;

    fn next(&mut self) -> Option<PointSpec> {
        let plan = self.plan;
        self.step().map(|at| at.spec(plan))
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
    /// Distinct simulation jobs after the engine's dedup (exact, not an
    /// estimate).
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

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::sweep::SweepEngine;
    use scalesim_telemetry::Registry;

    /// TF1, one layer, alone at every power-of-two partition count of
    /// 2^10 MACs over 64/64/32 KB SRAM: the Fig. 11 experiment's plan.
    pub(in crate::sweep) fn small_plan() -> SweepPlan {
        let mut plan = SweepPlan::new("test");
        plan.set("workload", "TF1").unwrap();
        plan.base = SimConfig::builder().sram_kb(64, 64, 32).build();
        plan.budgets = vec![1 << 10];
        plan
    }

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
    fn an_empty_grid_list_is_a_plan_error_at_its_line() {
        for grids in ["", ",", " , ,"] {
            let text = format!("workload = TF1\nbudget = 2^10\ngrid = {grids}\n");
            let err = SweepPlan::parse_named(&text, "g.plan").unwrap_err();
            assert_eq!(
                err.to_string(),
                "g.plan:3: grid list is empty (want `all` or PRxPC grids)",
                "grid = {grids}"
            );
        }
        // A plan built in code cannot expand with no grids either.
        let mut plan = small_plan();
        plan.grids = GridAxis::Explicit(Vec::new());
        match plan.points() {
            Err(SweepError::Plan(msg)) => assert_eq!(msg, "plan has no grids"),
            Err(other) => panic!("not a plan error: {other}"),
            Ok(_) => panic!("a plan with no grids expanded"),
        }
    }

    #[test]
    fn a_config_override_cannot_smuggle_a_second_line() {
        let mut plan = SweepPlan::new("p");
        let err = plan
            .set("config.IfmapSramSz", "64\nOfmapSramSz : 1")
            .unwrap_err();
        assert!(err.starts_with("config.IfmapSramSz: "), "{err}");
        assert!(plan.set("config.# x", "1").is_err());
        assert_eq!(plan.base, SimConfig::default());
        // `bandwidth` is `config.DramBandwidth`, read by the same check.
        plan.set("bandwidth", "12.5").unwrap();
        assert_eq!(plan.base.dram_bandwidth, Some(12.5));
        assert!(plan.set("bandwidth", "-1").is_err());
    }

    #[test]
    fn a_grid_whose_partition_count_overflows_is_a_plan_error_at_its_line() {
        // 2^63 + 1 rows times 2 columns wraps to 2 partitions, which used
        // to pass validation as a 1-point plan and panic in the simulator.
        let text = "workload = TF1\nbudget = 2^10\ngrid = 9223372036854775809x2\n";
        let err = SweepPlan::parse_named(text, "big.plan").unwrap_err();
        assert_eq!(
            err.to_string(),
            "big.plan:3: grid `9223372036854775809x2` has more partitions than a u64 counts"
        );
    }

    #[test]
    fn plan_axes_that_overflow_a_u64_are_plan_errors() {
        // `min_dim * min_dim` and the doubling partition count used to
        // overflow: a panic in debug, a division by zero in release.
        for (axes, want) in [
            (
                "budget = 2^10\nmin_dim = 4294967296\n",
                "min_dim 4294967296 squared passes u64::MAX",
            ),
            (
                "budget = 2^63\nmin_dim = 1\n",
                "budget 9223372036854775808 splits into more partition counts than a u64 holds",
            ),
        ] {
            let plan = SweepPlan::parse(&format!("workload = TF1\n{axes}")).unwrap();
            match plan.points() {
                Err(SweepError::Plan(msg)) => assert_eq!(msg, want),
                Err(other) => panic!("{axes}: not a plan error: {other}"),
                Ok(_) => panic!("{axes}: accepted"),
            }
        }
        // The largest budget whose partition counts all fit still expands.
        let plan = SweepPlan::parse("workload = TF1\nbudget = 2^63\nmin_dim = 2\n").unwrap();
        assert_eq!(plan.points().unwrap().len(), 62);
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
        let outcome = SweepEngine::with_registry(&Registry::new())
            .run(&plan, 2)
            .unwrap();
        assert!(outcome.results[0].report.layers()[0].stall.is_some());
    }

    #[test]
    fn the_space_summary_counts_a_repeated_grid_once() {
        // The copy of 1x1 is not adjacent to it, and under `aspect = all`
        // each grid spans several (grid, array) combinations.
        let text = "workload = TF1\nbudget = 2^10\ngrid = 1x1, 2x2, 1x1\naspect = all\n";
        let summary = SweepPlan::parse(text).unwrap().space_summary().unwrap();
        let budget = summary.per_budget[0];
        assert_eq!(budget.grids, 2);
        // 2^10 on one array admits 5 aspect ratios, on four arrays 3.
        assert_eq!(budget.combos, 5 + 3 + 5);
        assert_eq!(summary.points, 13);
        assert_eq!(summary.distinct_jobs, 8);
    }
}
