//! Analytical-guided design-space exploration: successive refinement from
//! the full cartesian candidate space down to a cycle-accurate Pareto
//! frontier.
//!
//! The paper's methodology (Sec. III–IV) is not "simulate everything": the
//! closed-form runtime model (Eqs. 1–4) bounds the design space first, and
//! cycle-accurate simulation is spent only where the analytical picture is
//! incomplete. [`ExploreEngine`] packages that workflow over a normal
//! [`SweepPlan`] in three stages:
//!
//! * **Stage 0 — analytical evaluation.** Every candidate point is scored
//!   with [`predict_cycles`], an exact reimplementation of the simulator's
//!   stall-free runtime (Eq. 3 summed over folds of the worst partition
//!   tile). Candidates are walked lazily in [`SweepPlan::points`] order as
//!   dense (workload, budget, grid, array, dataflow) ids, so million-point
//!   spaces never materialize: a candidate costs its prediction and one
//!   slot of a flat per-(workload, budget) minimum table.
//! * **Stage 1 — frontier pruning.** Per workload, the per-budget best
//!   predictions form a cost/runtime [`Frontier`]; only candidates within
//!   `keep_within` percent of the frontier at their budget (or cheaper)
//!   survive ([`Frontier::within_band`]) and get a [`PointSpec`].
//!   Survivors are ranked by predicted runtime.
//! * **Stage 2 — budgeted refinement.** Survivors are simulated in
//!   fixed-size batches: by [`ExploreEngine::run`] through the wrapped
//!   [`SweepEngine`] (over the process-wide layer cache), all on the
//!   workers of one sweep session; by
//!   [`ExploreEngine::run_with`] through whatever runs batches for the
//!   caller — the server's worker pool. After each batch the measured
//!   frontier and the correction of the workloads it measured are
//!   updated, and the next batch is chosen by [`acquisition_score`] — the
//!   candidates whose corrected predictions fall furthest below the
//!   measured frontier, i.e. the largest analytical-vs-measured gaps in
//!   the frontier neighborhood. A batch costs its simulations, a rescoring
//!   and re-sort of the survivors of the at most [`REFINE_BATCH`]
//!   workloads it touched, and a tournament of the workloads' best
//!   survivors for the next batch.
//!
//! Determinism: with [`ExploreBudget::Sims`] (or unlimited), the same plan
//! and budget produce byte-identical output at any `jobs` count — batch
//! composition depends only on deterministic simulation results and ties
//! break on plan order. [`ExploreBudget::WallClock`] necessarily trades
//! that away: it stops at a machine-dependent batch boundary.

use std::collections::{BinaryHeap, HashMap, HashSet};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scalesim_analytical::{
    acquisition_score, best_dataflow, exact_scaleup, ErrorStats, Frontier, PartitionGrid,
};
use scalesim_systolic::ArrayShape;
use scalesim_telemetry::{Counter, Registry};
use scalesim_topology::Topology;

use crate::report::NetworkReport;
use crate::sweep::{
    row_halves, DataflowChoice, NullSink, PointSpec, ProgressTicker, RowFormat, SweepEngine,
    SweepError, SweepPlan,
};

/// Metric names the explore engine records. Part of the public API:
/// servers and dashboards read these back by name.
pub mod telemetry_names {
    /// Counter: candidate points evaluated analytically (stage 0).
    pub const CANDIDATES: &str = "scalesim_explore_candidates_total";
    /// Counter: candidates discarded by frontier pruning (stage 1).
    pub const PRUNED: &str = "scalesim_explore_pruned_total";
    /// Counter: candidates simulated cycle-accurately (stage 2).
    pub const SIMULATED: &str = "scalesim_explore_simulated_total";
}

/// How many survivors stage 2 simulates per refinement step. A fixed
/// constant — never derived from the worker count — so batch composition,
/// and therefore the output, is identical at any `jobs` value.
pub const REFINE_BATCH: usize = 8;

/// Stage-2 simulation budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExploreBudget {
    /// Simulate every survivor (the refinement loop runs dry).
    Unlimited,
    /// At most this many survivor points go through cycle-accurate
    /// simulation (cache hits count: the budget bounds *points*, keeping
    /// the outcome independent of what earlier runs left in the caches).
    Sims(usize),
    /// Stop at the first batch boundary past this wall-clock duration.
    /// Best-effort: the measured set becomes machine-dependent, so the
    /// byte-identical-output contract does not apply.
    WallClock(Duration),
}

/// Explore parameters beyond the plan itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExploreOptions {
    /// Stage-1 slack band: survivors are within this percentage of the
    /// analytical frontier at their budget or cheaper.
    pub keep_within_pct: f64,
    /// Stage-2 simulation budget.
    pub budget: ExploreBudget,
    /// Threads that simulate stage-2 batches in [`ExploreEngine::run`],
    /// the calling thread included: `1` starts no thread.
    pub jobs: usize,
    /// Emit live progress lines on stderr: one per stage boundary plus
    /// one per refinement batch, with an ETA extrapolated from the
    /// stage-0 predicted-cycle totals. Off by default; when off the cost
    /// is one branch per batch.
    pub progress: bool,
}

impl Default for ExploreOptions {
    /// 10 % slack, unlimited simulation budget, single worker, no
    /// progress output.
    fn default() -> ExploreOptions {
        ExploreOptions {
            keep_within_pct: 10.0,
            budget: ExploreBudget::Unlimited,
            jobs: 1,
            progress: false,
        }
    }
}

impl ExploreOptions {
    /// Sets one explore knob from its text — the one grammar of the knobs
    /// whichever door (CLI flag, HTTP field) they come through:
    ///
    /// * `keep_within` — the stage-1 slack band, a finite nonnegative
    ///   percentage (`7.5`);
    /// * `budget` — a point count `N`, or a wall clock `<x>s` or `<x>m`
    ///   (`30s`, `1.5m`, `x` a decimal) of at least 1 ns that fits a
    ///   [`Duration`]. The wall clock is scaled in `f64` and converted by
    ///   [`Duration::try_from_secs_f64`], so no product wraps; zero,
    ///   negative and sub-nanosecond clocks are one error.
    ///
    /// # Errors
    ///
    /// An unknown key, or text outside its knob's grammar; the message
    /// describes the value, and each door prefixes its own name for the
    /// knob.
    pub fn set(&mut self, key: &str, text: &str) -> Result<(), String> {
        match key {
            "keep_within" => {
                self.keep_within_pct = text
                    .parse()
                    .ok()
                    .filter(|pct: &f64| pct.is_finite() && *pct >= 0.0)
                    .ok_or_else(|| format!("`{text}` is not a nonnegative percentage"))?;
            }
            "budget" => {
                let bad = || format!("`{text}` is not a point count or a wall clock (30s, 1.5m)");
                let (number, unit) = match (text.strip_suffix('s'), text.strip_suffix('m')) {
                    (Some(secs), _) => (secs, 1.0),
                    (_, Some(mins)) => (mins, 60.0),
                    _ => {
                        self.budget = ExploreBudget::Sims(text.parse().map_err(|_| bad())?);
                        return Ok(());
                    }
                };
                let secs = number
                    .parse::<f64>()
                    .ok()
                    .filter(|x| !x.is_nan())
                    .ok_or_else(bad)?
                    * unit;
                match Duration::try_from_secs_f64(secs) {
                    Ok(limit) if !limit.is_zero() => self.budget = ExploreBudget::WallClock(limit),
                    Err(_) if secs > 0.0 => {
                        return Err(format!("wall clock `{text}` is out of range"));
                    }
                    _ => return Err(format!("wall clock `{text}` is shorter than 1 ns")),
                }
            }
            _ => return Err(format!("unknown explore knob `{key}`")),
        }
        Ok(())
    }
}

/// The analytical lower bound the explore pipeline prunes with: the exact
/// stall-free cycles the simulator would report for `topology` on a
/// `grid` of `array`s — computed in closed form, no simulation.
///
/// Mirrors the simulator's partitioning convention exactly: the `M × N`
/// output space splits into `grid` tiles of at most
/// [`PartitionGrid::largest_tile`]; partitions run in parallel, so a layer
/// costs its largest tile, which is the first one. Under [`DataflowChoice::Auto`]
/// the per-layer dataflow is re-selected from the *unsplit* shape, exactly
/// as [`crate::Simulator`] does. Because fold cycles (Eq. 3) are monotone
/// in the spatial extents, the first tile dominates every edge tile, and
/// the sum over layers equals [`NetworkReport::total_cycles`] — the
/// stall-free component of the measured runtime. Memory stalls only add
/// cycles, so this never exceeds
/// [`NetworkReport::total_effective_cycles`]. A shape too large to count
/// saturates at `u64::MAX` rather than wrapping to a small number that
/// would rank it cheapest.
///
/// ```
/// use scalesim::explore::predict_cycles;
/// use scalesim::{DataflowChoice, Simulator, SimConfig};
/// use scalesim_analytical::PartitionGrid;
/// use scalesim_systolic::ArrayShape;
/// use scalesim_topology::{Layer, Topology};
///
/// let topo = Topology::from_layers("t", vec![Layer::gemm("l0", 100, 32, 60)]);
/// let config = SimConfig { array: ArrayShape::new(16, 16), ..SimConfig::default() };
/// let grid = PartitionGrid::new(2, 2);
/// let predicted = predict_cycles(
///     &topo, config.array, grid, DataflowChoice::Fixed(config.dataflow));
/// let report = Simulator::new(config).with_grid(grid).run_topology(&topo);
/// assert_eq!(predicted, report.total_cycles());
/// ```
pub fn predict_cycles(
    topology: &Topology,
    array: ArrayShape,
    grid: PartitionGrid,
    dataflow: DataflowChoice,
) -> u64 {
    topology
        .layers()
        .iter()
        .map(|layer| {
            let shape = layer.shape();
            if shape.m == 0 || shape.k == 0 || shape.n == 0 {
                return 0;
            }
            let df = match dataflow {
                DataflowChoice::Fixed(df) => df,
                DataflowChoice::Auto => best_dataflow(shape, array),
            };
            exact_scaleup(&grid.largest_tile(shape).project(df), array)
        })
        .fold(0, u64::saturating_add)
}

/// A candidate that survived stage-1 pruning, with its prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct SurvivorPoint {
    /// The design point (plan-order `index` preserved).
    pub spec: PointSpec,
    /// Stage-0 predicted stall-free cycles.
    pub predicted: u64,
}

/// A survivor that went through cycle-accurate simulation.
#[derive(Debug, Clone)]
pub struct MeasuredPoint {
    /// The design point.
    pub spec: PointSpec,
    /// Stage-0 predicted stall-free cycles.
    pub predicted: u64,
    /// The full simulation report.
    pub report: Arc<NetworkReport>,
}

impl MeasuredPoint {
    /// Measured effective (stall-inclusive) cycles.
    pub fn measured(&self) -> u64 {
        self.report.total_effective_cycles()
    }

    /// Measured/predicted ratio — ≥ 1.0 by the lower-bound contract.
    pub fn error_ratio(&self) -> f64 {
        error_ratio(self.measured(), self.predicted)
    }
}

fn error_ratio(measured: u64, predicted: u64) -> f64 {
    measured as f64 / predicted.max(1) as f64
}

/// The result of stages 0–1 alone: the analytical evaluation and pruning
/// of a plan's candidate space, before any simulation.
#[derive(Debug, Clone)]
pub struct PruneOutcome {
    /// Candidate points evaluated analytically.
    pub candidates: usize,
    /// Survivors of the slack band, ranked by predicted runtime (plan
    /// order on ties).
    pub survivors: Vec<SurvivorPoint>,
    /// Wall-clock of stage 0 (lazy analytical evaluation), seconds.
    pub analytical_seconds: f64,
    /// Wall-clock of stage 1 (frontier construction + band), seconds.
    pub prune_seconds: f64,
}

/// Wall-clock spent per explore stage, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageSeconds {
    /// Stage 0: lazy analytical evaluation of every candidate.
    pub analytical: f64,
    /// Stage 1: frontier construction and slack-band pruning.
    pub prune: f64,
    /// Stage 2: budgeted cycle-accurate refinement.
    pub simulate: f64,
}

/// The result of an explore run.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The plan's name.
    pub plan_name: String,
    /// Candidate points evaluated analytically (stage 0).
    pub candidates: usize,
    /// Candidates discarded by frontier pruning (stage 1).
    pub pruned: usize,
    /// Survivors of pruning (`candidates - pruned`).
    pub survivors: usize,
    /// Survivor points actually simulated (bounded by the budget).
    pub simulated: usize,
    /// Points the batch runner served without a fresh simulation: a
    /// batch's duplicates, and with a server's runner its cache hits.
    pub cache_hits: u64,
    /// Simulated points in plan order.
    pub measured: Vec<MeasuredPoint>,
    /// Distribution of measured/predicted ratios over `measured`.
    pub error_stats: ErrorStats,
    /// Wall-clock per stage.
    pub stage_seconds: StageSeconds,
}

impl ExploreOutcome {
    /// The measured Pareto frontiers, one `(workload, points)` entry per
    /// workload in order of first appearance: the simulated points where
    /// spending more MACs strictly reduced effective cycles.
    pub fn frontiers(&self) -> Vec<(&str, Vec<&MeasuredPoint>)> {
        let mut order: Vec<&str> = Vec::new();
        let mut groups: HashMap<&str, Vec<&MeasuredPoint>> = HashMap::new();
        for point in &self.measured {
            let entry = groups.entry(point.spec.workload.as_str()).or_default();
            if entry.is_empty() {
                order.push(point.spec.workload.as_str());
            }
            entry.push(point);
        }
        order
            .into_iter()
            .map(|workload| {
                let mut members = groups.remove(workload).expect("group recorded in order");
                members.sort_by_key(|p| (p.spec.budget, p.measured(), p.spec.index));
                let mut frontier: Vec<&MeasuredPoint> = Vec::new();
                for point in members {
                    match frontier.last() {
                        Some(last) if point.measured() >= last.measured() => {}
                        _ => frontier.push(point),
                    }
                }
                (workload, frontier)
            })
            .collect()
    }

    /// For each point of `measured`, in that order: whether it is on its
    /// workload's measured frontier. One pass over [`Self::frontiers`] for
    /// all points, so writers pay the grouping and sorting once.
    pub fn frontier_membership(&self) -> Vec<bool> {
        let on_frontier: HashSet<usize> = self
            .frontiers()
            .iter()
            .flat_map(|(_, points)| points.iter().map(|p| p.spec.index))
            .collect();
        self.measured
            .iter()
            .map(|p| on_frontier.contains(&p.spec.index))
            .collect()
    }

    /// Writes the measured points as CSV ([`EXPLORE_CSV_HEADER`] + one row
    /// per point, plan order).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_csv<W: io::Write>(&self, mut writer: W) -> io::Result<()> {
        writer.write_all(EXPLORE_CSV_HEADER.as_bytes())?;
        for (point, frontier) in self.measured.iter().zip(self.frontier_membership()) {
            let (spec, measured) = row_halves(&point.spec, &point.report, RowFormat::Csv);
            writeln!(
                writer,
                "{spec},{},{measured},{}",
                point.predicted, frontier as u8
            )?;
        }
        writer.flush()
    }

    /// Writes the measured points as JSON Lines: one object per point,
    /// fixed key order, plan order.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn write_jsonl<W: io::Write>(&self, mut writer: W) -> io::Result<()> {
        for (point, frontier) in self.measured.iter().zip(self.frontier_membership()) {
            let (spec, measured) = row_halves(&point.spec, &point.report, RowFormat::Json);
            writeln!(
                writer,
                "{{{spec},\"predicted_cycles\":{},{measured},\"on_frontier\":{frontier}}}",
                point.predicted
            )?;
        }
        writer.flush()
    }
}

/// The CSV columns emitted by [`ExploreOutcome::write_csv`], terminated by
/// a newline. The sweep columns plus the stage-0 prediction and a
/// frontier-membership flag.
pub const EXPLORE_CSV_HEADER: &str = "workload,budget,partitions,grid,array,dataflow,\
     predicted_cycles,cycles,effective_cycles,macs,overall_util,dram_bytes,\
     peak_bw_bytes_per_cycle,energy,on_frontier\n";

/// The successive-refinement executor. Wraps a [`SweepEngine`] (stage-2
/// simulation inherits its dedup and telemetry) and adds the explore
/// counters.
pub struct ExploreEngine {
    sweep: SweepEngine,
    candidates: Arc<Counter>,
    pruned: Arc<Counter>,
    simulated: Arc<Counter>,
}

impl Default for ExploreEngine {
    /// An engine with telemetry in the process-global registry.
    fn default() -> ExploreEngine {
        ExploreEngine::with_registry(scalesim_telemetry::global())
    }
}

impl ExploreEngine {
    /// [`ExploreEngine::default`]. The argument is ignored: it sized a
    /// point cache the wrapped sweep engine no longer has.
    pub fn new(_cache_capacity: usize) -> ExploreEngine {
        ExploreEngine::default()
    }

    /// An engine recording its metrics into `registry`.
    pub fn with_registry(registry: &Registry) -> ExploreEngine {
        ExploreEngine {
            sweep: SweepEngine::with_registry(registry),
            candidates: registry.counter(
                telemetry_names::CANDIDATES,
                "Explore candidates evaluated analytically.",
            ),
            pruned: registry.counter(
                telemetry_names::PRUNED,
                "Explore candidates discarded by frontier pruning.",
            ),
            simulated: registry.counter(
                telemetry_names::SIMULATED,
                "Explore candidates simulated cycle-accurately.",
            ),
        }
    }

    /// Installs a fault-injection plan on the wrapped sweep engine, so
    /// tests can panic or delay stage-2 simulations. See
    /// [`crate::exec::FaultPlan`]; an empty plan clears injection.
    pub fn inject_faults(&self, plan: crate::exec::FaultPlan) {
        self.sweep.inject_faults(plan);
    }

    /// Runs stages 0–1 only: analytically evaluates every candidate and
    /// prunes to the slack band around the per-workload frontier. This is
    /// the shared front half of [`ExploreEngine::run`], public so callers
    /// can inspect (or exhaustively simulate) the surviving region.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] for invalid plans.
    pub fn prune(
        &self,
        plan: &SweepPlan,
        keep_within_pct: f64,
    ) -> Result<PruneOutcome, SweepError> {
        // Stage 0: lazy analytical evaluation over dense ids. A label
        // stands for the last workload that carries it and a budget for
        // its value, so a repeated label or budget merges its minima. One
        // u64 per candidate is the only allocation proportional to the
        // space.
        let stage0_span = scalesim_telemetry::trace::span("explore.stage0");
        let started = Instant::now();
        let mut points = plan.points()?;
        let label_ids = plan.workload_index();
        let workload_ids: Vec<usize> = plan
            .workloads
            .iter()
            .map(|w| label_ids[w.label.as_str()])
            .collect();
        let mut budgets = plan.budgets.clone();
        budgets.sort_unstable();
        budgets.dedup();
        let budget_ids: Vec<usize> = plan
            .budgets
            .iter()
            .map(|b| budgets.binary_search(b).expect("every budget is listed"))
            .collect();
        // (workload id, budget id) -> minimum prediction, row-major.
        let mut best: Vec<Option<u64>> = vec![None; plan.workloads.len() * budgets.len()];
        let mut predictions: Vec<u64> = Vec::with_capacity(points.len());
        while let Some(at) = points.step() {
            let workload = workload_ids[at.workload];
            let predicted = predict_cycles(
                &plan.workloads[workload].topology,
                at.array,
                at.grid,
                at.dataflow,
            );
            predictions.push(predicted);
            let min = &mut best[workload * budgets.len() + budget_ids[at.budget]];
            *min = Some(min.map_or(predicted, |m| m.min(predicted)));
        }
        let candidates = predictions.len();
        self.candidates.add(candidates as u64);
        let analytical_seconds = started.elapsed().as_secs_f64();
        drop(stage0_span);

        // Stage 1: per-workload analytical frontiers; keep the slack band.
        // Only a survivor gets a `PointSpec`.
        let stage1_span = scalesim_telemetry::trace::span("explore.stage1");
        let started = Instant::now();
        let frontiers: Vec<Frontier> = best
            .chunks(budgets.len())
            .map(|row| {
                Frontier::build(
                    budgets
                        .iter()
                        .zip(row)
                        .filter_map(|(&budget, min)| min.map(|cycles| (budget, cycles))),
                )
            })
            .collect();
        let mut survivors: Vec<SurvivorPoint> = Vec::new();
        let mut points = plan.points()?;
        for &predicted in &predictions {
            let at = points.step().expect("the same plan yields the same points");
            let frontier = &frontiers[workload_ids[at.workload]];
            if frontier.within_band(plan.budgets[at.budget], predicted, keep_within_pct) {
                survivors.push(SurvivorPoint {
                    spec: at.spec(plan),
                    predicted,
                });
            }
        }
        self.pruned.add((candidates - survivors.len()) as u64);
        // Rank by predicted runtime, plan order on ties.
        survivors.sort_by_key(|s| (s.predicted, s.spec.index));
        let prune_seconds = started.elapsed().as_secs_f64();
        drop(stage1_span);

        Ok(PruneOutcome {
            candidates,
            survivors,
            analytical_seconds,
            prune_seconds,
        })
    }

    /// Runs the three-stage refinement over `plan`, stage 2 on the workers
    /// of one sweep session of the wrapped [`SweepEngine`].
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Plan`] for invalid plans.
    pub fn run(
        &self,
        plan: &SweepPlan,
        options: &ExploreOptions,
    ) -> Result<ExploreOutcome, SweepError> {
        // One session for all batches: the plan is prepared once and the
        // workers (and their arenas) live until the last batch is in.
        self.sweep.session(plan, options.jobs, |run_batch| {
            self.run_with(plan, options, |specs| {
                let outcome = run_batch(specs.to_vec(), &mut NullSink)?;
                let reports = outcome.results.into_iter().map(|r| r.report).collect();
                Ok((reports, outcome.cache_hits))
            })
        })
    }

    /// [`ExploreEngine::run`] with stage 2's simulations left to the
    /// caller: `run_batch` is handed each refinement batch (at most
    /// [`REFINE_BATCH`] points) and returns one report per point, in the
    /// order given, plus how many of them it served without a fresh
    /// simulation. Stages 0–1, the choice of each batch, the budgets and
    /// the outcome are this engine's; where and on which threads a point
    /// is simulated is the runner's — a server passes one that submits the
    /// points to its own worker pool and result cache. `options.jobs` is
    /// not read.
    ///
    /// # Errors
    ///
    /// [`SweepError::Plan`] (converted) for invalid plans, and whatever
    /// `run_batch` fails with; the first error ends the exploration.
    pub fn run_with<E: From<SweepError>>(
        &self,
        plan: &SweepPlan,
        options: &ExploreOptions,
        mut run_batch: impl FnMut(&[PointSpec]) -> Result<(Vec<Arc<NetworkReport>>, u64), E>,
    ) -> Result<ExploreOutcome, E> {
        let _run_span = scalesim_telemetry::trace::span("explore.run");
        let pruned_space = self.prune(plan, options.keep_within_pct)?;
        let candidates = pruned_space.candidates;
        let survivor_count = pruned_space.survivors.len();
        let pruned = candidates - survivor_count;
        if options.progress {
            eprintln!(
                "explore {}: stage 0 evaluated {candidates} candidates in {:.2}s",
                plan.name, pruned_space.analytical_seconds,
            );
            eprintln!(
                "explore {}: stage 1 kept {survivor_count}/{candidates} ({pruned} pruned, {:.1}%)",
                plan.name,
                100.0 * pruned as f64 / candidates.max(1) as f64,
            );
        }
        let mut stage_seconds = StageSeconds {
            analytical: pruned_space.analytical_seconds,
            prune: pruned_space.prune_seconds,
            simulate: 0.0,
        };

        // Stage 2: budgeted refinement, a batch at a time.
        let stage2_span = scalesim_telemetry::trace::span("explore.stage2");
        let started = Instant::now();
        let survivors = pruned_space.survivors;
        let sims_allowed = match options.budget {
            ExploreBudget::Sims(n) => n,
            ExploreBudget::Unlimited | ExploreBudget::WallClock(_) => usize::MAX,
        };
        // Progress bookkeeping: ETA extrapolates wall time per predicted
        // cycle over the predicted cycles still queued for measurement.
        let target = survivors.len().min(sims_allowed);
        let predicted_total: u128 = if options.progress {
            // Cap at the sims budget: the cheapest-predicted points go
            // first, so the first `target` entries approximate the set
            // that will actually be measured.
            survivors
                .iter()
                .take(target)
                .map(|s| u128::from(s.predicted))
                .sum()
        } else {
            0
        };
        let mut predicted_done: u128 = 0;
        let mut cache_hits = 0u64;
        let mut acquisition = Acquisition::new(plan, &survivors);
        // Each survivor is handed out at most once, so its spec moves into
        // the batch that measures it.
        let mut specs_left: Vec<Option<PointSpec>> =
            survivors.into_iter().map(|s| Some(s.spec)).collect();
        let mut measured: Vec<MeasuredPoint> = Vec::with_capacity(target);
        let print_progress = |measured: usize, cache_hits: u64, predicted_done: u128| {
            let elapsed = started.elapsed().as_secs_f64();
            let eta = if predicted_done > 0 {
                elapsed / predicted_done as f64
                    * predicted_total.saturating_sub(predicted_done) as f64
            } else {
                0.0
            };
            eprintln!(
                "explore {}: stage 2 measured {measured}/{target} points ({cache_hits} cache hits), ETA {eta:.0}s",
                plan.name,
            );
        };
        // (when, measured count) of the last progress line.
        let mut last_line = (started, 0);
        while acquisition.unmeasured() > 0 && measured.len() < sims_allowed {
            if let ExploreBudget::WallClock(limit) = options.budget {
                if started.elapsed() >= limit {
                    break;
                }
            }
            let take = REFINE_BATCH
                .min(acquisition.unmeasured())
                .min(sims_allowed - measured.len());
            let batch = acquisition.next_batch(take);
            let specs: Vec<PointSpec> = batch
                .iter()
                .map(|&s| specs_left[s].take().expect("a survivor is handed out once"))
                .collect();
            let (reports, hits) = run_batch(&specs)?;
            assert_eq!(reports.len(), specs.len(), "one report per point");
            cache_hits += hits;
            for ((&s, spec), report) in batch.iter().zip(specs).zip(reports) {
                let predicted = acquisition.candidates[s].predicted;
                predicted_done += u128::from(predicted);
                acquisition.record(s, report.total_effective_cycles());
                measured.push(MeasuredPoint {
                    spec,
                    predicted,
                    report,
                });
            }
            acquisition.rescore();
            if options.progress && last_line.0.elapsed() >= ProgressTicker::INTERVAL {
                print_progress(measured.len(), cache_hits, predicted_done);
                last_line = (Instant::now(), measured.len());
            }
        }
        if options.progress && last_line.1 != measured.len() {
            print_progress(measured.len(), cache_hits, predicted_done);
        }
        drop(stage2_span);
        measured.sort_by_key(|p| p.spec.index);
        let simulated = measured.len();
        self.simulated.add(simulated as u64);
        stage_seconds.simulate = started.elapsed().as_secs_f64();

        let error_stats =
            ErrorStats::from_ratios(measured.iter().map(|p| p.error_ratio()).collect());
        Ok(ExploreOutcome {
            plan_name: plan.name.clone(),
            candidates,
            pruned,
            survivors: survivor_count,
            simulated,
            cache_hits,
            measured,
            error_stats,
            stage_seconds,
        })
    }
}

/// Stage 2's choice of what to simulate next, kept incrementally.
///
/// A survivor's [`acquisition_score`] depends only on its own workload's
/// measurements: that workload's measured [`Frontier`] and its correction
/// (the median measured/predicted ratio). A batch measures at most
/// [`REFINE_BATCH`] workloads, so after it only those workloads' frontiers,
/// corrections and survivors' scores are recomputed; every other cached
/// score is still exact.
///
/// The next batch is the top of the unmeasured survivors by (score
/// descending under `total_cmp`, plan index ascending) — a strict total
/// order. Each workload keeps its unmeasured survivors sorted by it, and
/// only a workload the last batch touched is re-sorted; the batch is then
/// a tournament of the workloads' heads, which returns what a full sort of
/// every unmeasured survivor would.
struct Acquisition {
    /// Per survivor, in stage-1 rank order.
    candidates: Vec<Candidate>,
    /// Per survivor: its score against what has been measured so far.
    /// `+inf` while its workload has no measurement.
    scores: Vec<f64>,
    /// Per distinct workload label.
    workloads: Vec<WorkloadMeasurements>,
    /// Workloads measured since the last [`Acquisition::rescore`].
    touched: Vec<usize>,
    /// Survivors not yet handed out by [`Acquisition::next_batch`].
    unmeasured: usize,
}

struct Candidate {
    workload: usize,
    budget: u64,
    predicted: u64,
    plan_index: usize,
}

#[derive(Default)]
struct WorkloadMeasurements {
    /// This workload's survivors not yet handed out, in ascending
    /// [`Rank`]: the best is last.
    queue: Vec<usize>,
    /// Its measured `(budget, effective cycles)` points.
    points: Vec<(u64, u64)>,
    /// Their measured/predicted ratios.
    ratios: Vec<f64>,
}

/// A survivor's place in stage 2's order: the greater `Rank` goes first —
/// the higher score under `total_cmp`, then the lower plan index.
struct Rank {
    score: f64,
    plan_index: usize,
    survivor: usize,
}

impl Rank {
    fn of(scores: &[f64], candidates: &[Candidate], survivor: usize) -> Rank {
        Rank {
            score: scores[survivor],
            plan_index: candidates[survivor].plan_index,
            survivor,
        }
    }
}

impl Ord for Rank {
    fn cmp(&self, other: &Rank) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.plan_index.cmp(&self.plan_index))
    }
}

impl PartialOrd for Rank {
    fn partial_cmp(&self, other: &Rank) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Rank {
    fn eq(&self, other: &Rank) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Rank {}

impl Acquisition {
    fn new(plan: &SweepPlan, survivors: &[SurvivorPoint]) -> Acquisition {
        let ids = plan.workload_index();
        let mut workloads: Vec<WorkloadMeasurements> = Vec::new();
        workloads.resize_with(plan.workloads.len(), WorkloadMeasurements::default);
        let candidates: Vec<Candidate> = survivors
            .iter()
            .enumerate()
            .map(|(s, survivor)| {
                let workload = ids[survivor.spec.workload.as_str()];
                workloads[workload].queue.push(s);
                Candidate {
                    workload,
                    budget: survivor.spec.budget,
                    predicted: survivor.predicted,
                    plan_index: survivor.spec.index,
                }
            })
            .collect();
        let scores = vec![f64::INFINITY; candidates.len()];
        for workload in &mut workloads {
            workload
                .queue
                .sort_unstable_by_key(|&s| Rank::of(&scores, &candidates, s));
        }
        Acquisition {
            scores,
            unmeasured: candidates.len(),
            candidates,
            workloads,
            touched: Vec::new(),
        }
    }

    /// Survivors not yet handed out.
    fn unmeasured(&self) -> usize {
        self.unmeasured
    }

    /// Removes and returns the next `take` survivors to simulate, best
    /// first. `take` must be in `1..=self.unmeasured()`.
    fn next_batch(&mut self, take: usize) -> Vec<usize> {
        let batch: Vec<usize> = if self.unmeasured == self.candidates.len() {
            // Before any measurement the stage-1 ranking stands: the first
            // batch is read off the front.
            for s in 0..take {
                let queue = &mut self.workloads[self.candidates[s].workload].queue;
                queue.retain(|&queued| queued != s);
            }
            (0..take).collect()
        } else {
            let head = |s: usize| Rank::of(&self.scores, &self.candidates, s);
            let mut heads: BinaryHeap<Rank> = self
                .workloads
                .iter()
                .filter_map(|w| w.queue.last().map(|&s| head(s)))
                .collect();
            let mut batch = Vec::with_capacity(take);
            while batch.len() < take {
                let best = heads.pop().expect("take <= unmeasured").survivor;
                let queue = &mut self.workloads[self.candidates[best].workload].queue;
                queue.pop();
                if let Some(&next) = queue.last() {
                    heads.push(head(next));
                }
                batch.push(best);
            }
            batch
        };
        self.unmeasured -= take;
        batch
    }

    /// Records that `survivor` measured `cycles` effective cycles.
    fn record(&mut self, survivor: usize, cycles: u64) {
        let candidate = &self.candidates[survivor];
        let workload = &mut self.workloads[candidate.workload];
        workload.points.push((candidate.budget, cycles));
        workload
            .ratios
            .push(error_ratio(cycles, candidate.predicted));
        if !self.touched.contains(&candidate.workload) {
            self.touched.push(candidate.workload);
        }
    }

    /// Brings the scores up to date with everything recorded: rebuilds the
    /// frontier and correction of each workload measured since the last
    /// call, rescores its unmeasured survivors and re-sorts their queue.
    fn rescore(&mut self) {
        let (candidates, scores) = (&self.candidates, &mut self.scores);
        for workload in self.touched.drain(..) {
            let measurements = &mut self.workloads[workload];
            let frontier = Frontier::build(measurements.points.iter().copied());
            let correction = ErrorStats::from_ratios(measurements.ratios.clone()).p50;
            for &s in &measurements.queue {
                let candidate = &candidates[s];
                scores[s] =
                    acquisition_score(candidate.budget, candidate.predicted, correction, &frontier);
            }
            measurements
                .queue
                .sort_unstable_by_key(|&s| Rank::of(scores, candidates, s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::Simulator;
    use crate::sweep::{AspectAxis, SweepWorkload};
    use scalesim_topology::{Dataflow, Layer};

    fn synthetic_plan(bandwidth: Option<f64>) -> SweepPlan {
        let mut plan = SweepPlan::new("explore-test");
        plan.base.dram_bandwidth = bandwidth;
        for (i, (m, k, n)) in [(100u64, 32u64, 60u64), (48, 96, 24), (320, 16, 120)]
            .iter()
            .enumerate()
        {
            let label = format!("G{i}");
            plan.workloads.push(SweepWorkload {
                label: label.clone(),
                topology: Topology::from_layers(&label, vec![Layer::gemm("l0", *m, *k, *n)]),
            });
        }
        plan.budgets = vec![1 << 10, 1 << 12];
        plan.aspects = AspectAxis::All;
        plan.dataflows = vec![
            DataflowChoice::Fixed(Dataflow::OutputStationary),
            DataflowChoice::Auto,
        ];
        plan
    }

    #[test]
    fn prediction_matches_simulator_stall_free_cycles() {
        let plan = synthetic_plan(Some(16.0));
        for spec in plan.points().unwrap() {
            let w = plan
                .workloads
                .iter()
                .find(|w| w.label == spec.workload)
                .unwrap();
            let predicted = predict_cycles(&w.topology, spec.array, spec.grid, spec.dataflow);
            let config = spec.config(&plan.base);
            let mut sim = Simulator::new(config).with_grid(spec.grid);
            if spec.dataflow == DataflowChoice::Auto {
                sim = sim.with_auto_dataflow();
            }
            let report = sim.run_topology(&w.topology);
            assert_eq!(
                predicted,
                report.total_cycles(),
                "stall-free mismatch at {spec:?}"
            );
            assert!(
                predicted <= report.total_effective_cycles(),
                "lower bound violated at {spec:?}"
            );
        }
    }

    /// Compares explore's frontiers against frontiers rebuilt from an
    /// independent exhaustive sweep of `specs`.
    fn assert_frontiers_match(plan: &SweepPlan, outcome: &ExploreOutcome, specs: Vec<PointSpec>) {
        let sweep = SweepEngine::with_registry(&Registry::new());
        let all = sweep
            .run_points(plan, specs, 1, &mut crate::sweep::NullSink)
            .unwrap();
        let mut exhaustive: HashMap<&str, Vec<(u64, u64)>> = HashMap::new();
        for r in &all.results {
            exhaustive
                .entry(r.spec.workload.as_str())
                .or_default()
                .push((r.spec.budget, r.report.total_effective_cycles()));
        }
        for (workload, points) in exhaustive {
            let full = Frontier::build(points);
            let explored = outcome
                .frontiers()
                .into_iter()
                .find(|(w, _)| *w == workload)
                .map(|(_, pts)| Frontier::build(pts.iter().map(|p| (p.spec.budget, p.measured()))))
                .unwrap();
            assert_eq!(explored, full, "frontier diverged for {workload}");
        }
    }

    #[test]
    fn explore_recovers_exhaustive_frontier_of_surviving_region() {
        // Bandwidth on, so effective cycles > predicted and the band
        // genuinely matters.
        let plan = synthetic_plan(Some(8.0));
        let options = ExploreOptions {
            keep_within_pct: 10.0,
            budget: ExploreBudget::Unlimited,
            jobs: 2,
            progress: false,
        };
        let engine = ExploreEngine::with_registry(&Registry::new());
        let outcome = engine.run(&plan, &options).unwrap();
        assert_eq!(outcome.candidates, plan.expand().unwrap().len());
        assert_eq!(outcome.candidates, outcome.pruned + outcome.survivors);
        assert_eq!(outcome.simulated, outcome.survivors); // unlimited budget

        // The surviving region, recomputed independently.
        let survivors = ExploreEngine::with_registry(&Registry::new())
            .prune(&plan, options.keep_within_pct)
            .unwrap()
            .survivors;
        assert_eq!(survivors.len(), outcome.survivors);
        assert_frontiers_match(
            &plan,
            &outcome,
            survivors.into_iter().map(|s| s.spec).collect(),
        );
    }

    #[test]
    fn wide_band_explore_recovers_the_full_space_frontier() {
        // With an unbounded band nothing is pruned, so explore's frontier
        // must equal the frontier of the full exhaustive sweep — the same
        // answer through two different pipelines.
        let plan = synthetic_plan(Some(8.0));
        let options = ExploreOptions {
            keep_within_pct: 1e9,
            budget: ExploreBudget::Unlimited,
            jobs: 2,
            progress: false,
        };
        let engine = ExploreEngine::with_registry(&Registry::new());
        let outcome = engine.run(&plan, &options).unwrap();
        assert_eq!(outcome.pruned, 0);
        assert_frontiers_match(&plan, &outcome, plan.expand().unwrap());
    }

    #[test]
    fn sims_budget_is_respected_and_deterministic_across_jobs() {
        let plan = synthetic_plan(Some(8.0));
        let options = |jobs| ExploreOptions {
            keep_within_pct: 25.0,
            budget: ExploreBudget::Sims(10),
            jobs,
            progress: false,
        };
        let run = |jobs| {
            let engine = ExploreEngine::with_registry(&Registry::new());
            let outcome = engine.run(&plan, &options(jobs)).unwrap();
            let mut csv = Vec::new();
            outcome.write_csv(&mut csv).unwrap();
            (outcome.simulated, csv)
        };
        let (sims1, csv1) = run(1);
        let (sims4, csv4) = run(4);
        assert_eq!(sims1, 10);
        assert_eq!(sims1, sims4);
        assert_eq!(csv1, csv4, "explore output must not depend on jobs");
    }

    /// Stages 0–1 as first written, kept as the oracle for
    /// [`ExploreEngine::prune`]: one `PointSpec` per candidate, a
    /// label-keyed topology map, a `(label, budget)`-keyed map of minima,
    /// frontiers filtered out of that map per workload, and a second
    /// spec-building walk of the plan.
    fn prune_reference(plan: &SweepPlan, keep_within_pct: f64) -> Vec<SurvivorPoint> {
        let topologies: HashMap<&str, &Topology> = plan
            .workloads
            .iter()
            .map(|w| (w.label.as_str(), &w.topology))
            .collect();
        let mut predictions: Vec<u64> = Vec::new();
        let mut best: HashMap<(String, u64), u64> = HashMap::new();
        for spec in plan.points().unwrap() {
            let predicted = predict_cycles(
                topologies[spec.workload.as_str()],
                spec.array,
                spec.grid,
                spec.dataflow,
            );
            predictions.push(predicted);
            best.entry((spec.workload, spec.budget))
                .and_modify(|b| *b = (*b).min(predicted))
                .or_insert(predicted);
        }
        let mut frontiers: HashMap<&str, Frontier> = HashMap::new();
        for w in &plan.workloads {
            let points = best
                .iter()
                .filter(|((label, _), _)| label == &w.label)
                .map(|(&(_, budget), &cycles)| (budget, cycles));
            frontiers.insert(w.label.as_str(), Frontier::build(points));
        }
        let mut survivors: Vec<SurvivorPoint> = Vec::new();
        for (spec, &predicted) in plan.points().unwrap().zip(&predictions) {
            let frontier = &frontiers[spec.workload.as_str()];
            if frontier.within_band(spec.budget, predicted, keep_within_pct) {
                survivors.push(SurvivorPoint { spec, predicted });
            }
        }
        survivors.sort_by_key(|s| (s.predicted, s.spec.index));
        survivors
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// Stages 0–1 over dense ids keep the survivors the reference
        /// keeps, ranked the same — on random plans whose last workload may
        /// repeat the first one's label (with another GEMM: the label's
        /// last workload is the one predicted) and whose budget list may
        /// repeat a budget (the repeats' minima merge).
        #[test]
        fn prune_matches_the_reference(
            dims in proptest::collection::vec((8u64..400, 4u64..96, 8u64..400), 2..5),
            repeat_label in 0u8..2,
            repeat_budget in 0u8..2,
            first_budget_exp in 8u32..11,
            budgets in 1usize..4,
            keep_within in 0u64..60,
            explicit_grids in 0u8..2,
        ) {
            let last = dims.len() - 1;
            let mut plan = SweepPlan::new("prune-oracle");
            for (i, (m, k, n)) in dims.into_iter().enumerate() {
                let label = if repeat_label == 1 && i == last {
                    "W0".to_owned()
                } else {
                    format!("W{i}")
                };
                plan.workloads.push(SweepWorkload {
                    topology: Topology::from_layers(&label, vec![Layer::gemm("l0", m, k, n)]),
                    label,
                });
            }
            plan.budgets = (0..budgets as u32).map(|b| 1 << (first_budget_exp + b)).collect();
            if repeat_budget == 1 {
                plan.budgets.push(plan.budgets[0]);
            }
            plan.aspects = AspectAxis::All;
            if explicit_grids == 1 {
                plan.grids = crate::sweep::GridAxis::Explicit(vec![
                    PartitionGrid::new(1, 1),
                    PartitionGrid::new(2, 2),
                ]);
            }
            plan.dataflows = vec![
                DataflowChoice::Fixed(Dataflow::OutputStationary),
                DataflowChoice::Fixed(Dataflow::InputStationary),
                DataflowChoice::Auto,
            ];
            let outcome = ExploreEngine::with_registry(&Registry::new())
                .prune(&plan, keep_within as f64)
                .unwrap();
            proptest::prop_assert_eq!(outcome.candidates, plan.points().unwrap().len());
            proptest::prop_assert_eq!(outcome.survivors, prune_reference(&plan, keep_within as f64));
        }
    }

    /// The acquisition rule as first written, kept as the oracle for
    /// [`Acquisition`]: before every batch it rebuilds every workload's
    /// correction (the global median standing in for unmeasured workloads)
    /// and measured frontier from all measurements so far, and fully
    /// sorts the survivors that are left.
    struct WholeRecompute<'a> {
        plan: &'a SweepPlan,
        remaining: Vec<SurvivorPoint>,
        measured: Vec<(SurvivorPoint, u64)>,
    }

    impl WholeRecompute<'_> {
        fn next_batch(&mut self, take: usize) -> Vec<SurvivorPoint> {
            if !self.measured.is_empty() {
                let median = |points: &mut dyn Iterator<Item = &(SurvivorPoint, u64)>| {
                    let ratios = points.map(|(s, cycles)| error_ratio(*cycles, s.predicted));
                    ErrorStats::from_ratios(ratios.collect()).p50
                };
                let global = median(&mut self.measured.iter());
                let corrections: HashMap<&str, f64> = self
                    .plan
                    .workloads
                    .iter()
                    .map(|w| {
                        let mut of_workload = self
                            .measured
                            .iter()
                            .filter(|(s, _)| s.spec.workload == w.label)
                            .peekable();
                        let ratio = if of_workload.peek().is_some() {
                            median(&mut of_workload)
                        } else {
                            global
                        };
                        (w.label.as_str(), ratio)
                    })
                    .collect();
                let frontiers: HashMap<&str, Frontier> = self
                    .plan
                    .workloads
                    .iter()
                    .map(|w| {
                        let points = self
                            .measured
                            .iter()
                            .filter(|(s, _)| s.spec.workload == w.label)
                            .map(|(s, cycles)| (s.spec.budget, *cycles));
                        (w.label.as_str(), Frontier::build(points))
                    })
                    .collect();
                self.remaining.sort_by(|a, b| {
                    let score = |s: &SurvivorPoint| {
                        acquisition_score(
                            s.spec.budget,
                            s.predicted,
                            corrections[s.spec.workload.as_str()],
                            &frontiers[s.spec.workload.as_str()],
                        )
                    };
                    score(b)
                        .total_cmp(&score(a))
                        .then(a.spec.index.cmp(&b.spec.index))
                });
            }
            self.remaining.drain(..take).collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]

        /// Batch by batch, the incremental selection hands out the plan
        /// indices the whole recompute would, in the same order — on small
        /// random plans with stalls (so corrections differ by workload)
        /// and a budget that ends in a short batch.
        #[test]
        fn incremental_acquisition_matches_the_whole_recompute(
            dims in proptest::collection::vec((24u64..200, 4u64..64, 24u64..200), 3..6),
            first_budget_exp in 8u32..10,
            budgets in 2usize..4,
            bandwidth in 2u64..24,
            keep_within in 5u64..80,
            sims in 9usize..64,
        ) {
            let mut plan = SweepPlan::new("acquisition-oracle");
            plan.base.dram_bandwidth = Some(bandwidth as f64);
            for (i, (m, k, n)) in dims.into_iter().enumerate() {
                let label = format!("W{i}");
                plan.workloads.push(SweepWorkload {
                    topology: Topology::from_layers(&label, vec![Layer::gemm("l0", m, k, n)]),
                    label,
                });
            }
            plan.budgets = (0..budgets as u32).map(|b| 1 << (first_budget_exp + b)).collect();
            plan.aspects = AspectAxis::All;
            plan.dataflows = vec![
                DataflowChoice::Fixed(Dataflow::OutputStationary),
                DataflowChoice::Fixed(Dataflow::WeightStationary),
                DataflowChoice::Auto,
            ];
            let sims = if sims % REFINE_BATCH == 0 { sims + 3 } else { sims };

            let survivors = ExploreEngine::with_registry(&Registry::new())
                .prune(&plan, keep_within as f64)
                .unwrap()
                .survivors;
            // Every survivor's measurement, by plan index.
            let cycles: HashMap<usize, u64> = SweepEngine::with_registry(&Registry::new())
                .run_points(
                    &plan,
                    survivors.iter().map(|s| s.spec.clone()).collect(),
                    2,
                    &mut NullSink,
                )
                .unwrap()
                .results
                .iter()
                .map(|r| (r.spec.index, r.report.total_effective_cycles()))
                .collect();
            matches_whole_recompute(&plan, &survivors, &cycles, sims)?;
        }

        /// The same on synthetic survivors with made-up measurements, which
        /// reach what random simulations seldom do: twin workloads, whose
        /// equal scores in different workloads break on plan index; more
        /// workloads than a batch, so whole batches are picked among the
        /// `+inf` scores the exploration starts with; survivors below their
        /// workload's cheapest measured budget, which stay `+inf`; and a
        /// budget that ends in a short batch.
        #[test]
        fn incremental_acquisition_matches_the_whole_recompute_on_ties(
            workloads in 1usize..14,
            twins in 0usize..4,
            per_workload in 1usize..10,
            seed in 0u64..1 << 32,
            sims in 1usize..120,
        ) {
            // SplitMix64 over (seed, workload, candidate): a twin draws
            // what its original draws.
            let draw = |w: usize, j: usize, salt: u64| {
                let mut x = seed ^ ((w as u64) << 40) ^ ((j as u64) << 8) ^ salt;
                x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                x ^ (x >> 31)
            };
            let total = workloads + twins.min(workloads);
            let mut plan = SweepPlan::new("acquisition-ties");
            let mut survivors: Vec<SurvivorPoint> = Vec::new();
            let mut cycles: HashMap<usize, u64> = HashMap::new();
            for w in 0..total {
                let label = format!("W{w}");
                plan.workloads.push(SweepWorkload {
                    topology: Topology::from_layers(&label, vec![Layer::gemm("l0", 8, 8, 8)]),
                    label: label.clone(),
                });
                let original = if w < workloads { w } else { w - workloads };
                for j in 0..per_workload {
                    let predicted = 100 + 10 * (draw(original, j, 1) % 8);
                    let index = survivors.len();
                    survivors.push(SurvivorPoint {
                        spec: PointSpec {
                            index,
                            workload: label.clone(),
                            budget: 256 << (draw(original, j, 2) % 3),
                            grid: PartitionGrid::new(1, 1),
                            array: ArrayShape::new(16, 16),
                            dataflow: DataflowChoice::Auto,
                        },
                        predicted,
                    });
                    cycles.insert(index, predicted * (1 + draw(original, j, 3) % 3));
                }
            }
            survivors.sort_by_key(|s| (s.predicted, s.spec.index));
            matches_whole_recompute(&plan, &survivors, &cycles, sims)?;
        }
    }

    /// Drives [`Acquisition`] and [`WholeRecompute`] side by side over
    /// `survivors` (in stage-1 rank order), measuring each as `cycles` has
    /// it by plan index, until `sims` points are measured or none is left:
    /// batch by batch they must hand out the same plan indices in the same
    /// order.
    fn matches_whole_recompute(
        plan: &SweepPlan,
        survivors: &[SurvivorPoint],
        cycles: &HashMap<usize, u64>,
        sims: usize,
    ) -> proptest::prelude::TestCaseResult {
        let mut acquisition = Acquisition::new(plan, survivors);
        let mut oracle = WholeRecompute {
            plan,
            remaining: survivors.to_vec(),
            measured: Vec::new(),
        };
        let mut done = 0;
        while acquisition.unmeasured() > 0 && done < sims {
            let take = REFINE_BATCH.min(acquisition.unmeasured()).min(sims - done);
            let batch = acquisition.next_batch(take);
            let expected = oracle.next_batch(take);
            proptest::prop_assert_eq!(
                batch
                    .iter()
                    .map(|&s| survivors[s].spec.index)
                    .collect::<Vec<_>>(),
                expected.iter().map(|s| s.spec.index).collect::<Vec<_>>(),
                "batch after {} measurements",
                done
            );
            for (s, survivor) in batch.into_iter().zip(expected) {
                let measured = cycles[&survivor.spec.index];
                acquisition.record(s, measured);
                oracle.measured.push((survivor, measured));
            }
            acquisition.rescore();
            done += take;
        }
        proptest::prop_assert_eq!(acquisition.unmeasured(), oracle.remaining.len());
        Ok(())
    }

    #[test]
    fn predictions_saturate_instead_of_wrapping_on_huge_gemms() {
        // A GEMM cube on an 8x8 OS array. The fold count of a 2^24 cube
        // is 2^42 and its cycle count about 2^66: the sums used to wrap
        // (2^24 read fewer cycles than 2^20, 2^40 read 0) in release
        // builds and panic in debug ones.
        let predict = |exp: u32| {
            let n = 1u64 << exp;
            let cube = Topology::from_layers("cube", vec![Layer::gemm("l0", n, n, n)]);
            let os = DataflowChoice::Fixed(Dataflow::OutputStationary);
            predict_cycles(&cube, ArrayShape::new(8, 8), PartitionGrid::new(1, 1), os)
        };
        let predictions: Vec<u64> = (0..=40).map(predict).collect();
        assert!(
            predictions.windows(2).all(|pair| pair[0] <= pair[1]),
            "predictions must grow with the cube: {predictions:?}"
        );
        assert!(predictions[20] < u64::MAX);
        assert_eq!(predictions[24], u64::MAX);
        assert_eq!(predictions[40], u64::MAX);
        // `auto` elects among saturated dataflows without overflowing too.
        let cube =
            Topology::from_layers("cube", vec![Layer::gemm("l0", 1 << 40, 1 << 40, 1 << 40)]);
        let auto = predict_cycles(
            &cube,
            ArrayShape::new(8, 8),
            PartitionGrid::new(2, 2),
            DataflowChoice::Auto,
        );
        assert_eq!(auto, u64::MAX);
    }

    #[test]
    fn pruning_shrinks_with_tighter_band() {
        let plan = synthetic_plan(None);
        let run = |pct| {
            let engine = ExploreEngine::with_registry(&Registry::new());
            let outcome = engine
                .run(
                    &plan,
                    &ExploreOptions {
                        keep_within_pct: pct,
                        budget: ExploreBudget::Sims(0),
                        jobs: 1,
                        progress: false,
                    },
                )
                .unwrap();
            outcome.survivors
        };
        assert!(run(0.0) <= run(50.0));
        assert!(run(50.0) <= run(1e9));
    }

    #[test]
    fn error_stats_respect_the_lower_bound() {
        let plan = synthetic_plan(Some(4.0));
        let engine = ExploreEngine::with_registry(&Registry::new());
        let outcome = engine.run(&plan, &ExploreOptions::default()).unwrap();
        assert!(outcome.error_stats.count > 0);
        assert!(outcome.error_stats.p50 >= 1.0);
        assert!(outcome.error_stats.p95 >= outcome.error_stats.p50);
        for point in &outcome.measured {
            assert!(point.predicted <= point.measured());
        }
    }

    #[test]
    fn csv_output_shape() {
        let plan = synthetic_plan(None);
        let engine = ExploreEngine::with_registry(&Registry::new());
        let outcome = engine.run(&plan, &ExploreOptions::default()).unwrap();
        let mut csv = Vec::new();
        outcome.write_csv(&mut csv).unwrap();
        let text = String::from_utf8(csv).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            EXPLORE_CSV_HEADER.trim_end_matches('\n')
        );
        assert_eq!(lines.count(), outcome.simulated);
        assert!(text.contains(",1\n") || text.contains(",0\n"));

        let mut jsonl = Vec::new();
        outcome.write_jsonl(&mut jsonl).unwrap();
        let text = String::from_utf8(jsonl).unwrap();
        assert_eq!(text.lines().count(), outcome.simulated);
        assert!(text.lines().all(|l| l.contains("\"predicted_cycles\":")));
    }

    #[test]
    fn telemetry_counters_add_up() {
        let registry = Registry::new();
        let plan = synthetic_plan(None);
        let engine = ExploreEngine::with_registry(&registry);
        let outcome = engine
            .run(
                &plan,
                &ExploreOptions {
                    keep_within_pct: 10.0,
                    budget: ExploreBudget::Sims(5),
                    jobs: 2,
                    progress: false,
                },
            )
            .unwrap();
        let read = |name| registry.counter_value(name, &[]).unwrap();
        assert_eq!(read(telemetry_names::CANDIDATES), outcome.candidates as u64);
        assert_eq!(read(telemetry_names::PRUNED), outcome.pruned as u64);
        assert_eq!(read(telemetry_names::SIMULATED), outcome.simulated as u64);
    }

    #[test]
    fn set_reads_every_knob_and_refuses_what_is_outside_its_grammar() {
        let set = |key: &str, text: &str| {
            let mut options = ExploreOptions::default();
            options.set(key, text).map(|()| options)
        };
        let budget = |text| set("budget", text).map(|o| o.budget);
        assert_eq!(budget("100"), Ok(ExploreBudget::Sims(100)));
        assert_eq!(budget("0"), Ok(ExploreBudget::Sims(0)));
        assert_eq!(
            budget("30s"),
            Ok(ExploreBudget::WallClock(Duration::from_secs(30)))
        );
        assert_eq!(
            budget("5m"),
            Ok(ExploreBudget::WallClock(Duration::from_secs(300)))
        );
        assert_eq!(
            budget("1.5s"),
            Ok(ExploreBudget::WallClock(Duration::from_millis(1500)))
        );
        assert_eq!(
            budget("0.5m"),
            Ok(ExploreBudget::WallClock(Duration::from_secs(30)))
        );
        for bad in ["fast", "-3", "2h", "", "s", "1.5", "5ms", "NaNs"] {
            assert!(
                budget(bad).unwrap_err().contains("is not a point count"),
                "{bad}"
            );
        }
        for zero in ["0s", "0m", "-1s", "-0.5m", "1e-12s", "-infs"] {
            assert!(
                budget(zero).unwrap_err().contains("is shorter than 1 ns"),
                "{zero}"
            );
        }
        // `n * 60` in integers wrapped this to a 44-second budget (and
        // panicked in a debug build); 1e300 s panicked `from_secs_f64`.
        for huge in ["307445734561825861m", "1e300s", "infs"] {
            assert!(budget(huge).unwrap_err().contains("out of range"), "{huge}");
        }

        let keep_within = |text| set("keep_within", text).map(|o| o.keep_within_pct);
        assert_eq!(keep_within("7.5"), Ok(7.5));
        assert_eq!(keep_within("0"), Ok(0.0));
        for bad in ["-1", "NaN", "inf", "lots"] {
            assert!(keep_within(bad).is_err(), "{bad}");
        }
        assert!(set("jobs", "2")
            .unwrap_err()
            .contains("unknown explore knob"));
    }
}
