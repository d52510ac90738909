//! `POST /sweep`: design-space sweeps over the engine's shared cache.
//!
//! The request body is a JSON rendering of a core [`SweepPlan`]. The
//! handler walks the plan's points on the connection thread: each becomes
//! a [`NormalizedJob`] and all of them go through [`Engine::run_all`], a
//! bounded number submitted ahead of the one being waited for, so sweep
//! points share the engine's result cache and single-flight dedup with
//! ordinary `POST /simulate` traffic (a point is keyed as the job it is)
//! and a sweep starts no thread of its own. The response lists points in plan order,
//! so the simulated figures for identical plans are byte-identical; only
//! the per-point `served` markers (miss / hit / joined) and the summary's
//! `simulations` / `cache_hits` counters reflect cache state.
//!
//! Plan JSON — the plan-file grammar of [`SweepPlan::parse`] with JSON
//! types; every field maps onto one [`SweepPlan::set`] key:
//!
//! ```json
//! {
//!   "name": "fig9_tf0",
//!   "workloads": ["TF0"],
//!   "budgets": [1024, 4096],
//!   "min_dim": 8,
//!   "grids": "all",            // or ["1x1", "2x2", ...]
//!   "aspect": "all",           // or "squareish" (default)
//!   "dataflows": ["os"],       // os/ws/is/auto; default: base dataflow
//!   "config": {"IfmapSramSz": 64},
//!   "bandwidth": 32
//! }
//! ```

use std::sync::Arc;
use std::time::Instant;

use scalesim::sweep::{summarize_groups, DataflowChoice, PointSpec, SweepCounters, SweepPlan};

use crate::engine::{Engine, JobContext, Served, ServedResult, SimResult};
use crate::job::{JobError, NormalizedJob};
use crate::json::Json;

/// The most points one `POST /sweep` may expand to: a 4 MiB body can name
/// millions, and the count is known before any point exists. `/explore`
/// has no cap — it prices candidates analytically and simulates few.
pub const MAX_SWEEP_POINTS: usize = 4096;

/// Parses the `POST /sweep` body into a core [`SweepPlan`].
///
/// # Errors
///
/// [`JobError::BadRequest`] on unknown fields, unknown workloads or
/// malformed values.
pub fn parse_sweep_plan(value: &Json) -> Result<SweepPlan, JobError> {
    let obj = value
        .as_object()
        .ok_or_else(|| JobError::bad_request("sweep plan must be a JSON object"))?;
    // A list of scalars as the text the plan grammar reads.
    let list = |value: &Json| {
        let texts: Option<Vec<String>> = value.as_array()?.iter().map(Json::as_text).collect();
        Some(texts?.join(","))
    };
    for required in ["workloads", "budgets"] {
        if value.get(required).is_none() {
            return Err(JobError::bad_request(format!(
                "sweep plan has no `{required}`"
            )));
        }
    }
    let mut plan = SweepPlan::new("sweep");
    for (field, value) in obj {
        let (text, want) = match field.as_str() {
            "name" | "aspect" => (value.as_str().map(str::to_owned), "a string"),
            "workloads" | "dataflows" => (list(value), "an array of strings"),
            "budgets" => (list(value), "an array of integers"),
            "grids" => (
                value.as_str().map(str::to_owned).or_else(|| list(value)),
                "\"all\" or an array of \"PRxPC\" strings",
            ),
            "min_dim" | "bandwidth" => (value.as_f64().and(value.as_text()), "a number"),
            "config" => {
                let pairs = value
                    .as_object()
                    .ok_or_else(|| JobError::bad_request("`config` must be an object"))?;
                for (k, v) in pairs {
                    let text = v.as_text().ok_or_else(|| {
                        JobError::bad_request(format!(
                            "config value for `{k}` must be a string or number"
                        ))
                    })?;
                    plan.set(&format!("config.{k}"), &text)
                        .map_err(JobError::bad_request)?;
                }
                continue;
            }
            other => {
                return Err(JobError::bad_request(format!(
                    "unknown sweep plan field `{other}`"
                )))
            }
        };
        let text =
            text.ok_or_else(|| JobError::bad_request(format!("`{field}` must be {want}")))?;
        // The list-valued fields are the grammar's keys in the plural.
        let key = field.strip_suffix('s').unwrap_or(field);
        plan.set(key, &text).map_err(JobError::bad_request)?;
    }
    Ok(plan)
}

/// Simulates `specs`, points of `plan`, as ordinary engine jobs — what
/// `POST /sweep` does with a plan's points and `POST /explore` with each
/// batch of survivors — and counts them in the `scalesim_sweep_*` series.
/// Results come back in the order of `specs`; window, deadline and errors
/// are those of [`Engine::run_all`].
pub(crate) fn run_points(
    engine: &Engine,
    plan: &SweepPlan,
    specs: &[PointSpec],
    ctx: JobContext<'_>,
    deadline: Option<Instant>,
) -> Result<Vec<ServedResult>, JobError> {
    let jobs = specs.iter().map(|spec| {
        let workload = plan.workloads.iter().rfind(|w| w.label == spec.workload);
        NormalizedJob {
            config: spec.config(&plan.base),
            topology: workload
                .expect("a plan's points name its workloads")
                .topology
                .clone(),
            grid: spec.grid,
            auto_dataflow: spec.dataflow == DataflowChoice::Auto,
        }
    });
    let served = engine.run_all(jobs, ctx, deadline).map_err(|(_, e)| e)?;

    let counters = SweepCounters::new(engine.registry());
    let simulations = served.iter().filter(|(_, s)| *s == Served::Fresh).count() as u64;
    counters.points.add(served.len() as u64);
    counters.simulations.add(simulations);
    counters.cache_hits.add(served.len() as u64 - simulations);
    Ok(served)
}

/// Parses and runs a sweep plan against `engine`, returning the full
/// response body. Blocks until every point is served or `deadline` passes;
/// `request_id` tags the points' flight-recorder entries.
///
/// # Errors
///
/// [`JobError::BadRequest`] for invalid plans and plans of more than
/// [`MAX_SWEEP_POINTS`] points; otherwise the first failing point's error
/// in plan order — [`JobError::DeadlineExpired`] at the deadline, while
/// the points already submitted finish and land in the cache.
pub fn run_sweep(
    engine: &Engine,
    body: &Json,
    deadline: Option<Instant>,
    request_id: &str,
) -> Result<Json, JobError> {
    let plan = parse_sweep_plan(body)?;
    let points = plan.points()?;
    if points.len() > MAX_SWEEP_POINTS {
        return Err(JobError::bad_request(format!(
            "plan expands to {} points, more than the {MAX_SWEEP_POINTS} one /sweep serves; \
             narrow it, or send it to /explore, which simulates only the candidates worth it",
            points.len()
        )));
    }
    let specs: Vec<PointSpec> = points.collect();
    let ctx = JobContext {
        route: "/sweep",
        request_id,
    };
    let served_points: Vec<(PointSpec, Arc<SimResult>, Served)> =
        run_points(engine, &plan, &specs, ctx, deadline)?
            .into_iter()
            .zip(specs)
            .map(|((result, served), spec)| (spec, result, served))
            .collect();
    let simulations = served_points
        .iter()
        .filter(|(_, _, served)| *served == Served::Fresh)
        .count() as u64;
    let cache_hits = served_points.len() as u64 - simulations;

    let rows: Vec<Json> = served_points
        .iter()
        .map(|(spec, result, served)| point_json(spec, result, *served))
        .collect();
    let point_ref = |i: usize| {
        let (spec, result, _) = &served_points[i];
        Json::obj(vec![
            ("index", Json::Int((i as u64).into())),
            ("grid", Json::str(spec.grid.to_string())),
            ("array", Json::str(spec.array.to_string())),
            ("partitions", Json::Int(spec.partitions().into())),
            (
                "effective_cycles",
                Json::Int(result.report.total_effective_cycles().into()),
            ),
        ])
    };
    // One summary object per (workload, budget, dataflow) group: the
    // fastest point and the runtime/bandwidth sweet spot over the group's
    // partition series.
    let groups: Vec<Json> = summarize_groups(
        served_points
            .iter()
            .map(|(spec, result, _)| (spec, &*result.report)),
    )
    .into_iter()
    .map(|group| {
        let spec = &served_points[group.best].0;
        Json::obj(vec![
            ("workload", Json::str(spec.workload.clone())),
            ("budget", Json::Int(spec.budget.into())),
            ("dataflow", Json::str(spec.dataflow.to_string())),
            ("best", point_ref(group.best)),
            (
                "sweet_spot",
                group.sweet_spot.map(point_ref).unwrap_or(Json::Null),
            ),
        ])
    })
    .collect();
    Ok(Json::obj(vec![
        ("plan", Json::str(plan.name.clone())),
        ("points", Json::Arr(rows)),
        (
            "summary",
            Json::obj(vec![
                ("points", Json::Int((served_points.len() as u64).into())),
                ("simulations", Json::Int(simulations.into())),
                ("cache_hits", Json::Int(cache_hits.into())),
                ("groups", Json::Arr(groups)),
            ]),
        ),
    ]))
}

fn point_json(spec: &PointSpec, result: &SimResult, served: Served) -> Json {
    let report = &result.report;
    Json::obj(vec![
        ("workload", Json::str(spec.workload.clone())),
        ("budget", Json::Int(spec.budget.into())),
        ("partitions", Json::Int(spec.partitions().into())),
        ("grid", Json::str(spec.grid.to_string())),
        ("array", Json::str(spec.array.to_string())),
        ("dataflow", Json::str(spec.dataflow.to_string())),
        ("cycles", Json::Int(report.total_cycles().into())),
        (
            "effective_cycles",
            Json::Int(report.total_effective_cycles().into()),
        ),
        ("macs", Json::Int(report.total_macs().into())),
        (
            "overall_utilization",
            Json::Float(report.overall_utilization()),
        ),
        ("dram_bytes", Json::Int(report.total_dram_bytes().into())),
        (
            "peak_bw_bytes_per_cycle",
            Json::Float(report.peak_required_bandwidth()),
        ),
        ("energy", Json::Float(report.total_energy().total())),
        ("key", Json::str(result.key.to_string())),
        ("served", Json::str(served.tag())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim::sweep::telemetry_names;

    fn plan_json(extra: &str) -> Json {
        Json::parse(&format!(
            r#"{{"name":"t","workloads":["TF1"],"budgets":[1024],
                 "config":{{"IfmapSramSz":64,"FilterSramSz":64,"OfmapSramSz":32}}{extra}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn plan_parses_and_expands() {
        let plan = parse_sweep_plan(&plan_json("")).unwrap();
        assert_eq!(plan.name, "t");
        assert_eq!(plan.workloads[0].label, "TF1");
        assert_eq!(plan.expand().unwrap().len(), 5);
    }

    #[test]
    fn json_and_plan_file_spell_the_same_plan() {
        let json = Json::parse(
            r#"{"name":"both","workloads":["TF0","alexnet"],"budgets":[1024,4096],
                "min_dim":16,"grids":["1x1","2x2"],"aspect":"all",
                "dataflows":["os","auto"],"bandwidth":12.5,
                "config":{"IfmapSramSz":64,"OfmapOffset":"30000000","Dataflow":"ws"}}"#,
        )
        .unwrap();
        let text = "name = both\nworkload = TF0, alexnet\nbudget = 2^10, 4096\n\
                    min_dim = 16\ngrid = 1x1, 2x2\naspect = all\ndataflow = os, auto\n\
                    bandwidth = 12.5\nconfig.IfmapSramSz = 64\n\
                    config.OfmapOffset = 30000000\nconfig.Dataflow = ws\n";
        let plan = parse_sweep_plan(&json).unwrap();
        assert_eq!(plan, SweepPlan::parse(text).unwrap());
        assert_eq!(plan.base.dram_bandwidth, Some(12.5));
        assert_eq!(plan.base.ifmap_sram_kb, 64);
        assert_eq!(plan.base.offsets.ofmap, 30_000_000);
        assert_eq!(plan.expand().unwrap().len(), 2 * (3 + 1 + 5 + 3) * 2);
    }

    #[test]
    fn plan_rejects_bad_requests() {
        assert!(parse_sweep_plan(&Json::parse(r#"{"budgets":[1]}"#).unwrap()).is_err());
        assert!(parse_sweep_plan(
            &Json::parse(r#"{"workloads":["nope"],"budgets":[1024]}"#).unwrap()
        )
        .is_err());
        assert!(parse_sweep_plan(&plan_json(r#","bogus":1"#)).is_err());
        assert!(parse_sweep_plan(&plan_json(r#","grids":"some""#)).is_err());
        assert!(parse_sweep_plan(&plan_json(r#","dataflows":["rs"]"#)).is_err());
        assert!(parse_sweep_plan(&plan_json(r#","bandwidth":-1"#)).is_err());
        let overflow = parse_sweep_plan(&plan_json(r#","grids":["9223372036854775809x2"]"#));
        assert!(matches!(overflow, Err(JobError::BadRequest(_))));
    }

    #[test]
    fn sweep_runs_through_the_engine_cache() {
        let engine = Engine::new(4, 64);
        let body = plan_json("");
        let first = run_sweep(&engine, &body, None, "").unwrap();
        let summary = first.get("summary").unwrap();
        assert_eq!(summary.get("points").and_then(Json::as_u64), Some(5));
        assert_eq!(summary.get("simulations").and_then(Json::as_u64), Some(5));
        assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(0));

        // Re-running the identical plan is served entirely from cache and
        // the points (minus the `served` marker) are identical.
        let second = run_sweep(&engine, &body, None, "").unwrap();
        let summary = second.get("summary").unwrap();
        assert_eq!(summary.get("simulations").and_then(Json::as_u64), Some(0));
        assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(5));
        // Point rows are byte-identical modulo the served marker (the
        // summary's simulations/cache_hits legitimately differ per run).
        let strip = |v: &Json| {
            v.get("points")
                .unwrap()
                .to_string()
                .replace("\"served\":\"miss\"", "")
                .replace("\"served\":\"hit\"", "")
        };
        assert_eq!(strip(&first), strip(&second));

        // Sweep metrics land in the engine registry.
        let registry = engine.registry();
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
        engine.shutdown();
    }

    #[test]
    fn sweep_points_match_simulate_responses() {
        // A sweep point and an equivalent /simulate job share one cache
        // entry: the job arriving second must be a hit, not a fresh run.
        let engine = Engine::new(2, 64);
        run_sweep(&engine, &plan_json(""), None, "").unwrap();
        let sims_after_sweep = engine.stats().simulations.get();

        let mut job = crate::job::SimJob::builtin("TF1");
        for (key, text) in [
            ("config.IfmapSramSz", "64"),
            ("config.FilterSramSz", "64"),
            ("config.OfmapSramSz", "32"),
            ("config.ArrayHeight", "32"),
            ("config.ArrayWidth", "32"),
        ] {
            job.set(key, text).unwrap();
        }
        let (_, served) = engine.run(&job).unwrap();
        assert_eq!(served, Served::Cache);
        assert_eq!(engine.stats().simulations.get(), sims_after_sweep);
        engine.shutdown();
    }

    #[test]
    fn groups_carry_best_and_sweet_spot() {
        let engine = Engine::new(4, 64);
        let body = plan_json("");
        let response = run_sweep(&engine, &body, None, "").unwrap();
        let groups = response
            .get("summary")
            .and_then(|s| s.get("groups"))
            .and_then(Json::as_array)
            .unwrap();
        assert_eq!(groups.len(), 1);
        let group = &groups[0];
        assert_eq!(group.get("workload").and_then(Json::as_str), Some("TF1"));
        assert!(group.get("best").unwrap().get("grid").is_some());
        assert!(group.get("sweet_spot").unwrap().get("partitions").is_some());
        engine.shutdown();
    }
}
