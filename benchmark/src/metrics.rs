//! Every metric the benchmark reports, by name, unit and direction.
//! `BENCHMARK.json` lists the same metrics; a unit test keeps the two equal.

use scalesim_server::Json;

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the base's median by which an end-to-end metric may worsen
    /// before `compare` calls it worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn end_to_end(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Host-time metrics a user of the system sees, reported by the untraced run.
/// Every bound is the widest the driver's contract allows, two and a half
/// times what was first planned: a bound has to exceed the spread of ten runs
/// of the same code, and while the neighbours of the reference box are loud
/// that is 6 to 15 % after calibration (see `calib`), whatever the metric.
pub const END_TO_END: &[MetricSpec] = &[
    end_to_end("setup_s", "s", Lower, 0.25),
    end_to_end("pass_s", "s", Lower, 0.25),
    end_to_end("ops_per_s", "1/s", Higher, 0.25),
    end_to_end("cpu_s_per_pass", "s", Lower, 0.25),
    end_to_end("peak_rss_mb", "MB", Lower, 0.25),
    end_to_end("req_p50_ms", "ms", Lower, 0.25),
    end_to_end("req_p99_ms", "ms", Lower, 0.25),
];

/// Metrics of single layers (`<crate>.<name>`), reported by the traced run.
/// A direction is nominal where a metric is a count that must simply repeat.
pub const PER_LAYER: &[MetricSpec] = &[
    layer("topology.parse_us_per_layer", "us", Lower),
    layer("systolic.demand_gen_ns_per_run", "ns", Lower),
    layer("systolic.analyze_ns_per_layer", "ns", Lower),
    layer("systolic.demand_runs", "count", Lower),
    layer("systolic.demand_elements", "count", Lower),
    layer("systolic.elements_per_run", "ratio", Higher),
    layer("systolic.pe_grid_cycle_err_pct", "%", Lower),
    layer("memory.fold_runs_ns_per_run", "ns", Lower),
    layer("memory.buffer_epoch_ns_per_run", "ns", Lower),
    layer("memory.run_merge_ns_per_run", "ns", Lower),
    layer("memory.reuse_profile_ns_per_run", "ns", Lower),
    layer("memory.stall_ns_per_fold", "ns", Lower),
    layer("memory.sram_hit_ratio", "ratio", Higher),
    layer("analytical.predict_ns_per_candidate", "ns", Lower),
    layer("analytical.prune_ns_per_candidate", "ns", Lower),
    layer("analytical.survivor_share", "ratio", Lower),
    layer("analytical.bound_gap_p50", "ratio", Lower),
    layer("energy.evaluate_ns_per_call", "ns", Lower),
    layer("core.run_layer_us_p50", "us", Lower),
    layer("core.run_layer_us_p95", "us", Lower),
    layer("core.facade_overhead_us_per_layer", "us", Lower),
    layer("core.reconcile_layer_ratio", "ratio", Higher),
    layer("core.layer_cache_key_ns", "ns", Lower),
    layer("core.layer_cache_hit_ns", "ns", Lower),
    layer("core.layer_cache_hit_ratio", "ratio", Higher),
    layer("core.layer_warm_us_per_point", "us", Lower),
    layer("core.point_warm_us_per_point", "us", Lower),
    layer("core.plan_expand_us_per_point", "us", Lower),
    layer("core.sink_us_per_row", "us", Lower),
    layer("core.exec_speedup", "ratio", Higher),
    layer("core.exec_efficiency", "ratio", Higher),
    layer("core.exec_steals", "count", Lower),
    layer("core.exec_worker_busy_min", "ratio", Higher),
    layer("core.exec_ns_per_empty_task", "ns", Lower),
    layer("core.exec_hetero_efficiency", "ratio", Higher),
    layer("core.peak_threads", "count", Lower),
    layer("core.partition_1x1_ms", "ms", Lower),
    layer("core.partition_4x4_ms", "ms", Lower),
    layer("core.explore_stage0_s", "s", Lower),
    layer("core.explore_stage1_s", "s", Lower),
    layer("core.explore_stage2_s", "s", Lower),
    layer("core.reconcile_explore_ratio", "ratio", Higher),
    layer("core.reconcile_sweep_ratio", "ratio", Higher),
    layer("core.host_ns_per_sim_cycle", "ns", Lower),
    layer("server.json_parse_us", "us", Lower),
    layer("server.normalize_key_us", "us", Lower),
    layer("server.engine_hit_us", "us", Lower),
    layer("server.engine_miss_us", "us", Lower),
    layer("server.http_hit_us", "us", Lower),
    layer("server.http_overhead_us", "us", Lower),
    layer("server.healthz_us", "us", Lower),
    layer("server.sweep_repeat_us", "us", Lower),
    layer("server.metrics_scrape_us", "us", Lower),
    layer("server.sweep_route_vs_engine_ratio", "ratio", Lower),
    layer("server.hit_ratio", "ratio", Higher),
    layer("server.shed_share", "ratio", Lower),
    layer("telemetry.trace_on_overhead_pct", "%", Lower),
    layer("telemetry.span_off_ns", "ns", Lower),
    layer("telemetry.span_on_ns", "ns", Lower),
    layer("telemetry.counter_inc_ns", "ns", Lower),
    layer("telemetry.render_us", "us", Lower),
    layer("telemetry.trace_events_dropped", "count", Lower),
    layer("cli.startup_ms", "ms", Lower),
    layer("cli.sweep_overhead_ms", "ms", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// A metric with what one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub spec: MetricSpec,
    /// The reported figure, as the metric defines it.
    pub value: f64,
    /// Count and quartiles of the samples behind the figure.
    pub samples: Summary,
}

impl Metric {
    /// A metric whose figure is the median of its samples.
    pub fn new(spec: &MetricSpec, samples: Summary) -> Metric {
        Metric {
            spec: *spec,
            value: samples.median,
            samples,
        }
    }

    /// A metric whose figure is computed over the whole window, beside the
    /// per-pass samples of the same quantity.
    pub fn with_value(spec: &MetricSpec, value: f64, samples: Summary) -> Metric {
        Metric {
            spec: *spec,
            value,
            samples,
        }
    }

    /// `{"value": ..., "unit": ...}` as the driver's contract asks.
    pub fn contract_json(&self) -> Json {
        Json::obj(vec![
            ("value", Json::Float(self.value)),
            ("unit", Json::str(self.spec.unit)),
        ])
    }

    /// The full record kept in `results.json`.
    pub fn detail_json(&self) -> Json {
        Json::obj(vec![
            ("unit", Json::str(self.spec.unit)),
            ("better", Json::str(self.spec.better.as_str())),
            ("value", Json::Float(self.value)),
            ("n", Json::Int(self.samples.n as i128)),
            ("min", Json::Float(self.samples.min)),
            ("q1", Json::Float(self.samples.q1)),
            ("median", Json::Float(self.samples.median)),
            ("q3", Json::Float(self.samples.q3)),
            ("max", Json::Float(self.samples.max)),
        ])
    }

    /// Reads back what [`Metric::detail_json`] wrote for metric `name`.
    pub fn from_detail_json(name: &str, json: &Json) -> Option<Metric> {
        let number = |key: &str| json.get(key).and_then(Json::as_f64);
        Some(Metric {
            spec: *spec(name)?,
            value: number("value")?,
            samples: Summary {
                n: json.get("n")?.as_u64()? as usize,
                min: number("min")?,
                q1: number("q1")?,
                median: number("median")?,
                q3: number("q3")?,
                max: number("max")?,
            },
        })
    }
}

/// The spec of end-to-end or per-layer metric `name`.
pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sys;

    fn listed(json: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        json.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    fn declared(specs: &[MetricSpec]) -> Vec<(String, String, String, Option<f64>)> {
        specs
            .iter()
            .map(|s| {
                (
                    s.name.to_owned(),
                    s.unit.to_owned(),
                    s.better.as_str().to_owned(),
                    s.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = std::fs::read_to_string(sys::repo_root().join("BENCHMARK.json")).unwrap();
        let json = Json::parse(&text).unwrap();
        assert_eq!(listed(&json, "end_to_end"), declared(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), declared(PER_LAYER));
        let workloads: Vec<String> = listed(&json, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
        assert_eq!(
            json.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
        let setup = spec("setup_s").unwrap().bound.unwrap();
        assert!(END_TO_END.iter().all(|s| s.bound.unwrap() <= setup));
    }
}
