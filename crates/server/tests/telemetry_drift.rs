//! Drift test of a serving engine's registry: after one `/simulate`, one
//! `/sweep` and one `/explore` on one engine, every series the engine's
//! registry and the global registry render is named in DESIGN.md, and none
//! of the series removed for want of a reader comes back (DESIGN.md §2
//! gives each series its reader). The global
//! registry is process-wide, so this test has a binary to itself.

use std::fs;
use std::path::Path;

use scalesim_server::http::client::request;
use scalesim_server::{Engine, Server};

/// The metric names of a Prometheus text exposition's `# TYPE` lines.
fn declared_series(rendered: &str) -> Vec<&str> {
    rendered
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.split(' ').next())
        .collect()
}

#[test]
fn every_engine_series_is_documented_and_none_unread_returns() {
    let handle = Server::bind("127.0.0.1:0", Engine::new(1, 64))
        .expect("bind ephemeral port")
        .spawn();
    let tight = r#""config": {"IfmapSramSz": 64, "FilterSramSz": 64, "OfmapSramSz": 32}"#;
    for (route, body) in [
        (
            "/simulate",
            // Two layers of one shape: a layer-cache miss, then a hit.
            r#"{"topology_csv": "D1,8,8,3,3,4,8,1\nD2,8,8,3,3,4,8,1",
                "config": {"ArrayHeight": 8, "ArrayWidth": 8}}"#
                .to_owned(),
        ),
        (
            "/sweep",
            format!(r#"{{"name": "drift", "workloads": ["TF1"], "budgets": [1024], {tight}}}"#),
        ),
        (
            "/explore",
            format!(
                r#"{{"workloads": ["TF1"], "budgets": [256, 1024], "keep_within": 5, {tight}}}"#
            ),
        ),
    ] {
        let response = request(handle.addr(), "POST", route, Some(&body)).unwrap();
        assert_eq!(response.status, 200, "{route}: {}", response.body);
    }

    // The trace ring's drop counter registers on first use.
    scalesim_telemetry::trace::events_dropped();
    let engine = handle.engine().registry().render();
    let global = scalesim_telemetry::global().render();
    let design =
        fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../../DESIGN.md")).unwrap();
    let (engine_series, global_series) = (declared_series(&engine), declared_series(&global));
    assert!(
        engine_series.contains(&"scalesim_requests_total"),
        "{engine}"
    );
    for name in [
        "scalesim_layer_cache_hits_total",
        "scalesim_trace_events_dropped_total",
    ] {
        assert!(global_series.contains(&name), "{global}");
    }
    for name in engine_series.iter().chain(&global_series) {
        assert!(
            design.contains(&format!("`{name}`")),
            "DESIGN.md never names {name}"
        );
    }
    for removed in [
        "scalesim_dedup_joiners",
        "scalesim_job_errors_total",
        "scalesim_build_info",
        "scalesim_explore_stage_seconds",
        "scalesim_explore_frontier_size",
    ] {
        for (registry, rendered) in [("engine", &engine), ("global", &global)] {
            assert!(
                !rendered.contains(removed),
                "{removed} has no reader and the {registry} registry renders it:\n{rendered}"
            );
        }
    }
    handle.stop();
}
