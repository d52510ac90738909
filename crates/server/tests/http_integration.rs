//! Integration tests of the HTTP front end over real TCP sockets: an
//! ephemeral-port server, concurrent duplicate submissions, liveness under
//! load, and error paths.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use scalesim_server::http::client::{request, request_with_headers, Response};
use scalesim_server::{Engine, Json, Server};

fn start_server(workers: usize) -> scalesim_server::ServerHandle {
    let engine = Engine::new(workers, 64);
    Server::bind("127.0.0.1:0", engine)
        .expect("bind ephemeral port")
        .spawn()
}

fn get(handle: &scalesim_server::ServerHandle, path: &str) -> Response {
    request(handle.addr(), "GET", path, None).expect("GET succeeds")
}

fn stats_field(handle: &scalesim_server::ServerHandle, field: &str) -> u64 {
    let response = get(handle, "/stats");
    assert_eq!(response.status, 200);
    Json::parse(&response.body)
        .expect("stats is JSON")
        .get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats field {field} missing"))
}

/// The acceptance scenario: the same ResNet-50 layer job POSTed twice
/// concurrently runs one simulation, counts one cache hit, returns
/// byte-identical bodies — and `/healthz` answers 200 the whole time.
#[test]
fn concurrent_duplicate_posts_share_one_simulation() {
    let handle = start_server(4);
    let job = r#"{"network": "resnet50", "layer": "Conv1"}"#;

    let done = Arc::new(AtomicBool::new(false));
    let responses: Vec<Response> = std::thread::scope(|s| {
        let posts: Vec<_> = (0..2)
            .map(|_| {
                let addr = handle.addr();
                s.spawn(move || request(addr, "POST", "/simulate", Some(job)).expect("POST"))
            })
            .collect();
        // Liveness probe: hammer /healthz while the (multi-second) layer
        // simulation is in flight.
        let health_done = Arc::clone(&done);
        let addr = handle.addr();
        let health = s.spawn(move || {
            let mut probes = 0u32;
            while !health_done.load(Ordering::SeqCst) {
                let response = request(addr, "GET", "/healthz", None).expect("healthz");
                assert_eq!(response.status, 200);
                let health = Json::parse(&response.body).expect("healthz is JSON");
                assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
                assert!(health.get("version").is_some());
                assert!(health.get("uptime_seconds").is_some());
                probes += 1;
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            probes
        });
        let responses = posts.into_iter().map(|p| p.join().unwrap()).collect();
        done.store(true, Ordering::SeqCst);
        assert!(health.join().unwrap() > 0, "healthz probed at least once");
        responses
    });

    for response in &responses {
        assert_eq!(response.status, 200, "body: {}", response.body);
    }
    assert_eq!(
        responses[0].body, responses[1].body,
        "duplicate jobs must return identical JSON bodies"
    );
    let tags: Vec<&str> = responses
        .iter()
        .map(|r| r.header("X-Scalesim-Cache").expect("cache header"))
        .collect();
    assert!(
        tags.contains(&"miss"),
        "one request must be the leader, got {tags:?}"
    );

    assert_eq!(stats_field(&handle, "simulations"), 1);
    assert_eq!(stats_field(&handle, "cache_hits"), 1);
    assert_eq!(stats_field(&handle, "accepted"), 2);
    assert_eq!(stats_field(&handle, "completed"), 2);

    // A third, later submission is a pure LRU hit with the same body.
    let third = request(handle.addr(), "POST", "/simulate", Some(job)).unwrap();
    assert_eq!(third.status, 200);
    assert_eq!(third.header("X-Scalesim-Cache"), Some("hit"));
    assert_eq!(third.body, responses[0].body);
    assert_eq!(stats_field(&handle, "simulations"), 1);
    assert_eq!(stats_field(&handle, "cache_hits"), 2);

    // The body carries the expected report fields.
    let body = Json::parse(&third.body).unwrap();
    assert_eq!(body.get("network").and_then(Json::as_str), Some("resnet50"));
    assert!(body.get("total_cycles").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        body.get("layers").and_then(Json::as_array).unwrap().len(),
        1
    );

    handle.stop();
}

#[test]
fn error_paths_return_clean_json() {
    let handle = start_server(1);

    let bad_json = request(handle.addr(), "POST", "/simulate", Some("{nope")).unwrap();
    assert_eq!(bad_json.status, 400);
    assert!(Json::parse(&bad_json.body).unwrap().get("error").is_some());

    let bad_net = request(
        handle.addr(),
        "POST",
        "/simulate",
        Some(r#"{"network": "skynet"}"#),
    )
    .unwrap();
    assert_eq!(bad_net.status, 400);
    assert!(bad_net.body.contains("unknown built-in workload"));

    let bad_layer = request(
        handle.addr(),
        "POST",
        "/simulate",
        Some(r#"{"network": "alexnet", "layer": "Conv99"}"#),
    )
    .unwrap();
    assert_eq!(bad_layer.status, 400);

    let missing = get(&handle, "/nope");
    assert_eq!(missing.status, 404);

    let delete = request(handle.addr(), "DELETE", "/simulate", None).unwrap();
    assert_eq!(delete.status, 405);

    // Nothing was accepted by the engine.
    assert_eq!(stats_field(&handle, "accepted"), 0);
    assert_eq!(stats_field(&handle, "simulations"), 0);

    handle.stop();
}

/// `/metrics` is a live Prometheus view of the service: outcome counters
/// move as `/simulate` requests complete, cache and per-layer simulator
/// series appear, and request ids are generated or echoed — all without
/// perturbing response bodies.
#[test]
fn metrics_reflect_completed_simulations() {
    let handle = start_server(2);
    let job = r#"{"topology_csv": "M1,8,8,3,3,4,8,1",
                  "config": {"ArrayHeight": 8, "ArrayWidth": 8}}"#;

    let first = request(handle.addr(), "POST", "/simulate", Some(job)).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    assert_eq!(first.header("X-Scalesim-Cache"), Some("miss"));
    assert!(
        first.header("X-Scalesim-Request-Id").is_some(),
        "a request id is generated when the client sends none"
    );

    let second = request_with_headers(
        handle.addr(),
        "POST",
        "/simulate",
        Some(job),
        &[("X-Scalesim-Request-Id", "itest-42")],
    )
    .unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Scalesim-Cache"), Some("hit"));
    assert_eq!(
        second.header("X-Scalesim-Request-Id"),
        Some("itest-42"),
        "client request ids are echoed back"
    );
    assert_eq!(
        first.body, second.body,
        "telemetry must never leak into response bodies"
    );

    // The latency histogram is observed after the response bytes are
    // written, so poll briefly until both /simulate requests are recorded.
    let simulate_count = r#"scalesim_http_request_seconds_count{route="simulate"} 2"#;
    let mut metrics = get(&handle, "/metrics");
    for _ in 0..100 {
        if metrics.body.contains(simulate_count) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        metrics = get(&handle, "/metrics");
    }
    assert_eq!(metrics.status, 200);
    assert!(
        metrics
            .header("content-type")
            .is_some_and(|t| t.starts_with("text/plain")),
        "exposition is text/plain"
    );
    let text = &metrics.body;
    // Engine registry: outcomes, dedup, cache, HTTP latency.
    assert!(text.contains("# TYPE scalesim_requests_total counter"));
    assert!(text.contains("scalesim_requests_total{outcome=\"fresh\"} 1\n"));
    assert!(text.contains("scalesim_requests_total{outcome=\"hit\"} 1\n"));
    assert!(text.contains("scalesim_simulations_total 1\n"));
    assert!(text.contains("scalesim_sim_seconds_count 1\n"));
    assert!(text.contains("scalesim_queue_wait_seconds_count 1\n"));
    assert!(text.contains("scalesim_cache_resident_entries 1\n"));
    assert!(text.contains("scalesim_cache_evictions_total 0\n"));
    assert!(text.contains(simulate_count));
    // Global simulator registry: the layer this test simulated.
    assert!(text.contains("scalesim_layer_cycles_total{layer=\"M1\"}"));
    assert!(text.contains("# TYPE scalesim_sim_phase_micros_total counter"));

    handle.stop();
}

/// `POST /sweep` over the wire: a small Fig. 11-style plan comes back in
/// plan order with a summary, repeated plans are served from the engine
/// cache, and sweep counters surface in `/metrics`.
#[test]
fn sweep_route_runs_plans_and_reuses_the_cache() {
    let handle = start_server(4);
    let plan = r#"{
        "name": "itest",
        "workloads": ["TF1"],
        "budgets": [1024],
        "config": {"IfmapSramSz": 64, "FilterSramSz": 64, "OfmapSramSz": 32}
    }"#;

    let first = request(handle.addr(), "POST", "/sweep", Some(plan)).unwrap();
    assert_eq!(first.status, 200, "body: {}", first.body);
    let body = Json::parse(&first.body).unwrap();
    assert_eq!(body.get("plan").and_then(Json::as_str), Some("itest"));
    let points = body.get("points").and_then(Json::as_array).unwrap();
    assert_eq!(points.len(), 5);
    // Plan order: ascending partition count, monolithic first.
    assert_eq!(points[0].get("partitions").and_then(Json::as_u64), Some(1));
    assert_eq!(points[4].get("partitions").and_then(Json::as_u64), Some(16));
    let summary = body.get("summary").unwrap();
    assert_eq!(summary.get("simulations").and_then(Json::as_u64), Some(5));
    assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(0));
    // The body, byte for byte, as recorded from the last commit whose
    // `/sweep` ran on submitter threads with its own group summary (every
    // point of a cold sweep is `"served":"miss"` on both).
    assert_eq!(first.body, include_str!("data/sweep_itest_parent.json"));

    // Identical plan again: zero fresh simulations, and the same points
    // but for how they were served.
    let second = request(handle.addr(), "POST", "/sweep", Some(plan)).unwrap();
    assert_eq!(second.status, 200);
    let points_of = |body: &str| {
        let end = body
            .find("\"summary\"")
            .expect("summary follows the points");
        body[..end].replace("\"served\":\"hit\"", "\"served\":\"miss\"")
    };
    assert_eq!(points_of(&second.body), points_of(&first.body));
    let body = Json::parse(&second.body).unwrap();
    let summary = body.get("summary").unwrap();
    assert_eq!(summary.get("simulations").and_then(Json::as_u64), Some(0));
    assert_eq!(summary.get("cache_hits").and_then(Json::as_u64), Some(5));

    // Sweep metrics appear alongside the engine's, labeled by route.
    let metrics = get(&handle, "/metrics");
    assert!(metrics.body.contains("scalesim_sweep_points_total 10"));
    assert!(metrics.body.contains("scalesim_sweep_simulations_total 5"));
    assert!(metrics.body.contains("scalesim_sweep_cache_hits_total 5"));
    assert!(metrics
        .body
        .contains("scalesim_sweep_point_seconds_count 5"));

    // Bad plans fail clean.
    let bad = request(handle.addr(), "POST", "/sweep", Some(r#"{"budgets":[2]}"#)).unwrap();
    assert_eq!(bad.status, 400);
    assert!(Json::parse(&bad.body).unwrap().get("error").is_some());

    handle.stop();
}

#[test]
fn explore_route_prunes_and_reports_a_frontier() {
    let handle = start_server(2);
    let plan = r#"{
        "name": "explore-itest",
        "workloads": ["TF1"],
        "budgets": [1024],
        "aspect": "all",
        "keep_within": 15,
        "config": {"IfmapSramSz": 64, "FilterSramSz": 64, "OfmapSramSz": 32}
    }"#;

    let response = request(handle.addr(), "POST", "/explore", Some(plan)).unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    let body = Json::parse(&response.body).unwrap();
    assert_eq!(
        body.get("plan").and_then(Json::as_str),
        Some("explore-itest")
    );
    let summary = body.get("summary").unwrap();
    let candidates = summary.get("candidates").and_then(Json::as_u64).unwrap();
    let pruned = summary.get("pruned").and_then(Json::as_u64).unwrap();
    let survivors = summary.get("survivors").and_then(Json::as_u64).unwrap();
    assert!(candidates > 0);
    assert_eq!(candidates, pruned + survivors);
    assert!(summary.get("analytical_error").is_some());
    let frontiers = body.get("frontiers").and_then(Json::as_array).unwrap();
    assert_eq!(frontiers.len(), 1);
    assert!(!frontiers[0]
        .get("points")
        .and_then(Json::as_array)
        .unwrap()
        .is_empty());

    // Explore metrics are exported on /metrics alongside the engine's.
    let metrics = get(&handle, "/metrics");
    assert!(metrics.body.contains("scalesim_explore_candidates_total"));
    assert!(metrics.body.contains("scalesim_explore_frontier_size"));

    // Bad explore knobs fail clean with a 400.
    let bad = request(
        handle.addr(),
        "POST",
        "/explore",
        Some(r#"{"workloads":["TF1"],"budgets":[1024],"keep_within":-2}"#),
    )
    .unwrap();
    assert_eq!(bad.status, 400);
    assert!(Json::parse(&bad.body).unwrap().get("error").is_some());

    handle.stop();
}

#[test]
fn inline_topology_round_trips_over_http() {
    let handle = start_server(2);
    let job = r#"{
        "topology_name": "tiny",
        "topology_csv": "L1,8,8,3,3,4,8,1\nL2,8,8,1,1,8,8,1",
        "config": {"ArrayHeight": 8, "ArrayWidth": 8},
        "dataflow": "ws",
        "grid": "2x2"
    }"#;
    let response = request(handle.addr(), "POST", "/simulate", Some(job)).unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    let body = Json::parse(&response.body).unwrap();
    assert_eq!(body.get("network").and_then(Json::as_str), Some("tiny"));
    let layers = body.get("layers").and_then(Json::as_array).unwrap();
    assert_eq!(layers.len(), 2);
    assert_eq!(layers[0].get("name").and_then(Json::as_str), Some("L1"));
    handle.stop();
}
