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
/// move as `/simulate` requests complete, cache and simulator series
/// appear, and request ids are generated or echoed — all without
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
    // Global simulator registry: the cold layer this test simulated, and
    // nothing keyed by its name.
    assert!(text.contains("# TYPE scalesim_layer_cache_misses_total counter"));
    assert!(text.contains("# TYPE scalesim_demand_elements_total counter"));
    assert!(!text.contains("M1"), "no series names a layer:\n{text}");

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
    assert!(!metrics.body.contains("scalesim_sweep_point_seconds"));

    // Bad plans fail clean.
    let bad = request(handle.addr(), "POST", "/sweep", Some(r#"{"budgets":[2]}"#)).unwrap();
    assert_eq!(bad.status, 400);
    assert!(Json::parse(&bad.body).unwrap().get("error").is_some());

    // So does a grid of 2^64 + 2 partitions, whose count used to wrap to 2,
    // on both routes that take a grid.
    let overflow = "9223372036854775809x2";
    for (route, body) in [
        (
            "/sweep",
            format!(r#"{{"workloads":["TF1"],"budgets":[1024],"grids":["{overflow}"]}}"#),
        ),
        (
            "/simulate",
            format!(r#"{{"network":"TF1","grid":"{overflow}"}}"#),
        ),
    ] {
        let bad = request(handle.addr(), "POST", route, Some(&body)).unwrap();
        assert_eq!(bad.status, 400, "{route}: {}", bad.body);
        assert!(bad.body.contains(overflow), "{route}: {}", bad.body);
    }

    // An empty grid list used to run a 0-point sweep or explore and answer
    // 200; on both plan routes it is a 400 naming the list.
    for route in ["/sweep", "/explore"] {
        let body = r#"{"workloads":["TF1"],"budgets":[1024],"grids":[]}"#;
        let bad = request(handle.addr(), "POST", route, Some(body)).unwrap();
        assert_eq!(bad.status, 400, "{route}: {}", bad.body);
        assert!(
            bad.body.contains("grid list is empty"),
            "{route}: {}",
            bad.body
        );
    }

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

/// A `budget_seconds` past what a `Duration` holds is a 400 naming the
/// field: 1e300 passed the old `is_finite() && > 0` filter and panicked
/// the connection thread, which closed the connection with no reply.
#[test]
fn a_huge_explore_wall_clock_is_a_400_naming_the_field() {
    let handle = start_server(1);
    for seconds in ["1e300", "18446744073709551660"] {
        let body =
            format!(r#"{{"workloads":["TF1"],"budgets":[1024],"budget_seconds":{seconds}}}"#);
        let response = request(handle.addr(), "POST", "/explore", Some(&body)).unwrap();
        assert_eq!(response.status, 400, "body: {}", response.body);
        let error = Json::parse(&response.body).unwrap();
        let message = error.get("error").and_then(Json::as_str).unwrap();
        assert!(
            message.starts_with("`budget_seconds`: wall clock"),
            "{message}"
        );
        assert!(message.ends_with("is out of range"), "{message}");
    }
    // The connection threads survived: the server still answers.
    assert_eq!(get(&handle, "/healthz").status, 200);
    handle.stop();
}

/// A `config` of 2^62-byte words goes through the `parse_config` a config
/// file does: every DRAM byte count saturates, where it wrapped to 0.
#[test]
fn a_huge_word_size_saturates_the_dram_bytes() {
    let handle = start_server(1);
    let job = r#"{"network": "TF0",
                  "config": {"ArrayHeight": 32, "ArrayWidth": 32,
                             "WordBytes": 4611686018427387904}}"#;
    let response = request(handle.addr(), "POST", "/simulate", Some(job)).unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    let body = Json::parse(&response.body).unwrap();
    let layers = body.get("layers").and_then(Json::as_array).unwrap();
    for bytes in [body.get("total_dram_bytes"), layers[0].get("dram_bytes")] {
        assert_eq!(
            bytes.and_then(Json::as_u64),
            Some(u64::MAX),
            "{}",
            response.body
        );
    }
    handle.stop();
}

/// A `config` whose `ArrayHeight x ArrayWidth` overflows a u64 is a 400
/// naming the array, where it panicked a worker or simulated a wrapped
/// array.
#[test]
fn an_array_whose_pe_count_overflows_is_a_bad_request() {
    let handle = start_server(1);
    for rows in ["4294967296", "4294967297"] {
        let job = format!(
            r#"{{"network": "TF1",
                 "config": {{"ArrayHeight": {rows}, "ArrayWidth": 4294967296}}}}"#
        );
        let response = request(handle.addr(), "POST", "/simulate", Some(&job)).unwrap();
        assert_eq!(response.status, 400, "body: {}", response.body);
        let error = Json::parse(&response.body).unwrap();
        let error = error
            .get("error")
            .and_then(Json::as_str)
            .unwrap()
            .to_owned();
        assert!(
            error.contains(&format!("array of {rows} x 4294967296 PEs")),
            "{error}"
        );
    }
    handle.stop();
}

/// An `IfmapOffset` 616 addresses short of 2^64 puts the IFMAP region
/// across the end of the address space. Layers are simulated at offset
/// zero, so the report is that of offset 0 — all but the job key, which
/// names the config, and the wall time — where the wrapped runs dropped
/// 40 of the 9,216 DRAM bytes.
#[test]
fn an_ifmap_offset_near_the_top_of_the_address_space_drops_no_reads() {
    let handle = start_server(1);
    let body = |offset: &str| {
        let job = format!(
            r#"{{"topology_name": "g", "topology_csv": "G1,64,40,64",
                 "config": {{"ArrayHeight": 8, "ArrayWidth": 8, "IfmapSramSz": 512,
                            "FilterSramSz": 512, "OfmapSramSz": 512,
                            "IfmapOffset": {offset}}}}}"#
        );
        let response = request(handle.addr(), "POST", "/simulate", Some(&job)).unwrap();
        assert_eq!(response.status, 200, "body: {}", response.body);
        match Json::parse(&response.body).unwrap() {
            Json::Obj(fields) => fields
                .into_iter()
                .filter(|(name, _)| name != "key" && name != "sim_wall_micros")
                .collect::<Vec<_>>(),
            other => panic!("not an object: {other:?}"),
        }
    };
    let at_zero = body("0");
    let total = at_zero.iter().find(|(name, _)| name == "total_dram_bytes");
    assert_eq!(total.and_then(|(_, bytes)| bytes.as_u64()), Some(9216));
    assert_eq!(body("18446744073709551000"), at_zero);
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

/// Plans whose axes overflow a u64 — `min_dim` squared, or the partition
/// count doubled past budget `2^63` — panicked the connection handler,
/// which closed the connection unanswered. Both routes answer 400.
#[test]
fn plan_axes_that_overflow_a_u64_are_bad_requests() {
    let handle = start_server(1);
    for (axes, key) in [
        (r#""budgets": [1024], "min_dim": 4294967296"#, "min_dim"),
        (r#""budgets": ["2^63"], "min_dim": 1"#, "budget"),
    ] {
        for route in ["/sweep", "/explore"] {
            let plan = format!(r#"{{"workloads": ["TF1"], {axes}}}"#);
            let response = request(handle.addr(), "POST", route, Some(&plan)).unwrap();
            assert_eq!(response.status, 400, "{route}: {}", response.body);
            assert!(response.body.contains(key), "{route}: {}", response.body);
        }
    }
    assert_eq!(stats_field(&handle, "accepted"), 0);
    handle.stop();
}

/// 32 x 2^63 x 32 wrapped to 0 MACs and answered 200; with a batch, the
/// check covers `M × batch × K × N`, not only `M × batch`. Both are 400s
/// naming what overflowed.
#[test]
fn a_layer_whose_mac_count_overflows_is_a_bad_request() {
    let handle = start_server(1);
    let body = r#"{"topology_csv": "Big,32,9223372036854775808,32"}"#;
    let response = request(handle.addr(), "POST", "/simulate", Some(body)).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response
            .body
            .contains("line 1: invalid layer: its MAC count"),
        "{}",
        response.body
    );
    // M × batch fits; times K × N it does not.
    let body = r#"{"network": "TF0", "batch": 214748364800}"#;
    let response = request(handle.addr(), "POST", "/simulate", Some(body)).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.body.contains("batch 214748364800"),
        "{}",
        response.body
    );
    assert_eq!(stats_field(&handle, "accepted"), 0);
    handle.stop();
}

/// TF0's M = 31,999 times this batch wraps to 15,483 rows: the job ran as
/// a smaller layer and answered 200. It is a 400 naming the batch.
#[test]
fn a_batch_whose_rows_overflow_is_a_bad_request() {
    let handle = start_server(1);
    let body = r#"{"network": "TF0", "batch": 576478767264901}"#;
    let response = request(handle.addr(), "POST", "/simulate", Some(body)).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(
        response.body.contains("batch 576478767264901"),
        "{}",
        response.body
    );
    assert_eq!(stats_field(&handle, "accepted"), 0);
    handle.stop();
}

/// Layers are simulated at offset zero, so jobs that differ only in a
/// region offset are one job: one key, and the second is a cache hit with
/// the first's body.
#[test]
fn jobs_that_differ_only_in_an_offset_share_one_simulation() {
    let handle = start_server(1);
    let job = |offset: u64| {
        format!(r#"{{"network": "TF1", "config": {{"IfmapSramSz": 64, "IfmapOffset": {offset}}}}}"#)
    };
    let first = request(handle.addr(), "POST", "/simulate", Some(&job(0))).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("X-Scalesim-Cache"), Some("miss"));
    let second = request(handle.addr(), "POST", "/simulate", Some(&job(123_456_789))).unwrap();
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("X-Scalesim-Cache"), Some("hit"));
    assert_eq!(second.body, first.body);
    assert_eq!(stats_field(&handle, "simulations"), 1);
    handle.stop();
}

/// A config value holding a line break once smuggled a second Table I
/// line into the text the server parsed: `ArrayHeight: "8\nArrayWidth : 4"`
/// simulated an 8x4 array with 200. Every route that takes a `config`
/// answers 400 naming the key, and nothing reaches the engine.
#[test]
fn a_smuggled_config_line_is_a_bad_request_on_every_route() {
    let handle = start_server(1);
    let plan = r#""workloads": ["TF0"], "budgets": [1024],
                  "config": {"IfmapSramSz": "64\nOfmapSramSz : 1"}"#;
    for (route, body, key) in [
        (
            "/simulate",
            r#"{"network": "TF0", "config": {"ArrayHeight": "8\nArrayWidth : 4"}}"#.to_owned(),
            "ArrayHeight",
        ),
        ("/sweep", format!("{{{plan}}}"), "IfmapSramSz"),
        ("/explore", format!("{{{plan}}}"), "IfmapSramSz"),
    ] {
        let response = request(handle.addr(), "POST", route, Some(&body)).unwrap();
        assert_eq!(response.status, 400, "{route}: {}", response.body);
        let error = Json::parse(&response.body).unwrap();
        let error = error.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains(key), "{route}: {error}");
    }
    assert_eq!(stats_field(&handle, "accepted"), 0);
    handle.stop();
}

/// The `scalesim_sweep_*` and `scalesim_explore_*` families scrape the
/// same HELP lines, in the same order, whichever of `/sweep` and
/// `/explore` a server runs first.
#[test]
fn sweep_series_scrape_the_same_whichever_route_runs_first() {
    let plan = r#"{"workloads": ["TF1"], "budgets": [1024],
                   "config": {"IfmapSramSz": 64, "FilterSramSz": 64, "OfmapSramSz": 32}}"#;
    let help_lines = |routes: [&str; 2]| {
        let handle = start_server(1);
        for route in routes {
            let response = request(handle.addr(), "POST", route, Some(plan)).unwrap();
            assert_eq!(response.status, 200, "{route}: {}", response.body);
        }
        let metrics = get(&handle, "/metrics");
        handle.stop();
        metrics
            .body
            .lines()
            .filter(|line| {
                line.starts_with("# HELP scalesim_sweep_")
                    || line.starts_with("# HELP scalesim_explore_")
            })
            .map(str::to_owned)
            .collect::<Vec<_>>()
    };
    let sweep_first = help_lines(["/sweep", "/explore"]);
    assert_eq!(sweep_first, help_lines(["/explore", "/sweep"]));
    assert!(sweep_first.contains(
        &"# HELP scalesim_sweep_simulations_total Simulations executed for sweep points."
            .to_owned()
    ));
}
