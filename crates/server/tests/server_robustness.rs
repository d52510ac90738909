//! Overload and shutdown behavior over real TCP sockets: queue-full
//! shedding (503 + `Retry-After`), request deadlines (504, result still
//! cached), graceful drain, slowloris/oversized-header rejection with
//! bounded memory, telemetry on the malformed-request path, the set of
//! `http-conn` threads — no spawn per request, the `max_connections` cap,
//! what `stop`/`drain` leave behind — and `/explore` and the batch runner
//! as ordinary clients of the engine: the shared cache, the flight
//! recorder, deadlines and drain. That neither starts a thread is
//! `thread_peaks.rs`, a binary of its own.
//!
//! Slow simulations are staged with the engine's deterministic
//! [`FaultPlan`] hook instead of real heavy jobs, so every test is fast
//! and non-flaky.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use scalesim_server::http::client::{request, request_with_headers};
use scalesim_server::{
    Engine, EngineOptions, FaultPlan, Json, Server, ServerHandle, ServerOptions,
};

/// Thread names are per process and the tests of this file share one: a
/// test that counts `http-conn` threads holds this for writing, every
/// other test — each starts a server — for reading.
static SERVERS: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    SERVERS.read().unwrap_or_else(PoisonError::into_inner)
}

/// The calling test is the only one running, and the threads the earlier
/// ones stopped have exited.
fn alone() -> RwLockWriteGuard<'static, ()> {
    let guard = SERVERS.write().unwrap_or_else(PoisonError::into_inner);
    wait_for_conn_threads(0);
    guard
}

/// The threads of this process whose name `counted` accepts.
fn threads(counted: impl Fn(&str) -> bool) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| counted(name.trim_end()))
        })
        .count()
}

/// The `http-conn` threads of this process.
fn conn_threads() -> usize {
    threads(|name| name == "http-conn")
}

/// A stopped server's threads exit on their own time; waits for the count.
fn wait_for_conn_threads(want: usize) {
    let patience = Instant::now() + Duration::from_secs(10);
    while conn_threads() != want {
        assert!(
            Instant::now() < patience,
            "{} http-conn threads, expected {want}",
            conn_threads()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A distinct tiny inline job: varying `IfmapSramSz` changes the job key
/// while the workload name stays `tiny` (the fault plans key on it).
fn tiny_job(n: u64) -> String {
    format!(
        r#"{{"topology_name": "tiny", "topology_csv": "L1,8,8,3,3,4,8,1",
             "config": {{"ArrayHeight": 8, "ArrayWidth": 8, "IfmapSramSz": {n}}}}}"#
    )
}

fn start(options: ServerOptions, engine_options: EngineOptions, faults: FaultPlan) -> ServerHandle {
    let engine = Engine::with_options(engine_options);
    engine.inject_faults(faults);
    Server::bind_with("127.0.0.1:0", engine, options)
        .expect("bind ephemeral port")
        .spawn()
}

/// Writes raw bytes and reads whatever comes back until EOF/timeout.
/// Malformed-request tests need this: the well-formed client can't send
/// broken framing.
fn raw_exchange(addr: std::net::SocketAddr, bytes: &[u8], patience: Duration) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(patience)).unwrap();
    let _ = stream.write_all(bytes);
    let _ = stream.flush();
    let mut response = Vec::new();
    // Reset or clean close are both acceptable ends of the exchange.
    let _ = stream.read_to_end(&mut response);
    String::from_utf8_lossy(&response).into_owned()
}

/// A burst of 4x the queue bound: the server sheds with 503 +
/// `Retry-After` instead of queueing without limit, serves what it
/// admitted, and counts the shed jobs in `/metrics`.
#[test]
fn burst_past_queue_bound_sheds_with_503() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 1,
            cache_capacity: 16,
            queue_depth: 2,
        },
        FaultPlan::new().delay("tiny", Duration::from_millis(300)),
    );

    let responses: Vec<_> = std::thread::scope(|s| {
        (0..8)
            .map(|n| {
                let addr = handle.addr();
                s.spawn(move || {
                    request(addr, "POST", "/simulate", Some(&tiny_job(n))).expect("POST completes")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect()
    });

    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed: Vec<_> = responses.iter().filter(|r| r.status == 503).collect();
    assert_eq!(ok + shed.len(), 8, "every request completed or was shed");
    assert!(ok >= 1, "the admitted jobs were served");
    assert!(!shed.is_empty(), "a 4x-queue-bound burst must shed");
    for r in &shed {
        let secs: u64 = r
            .header("retry-after")
            .expect("503 carries Retry-After")
            .parse()
            .expect("Retry-After is whole seconds");
        assert!(secs >= 1);
        let body = Json::parse(&r.body).expect("shed body is JSON");
        assert!(body
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|e| e.contains("overloaded")));
    }

    let metrics = request(handle.addr(), "GET", "/metrics", None).unwrap();
    let line = metrics
        .body
        .lines()
        .find(|l| l.starts_with("scalesim_jobs_shed_total"))
        .expect("shed counter exported");
    let count: u64 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(count as usize, shed.len());

    handle.stop();
}

/// The acceptance scenario: `X-Scalesim-Deadline-Ms: 1` on a cold
/// ResNet-50 job returns 504, the leader keeps simulating, and the same
/// job later returns 200 from the cache having simulated exactly once.
#[test]
fn expired_deadline_returns_504_and_still_caches() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 2,
            cache_capacity: 64,
            queue_depth: 64,
        },
        FaultPlan::new(),
    );
    let job = r#"{"network": "resnet50"}"#;

    let expired = request_with_headers(
        handle.addr(),
        "POST",
        "/simulate",
        Some(job),
        &[("X-Scalesim-Deadline-Ms", "1")],
    )
    .unwrap();
    assert_eq!(expired.status, 504, "body: {}", expired.body);
    assert!(expired.body.contains("deadline expired"));

    // No deadline header: the server default (120 s) applies; the request
    // joins the still-running leader or hits the cache — never re-runs.
    let served = request(handle.addr(), "POST", "/simulate", Some(job)).unwrap();
    assert_eq!(served.status, 200, "body: {}", served.body);
    let tag = served.header("X-Scalesim-Cache").expect("cache header");
    assert!(tag == "joined" || tag == "hit", "got {tag}");

    let stats = request(handle.addr(), "GET", "/stats", None).unwrap();
    let stats = Json::parse(&stats.body).unwrap();
    assert_eq!(stats.get("simulations").and_then(Json::as_u64), Some(1));
    assert_eq!(
        stats.get("deadline_expired").and_then(Json::as_u64),
        Some(1)
    );

    // A malformed deadline header never reaches the engine.
    let bad = request_with_headers(
        handle.addr(),
        "POST",
        "/simulate",
        Some(job),
        &[("X-Scalesim-Deadline-Ms", "soonish")],
    )
    .unwrap();
    assert_eq!(bad.status, 400);
    assert!(bad.body.contains("X-Scalesim-Deadline-Ms"));

    handle.stop();
}

/// The five-point TF1 plan the sweep tests post; the fault plans key on
/// its workload name.
const TF1_PLAN: &str = r#"{"name": "robust", "workloads": ["TF1"], "budgets": [1024],
    "config": {"IfmapSramSz": 64, "FilterSramSz": 64, "OfmapSramSz": 32}}"#;

/// `/sweep` obeys `X-Scalesim-Deadline-Ms` like `/simulate`: 504 at the
/// deadline, the points it had submitted by then finish and land in the
/// cache, and its flight-recorder entries carry the request's id.
#[test]
fn sweep_past_its_deadline_returns_504_and_its_leaders_still_cache() {
    let _shared = shared();
    let engine = Engine::with_options(EngineOptions {
        workers: 1,
        cache_capacity: 64,
        queue_depth: 64,
    });
    engine.inject_faults(FaultPlan::new().delay("TF1", Duration::from_millis(300)));
    let handle = Server::bind("127.0.0.1:0", engine.clone())
        .expect("bind ephemeral port")
        .spawn();

    let expired = request_with_headers(
        handle.addr(),
        "POST",
        "/sweep",
        Some(TF1_PLAN),
        &[
            ("X-Scalesim-Deadline-Ms", "100"),
            ("X-Scalesim-Request-Id", "sweep-504"),
        ],
    )
    .unwrap();
    assert_eq!(expired.status, 504, "body: {}", expired.body);
    assert!(expired.body.contains("deadline expired"));

    // One worker: the sweep had two points out (2 x workers) when it
    // expired. Both still simulate; nothing else was submitted.
    let patience = Instant::now() + Duration::from_secs(30);
    while !engine.is_idle() {
        assert!(Instant::now() < patience, "the leaders never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(engine.stats().simulations.get(), 2);
    let jobs = engine.recent_jobs();
    let outcomes: Vec<&str> = jobs.iter().map(|j| j.outcome).collect();
    assert_eq!(outcomes, ["deadline", "fresh", "fresh"]);
    assert!(jobs
        .iter()
        .all(|j| j.route == "/sweep" && j.request_id == "sweep-504"));

    engine.inject_faults(FaultPlan::new());
    let repeat = request(handle.addr(), "POST", "/sweep", Some(TF1_PLAN)).unwrap();
    assert_eq!(repeat.status, 200, "body: {}", repeat.body);
    let body = Json::parse(&repeat.body).unwrap();
    let served: Vec<&str> = body
        .get("points")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|p| p.get("served").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(served, ["hit", "hit", "miss", "miss", "miss"]);

    handle.stop();
}

/// A plan with more points than the queue holds, on one worker: the sweep
/// keeps at most `min(2 x workers, queue_depth)` points out, so it
/// completes without shedding itself.
#[test]
fn sweep_wider_than_the_queue_never_sheds_itself() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 1,
            cache_capacity: 64,
            queue_depth: 2,
        },
        FaultPlan::new().delay("TF1", Duration::from_millis(20)),
    );
    let response = request(handle.addr(), "POST", "/sweep", Some(TF1_PLAN)).unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);
    let body = Json::parse(&response.body).unwrap();
    let summary = body.get("summary").unwrap();
    assert_eq!(summary.get("points").and_then(Json::as_u64), Some(5));
    assert_eq!(summary.get("simulations").and_then(Json::as_u64), Some(5));
    let metrics = request(handle.addr(), "GET", "/metrics", None).unwrap();
    assert!(metrics.body.contains("scalesim_jobs_shed_total 0"));
    handle.stop();
}

/// A plan that would expand past the point cap is a 400 naming the count,
/// answered before any point exists.
#[test]
fn sweep_over_the_point_cap_is_a_bad_request() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions::default(),
        FaultPlan::new(),
    );
    let budgets = vec!["1024"; 1000].join(",");
    let plan = format!(r#"{{"workloads": ["TF1"], "budgets": [{budgets}]}}"#);
    let response = request(handle.addr(), "POST", "/sweep", Some(&plan)).unwrap();
    assert_eq!(response.status, 400, "body: {}", response.body);
    assert!(response.body.contains("5000 points"), "{}", response.body);
    assert!(response.body.contains("/explore"));
    let stats = request(handle.addr(), "GET", "/stats", None).unwrap();
    let stats = Json::parse(&stats.body).unwrap();
    assert_eq!(stats.get("accepted").and_then(Json::as_u64), Some(0));
    handle.stop();
}

/// Graceful drain: the in-flight request completes 200, `/healthz` reports
/// `draining`, new jobs shed with 503 while probes still answer, and the
/// listener is closed once drained.
#[test]
fn drain_completes_in_flight_work_and_sheds_new_jobs() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 1,
            cache_capacity: 16,
            queue_depth: 8,
        },
        FaultPlan::new().delay("tiny", Duration::from_millis(600)),
    );
    let addr = handle.addr();

    let in_flight = std::thread::spawn(move || {
        request(addr, "POST", "/simulate", Some(&tiny_job(0))).expect("in-flight POST")
    });
    // Let the slow job reach the worker before draining.
    std::thread::sleep(Duration::from_millis(150));

    let drainer = std::thread::spawn(move || handle.drain(Duration::from_secs(10)));

    // While draining: probes answer and report it, new jobs shed.
    std::thread::sleep(Duration::from_millis(100));
    let health = request(addr, "GET", "/healthz", None).expect("healthz during drain");
    assert_eq!(health.status, 200);
    assert_eq!(
        Json::parse(&health.body)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("draining")
    );
    let refused = request(addr, "POST", "/simulate", Some(&tiny_job(1))).expect("shed POST");
    assert_eq!(refused.status, 503);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert!(refused.body.contains("shutting down"));

    let slow = in_flight.join().unwrap();
    assert_eq!(slow.status, 200, "in-flight work completed during drain");
    assert!(drainer.join().unwrap(), "drained within the grace period");

    // The listener is gone: new connections fail (allow a beat for the OS).
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        if request(addr, "GET", "/healthz", None).is_err() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "listener still accepting after drain"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A header block sent without a line terminator stops buffering at the
/// 16 KiB cap (bounded memory) and is rejected promptly — no reading
/// "until newline" forever.
#[test]
fn oversized_headers_without_newline_are_rejected() {
    let _shared = shared();
    let handle = start(
        ServerOptions {
            socket_timeout: Duration::from_millis(500),
            ..ServerOptions::default()
        },
        EngineOptions::default(),
        FaultPlan::new(),
    );

    let flood = vec![b'A'; 64 * 1024];
    let started = Instant::now();
    let response = raw_exchange(handle.addr(), &flood, Duration::from_secs(5));
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "rejection must not wait for more input"
    );
    // The server answers 400 (`headers too large`); a peer that floods
    // past the cap may see a reset instead of the body — either way the
    // connection is over and the server stays healthy below.
    if !response.is_empty() {
        assert!(response.starts_with("HTTP/1.1 400"), "got: {response:.60}");
    }

    let health = request(handle.addr(), "GET", "/healthz", None).unwrap();
    assert_eq!(health.status, 200, "server survived the flood");
    handle.stop();
}

/// A slowloris client that sends half a header then stalls is cut off by
/// the socket timeout, and the malformed-request path still emits the
/// request id and latency telemetry (the early-400 observability fix).
#[test]
fn stalled_and_malformed_requests_are_visible_telemetry() {
    let _shared = shared();
    let handle = start(
        ServerOptions {
            socket_timeout: Duration::from_millis(300),
            ..ServerOptions::default()
        },
        EngineOptions::default(),
        FaultPlan::new(),
    );

    // Stall mid-header: the read times out server-side and the connection
    // is torn down within the socket timeout (plus slack), not never.
    let started = Instant::now();
    let stalled = raw_exchange(
        handle.addr(),
        b"POST /simulate HTTP/1.1\r\nContent-Le",
        Duration::from_secs(5),
    );
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "stalled connection must be cut off by the socket timeout"
    );
    if !stalled.is_empty() {
        assert!(stalled.starts_with("HTTP/1.1 400"), "got: {stalled:.60}");
    }

    // A malformed request line gets the full response treatment: 400 with
    // a minted request id.
    let garbage = raw_exchange(handle.addr(), b"NONSENSE\r\n\r\n", Duration::from_secs(5));
    assert!(garbage.starts_with("HTTP/1.1 400"), "got: {garbage:.60}");
    assert!(
        garbage
            .to_ascii_lowercase()
            .contains("x-scalesim-request-id:"),
        "malformed requests still carry a request id"
    );

    // And it lands in the latency histogram under route="other".
    let metrics = request(handle.addr(), "GET", "/metrics", None).unwrap();
    let count = metrics
        .body
        .lines()
        .find(|l| l.starts_with(r#"scalesim_http_request_seconds_count{route="other"}"#))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse::<u64>().ok())
        .expect("route=other histogram exported");
    assert!(count >= 1, "malformed requests are counted");

    handle.stop();
}

/// Reads one route's `scalesim_http_request_seconds_count` value from a
/// `/metrics` body.
fn route_count(metrics: &str, route: &str) -> u64 {
    let prefix = format!(r#"scalesim_http_request_seconds_count{{route="{route}"}}"#);
    metrics
        .lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

/// Early-shed 503s and `/explore` responses go through the same access
/// telemetry as every other path: each request — shed or served — counts
/// exactly once in its route's latency histogram.
#[test]
fn shed_and_explore_responses_share_the_access_telemetry() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 1,
            cache_capacity: 16,
            queue_depth: 1,
        },
        FaultPlan::new().delay("tiny", Duration::from_millis(300)),
    );

    let responses: Vec<_> = std::thread::scope(|s| {
        (0..6)
            .map(|n| {
                let addr = handle.addr();
                s.spawn(move || {
                    request(addr, "POST", "/simulate", Some(&tiny_job(n))).expect("POST completes")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect()
    });
    let shed = responses.iter().filter(|r| r.status == 503).count();
    assert!(shed >= 1, "a 6-deep burst past queue depth 1 must shed");

    let explore_body = r#"{"name":"e","workloads":["TF1"],"budgets":[1024],
         "config":{"IfmapSramSz":64,"FilterSramSz":64,"OfmapSramSz":32}}"#;
    let explored = request(handle.addr(), "POST", "/explore", Some(explore_body)).unwrap();
    assert_eq!(explored.status, 200, "body: {}", explored.body);

    let metrics = request(handle.addr(), "GET", "/metrics", None).unwrap();
    assert_eq!(
        route_count(&metrics.body, "simulate"),
        6,
        "shed responses observe the simulate histogram like served ones"
    );
    assert_eq!(route_count(&metrics.body, "explore"), 1);

    handle.stop();
}

/// The survivors of an `/explore` are ordinary engine jobs: they count in
/// `/stats`, a repeat of the request is served from the result cache, a
/// `/simulate` of a frontier point's job is a hit, and the flight recorder
/// files them under the route and the request's id.
#[test]
fn explore_survivors_share_the_cache_and_the_flight_recorder() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 2,
            cache_capacity: 64,
            queue_depth: 64,
        },
        FaultPlan::new(),
    );
    let body = r#"{"name": "e", "workloads": ["TF1"], "budgets": [1024, 4096], "aspect": "all",
        "config": {"IfmapSramSz": 64, "FilterSramSz": 64, "OfmapSramSz": 32}}"#;
    let explore = |id: &str| {
        let response = request_with_headers(
            handle.addr(),
            "POST",
            "/explore",
            Some(body),
            &[("X-Scalesim-Request-Id", id)],
        )
        .unwrap();
        assert_eq!(response.status, 200, "body: {}", response.body);
        Json::parse(&response.body).unwrap()
    };
    let count = |response: &Json, field: &str| {
        response
            .get("summary")
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .unwrap()
    };
    let simulations = || handle.engine().stats().simulations.get();

    let first = explore("explore-1");
    let simulated = count(&first, "simulated");
    assert!(simulated > 0);
    assert_eq!(count(&first, "cache_hits"), 0);
    assert_eq!(simulations(), simulated);
    assert_eq!(handle.engine().stats().accepted.get(), simulated);

    let second = explore("explore-2");
    assert_eq!(count(&second, "simulated"), simulated);
    assert_eq!(count(&second, "cache_hits"), simulated);
    assert_eq!(simulations(), simulated, "the repeat simulated nothing");
    assert_eq!(first.get("frontiers"), second.get("frontiers"));
    assert_eq!(first.get("points"), second.get("points"));

    let point = &first.get("frontiers").and_then(Json::as_array).unwrap()[0]
        .get("points")
        .and_then(Json::as_array)
        .unwrap()[0];
    let text = |field: &str| point.get(field).and_then(Json::as_str).unwrap();
    let (height, width) = text("array").split_once('x').unwrap();
    let job = format!(
        r#"{{"network": "TF1", "grid": "{}", "dataflow": "{}",
             "config": {{"ArrayHeight": {height}, "ArrayWidth": {width},
                         "IfmapSramSz": 64, "FilterSramSz": 64, "OfmapSramSz": 32}}}}"#,
        text("grid"),
        text("dataflow"),
    );
    let simulate = request(handle.addr(), "POST", "/simulate", Some(&job)).unwrap();
    assert_eq!(simulate.status, 200, "body: {}", simulate.body);
    assert_eq!(simulate.header("X-Scalesim-Cache"), Some("hit"));
    assert_eq!(simulations(), simulated);

    let debug = request(handle.addr(), "GET", "/debug/jobs", None).unwrap();
    let debug = Json::parse(&debug.body).unwrap();
    let records = |id: &str, outcome: &str| {
        let field = |j: &Json, name: &str| j.get(name).and_then(Json::as_str).map(str::to_owned);
        debug
            .get("jobs")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter(|j| {
                field(j, "route").as_deref() == Some("/explore")
                    && field(j, "request_id").as_deref() == Some(id)
                    && field(j, "outcome").as_deref() == Some(outcome)
            })
            .count() as u64
    };
    assert_eq!(records("explore-1", "fresh"), simulated);
    assert_eq!(records("explore-2", "hit"), simulated);

    handle.stop();
}

/// `/explore` obeys `X-Scalesim-Deadline-Ms` and the drain like `/sweep`:
/// 504 at the deadline while the survivors it had submitted finish, 503
/// once the server is draining, and the drain sees those survivors.
#[test]
fn explore_obeys_the_deadline_and_the_drain() {
    let _shared = shared();
    let engine = Engine::with_options(EngineOptions {
        workers: 1,
        cache_capacity: 64,
        queue_depth: 64,
    });
    engine.inject_faults(FaultPlan::new().delay("TF1", Duration::from_millis(300)));
    let handle = Server::bind("127.0.0.1:0", engine.clone())
        .expect("bind ephemeral port")
        .spawn();
    let addr = handle.addr();

    let expired = request_with_headers(
        addr,
        "POST",
        "/explore",
        Some(TF1_PLAN),
        &[("X-Scalesim-Deadline-Ms", "100")],
    )
    .unwrap();
    assert_eq!(expired.status, 504, "body: {}", expired.body);
    assert!(expired.body.contains("deadline expired"));
    assert!(
        !engine.is_idle(),
        "the submitted survivors are still running"
    );

    let drainer = std::thread::spawn(move || handle.drain(Duration::from_secs(10)));
    let patience = Instant::now() + Duration::from_secs(5);
    loop {
        let refused = request(addr, "POST", "/explore", Some(TF1_PLAN)).expect("shed POST");
        if refused.status == 503 {
            assert!(refused.body.contains("shutting down"));
            break;
        }
        // The drain had not begun yet: this one ran into the queue.
        assert!(Instant::now() < patience, "never shed: {}", refused.body);
    }
    assert!(drainer.join().unwrap(), "drained within the grace period");
    // One worker, a window of two: both survivors simulated, no third.
    assert_eq!(engine.stats().simulations.get(), 2);
    assert!(engine.is_idle());
}

/// The flight recorder remembers recent jobs with route, request id and
/// outcome — including the 503-shed ones — and serves them over
/// `GET /debug/jobs`.
#[test]
fn debug_jobs_reports_shed_and_fresh_outcomes() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 1,
            cache_capacity: 16,
            queue_depth: 1,
        },
        FaultPlan::new().delay("tiny", Duration::from_millis(300)),
    );

    let responses: Vec<_> = std::thread::scope(|s| {
        (0..6)
            .map(|n| {
                let addr = handle.addr();
                s.spawn(move || {
                    request(addr, "POST", "/simulate", Some(&tiny_job(n))).expect("POST completes")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect()
    });
    let shed = responses.iter().filter(|r| r.status == 503).count();
    assert!(shed >= 1, "the burst must shed to exercise the recorder");

    let debug = request(handle.addr(), "GET", "/debug/jobs", None).unwrap();
    assert_eq!(debug.status, 200);
    let body = Json::parse(&debug.body).expect("debug body is JSON");
    let jobs = body.get("jobs").and_then(Json::as_array).expect("jobs[]");
    assert!(!jobs.is_empty(), "records were retained");

    let outcome_of = |j: &Json| j.get("outcome").and_then(Json::as_str).unwrap().to_owned();
    let shed_records: Vec<_> = jobs.iter().filter(|j| outcome_of(j) == "shed").collect();
    assert_eq!(shed_records.len(), shed, "every 503 left a shed record");
    for record in &shed_records {
        assert_eq!(
            record.get("route").and_then(Json::as_str),
            Some("/simulate")
        );
        let id = record.get("request_id").and_then(Json::as_str).unwrap();
        assert!(!id.is_empty(), "shed records carry the request id");
    }

    let fresh: Vec<_> = jobs.iter().filter(|j| outcome_of(j) == "fresh").collect();
    assert!(!fresh.is_empty(), "served jobs left fresh records");
    for record in &fresh {
        assert!(record.get("sim_micros").and_then(Json::as_u64).unwrap() > 0);
        let worker = record.get("worker").and_then(Json::as_str).unwrap();
        assert!(worker.starts_with("sim-worker"), "got worker `{worker}`");
    }

    handle.stop();
}

/// A worker panic (here injected, in production a simulator bug) must
/// surface to the client as a 500 with the panic payload — never a hang —
/// and leave a `failed` record in the flight recorder. The server keeps
/// serving afterwards.
#[test]
fn injected_panic_returns_500_and_a_failed_record() {
    let _shared = shared();
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 2,
            cache_capacity: 16,
            queue_depth: 8,
        },
        FaultPlan::new().panic("tiny", "injected worker panic"),
    );

    let started = Instant::now();
    let response = request(handle.addr(), "POST", "/simulate", Some(&tiny_job(0)))
        .expect("the panicking job still gets a response");
    assert_eq!(response.status, 500, "panic maps to 500: {}", response.body);
    assert!(
        response.body.contains("injected worker panic"),
        "500 body carries the panic payload: {}",
        response.body
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the panic path must answer promptly, not hang"
    );

    let debug = request(handle.addr(), "GET", "/debug/jobs", None).unwrap();
    let body = Json::parse(&debug.body).expect("debug body is JSON");
    let jobs = body.get("jobs").and_then(Json::as_array).expect("jobs[]");
    let failed = jobs
        .iter()
        .filter(|j| j.get("outcome").and_then(Json::as_str) == Some("failed"))
        .count();
    assert_eq!(failed, 1, "the panicked job left a failed record");

    // The pool survived the panic: a non-faulted workload still serves.
    let ok = request(
        handle.addr(),
        "POST",
        "/simulate",
        Some(r#"{"topology_name": "fine", "topology_csv": "L1,8,8,3,3,4,8,1"}"#),
    )
    .expect("follow-up job");
    assert_eq!(ok.status, 200, "workers keep serving after a panic");

    handle.stop();
}

fn healthz(addr: std::net::SocketAddr) {
    let health = request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
}

/// Connection threads outlive their connections: a sequential client is
/// served by the two threads its first request left — one inside the
/// connection, one more so that somebody is in `accept()` meanwhile — and
/// no request after that costs a thread.
#[test]
fn sequential_requests_spawn_no_thread_after_warm_up() {
    let _alone = alone();
    let handle = start(
        ServerOptions::default(),
        EngineOptions::default(),
        FaultPlan::new(),
    );
    for _ in 0..3 {
        healthz(handle.addr());
    }
    // (A thread names itself, so the second may take a moment to show.)
    wait_for_conn_threads(2);
    for _ in 0..300 {
        healthz(handle.addr());
    }
    assert_eq!(conn_threads(), 2, "requests must not cost threads");
    handle.stop();
}

/// `max_connections = 2`: two clients that stall mid-header hold both
/// threads, so a third waits in the accept backlog until one of them runs
/// into the socket timeout; never are more than two connections (or
/// threads) in service.
#[test]
fn max_connections_caps_the_threads_and_the_rest_wait_in_the_backlog() {
    let _alone = alone();
    let socket_timeout = Duration::from_millis(800);
    let handle = start(
        ServerOptions {
            max_connections: 2,
            socket_timeout,
            ..ServerOptions::default()
        },
        EngineOptions::default(),
        FaultPlan::new(),
    );
    let addr = handle.addr();
    let active = handle.engine().registry().gauge(
        "scalesim_http_connections_active",
        "HTTP connections currently being served.",
    );

    let stalled_at = Instant::now();
    let _stalled: Vec<TcpStream> = (0..2)
        .map(|_| {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(b"POST /simulate HTTP/1.1\r\nContent-Le")
                .expect("half a request");
            stream
        })
        .collect();
    let patience = Instant::now() + Duration::from_secs(5);
    while active.get() < 2 {
        assert!(Instant::now() < patience, "the stalled pair was not taken");
        std::thread::yield_now();
    }
    assert_eq!(conn_threads(), 2, "the set stops growing at the cap");

    let answered = AtomicBool::new(false);
    let peak = AtomicI64::new(0);
    std::thread::scope(|s| {
        s.spawn(|| {
            while !answered.load(Ordering::SeqCst) {
                peak.fetch_max(active.get(), Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        healthz(addr);
        answered.store(true, Ordering::SeqCst);
    });
    let waited = stalled_at.elapsed();
    assert!(
        waited >= socket_timeout * 9 / 10,
        "answered after {waited:?}: a third connection was served beside the stalled two"
    );
    assert!(waited < socket_timeout + Duration::from_secs(4));
    assert_eq!(peak.load(Ordering::SeqCst), 2);
    assert_eq!(conn_threads(), 2);

    handle.stop();
}

/// When `stop()` or `drain()` returns the listener is closed — a connect
/// is refused and the port can be bound again — and every thread exits:
/// those in `accept()` at once, one inside a connection after its reply.
#[test]
fn stop_and_drain_close_the_listener_and_leave_no_thread() {
    let _alone = alone();
    for graceful in [false, true] {
        let handle = start(
            ServerOptions::default(),
            EngineOptions::default(),
            FaultPlan::new().delay("tiny", Duration::from_millis(400)),
        );
        let addr = handle.addr();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(move || healthz(addr));
            }
        });
        assert!(conn_threads() >= 2, "a second thread waits in accept()");

        let in_flight = std::thread::spawn(move || {
            request(addr, "POST", "/simulate", Some(&tiny_job(0))).expect("in-flight POST")
        });
        let patience = Instant::now() + Duration::from_secs(5);
        while handle.engine().is_idle() {
            assert!(Instant::now() < patience, "the slow job never started");
            std::thread::yield_now();
        }
        if graceful {
            assert!(handle.drain(Duration::from_secs(10)));
        } else {
            handle.stop();
        }

        let refused = TcpStream::connect(addr).expect_err("the listener is closed");
        assert_eq!(refused.kind(), std::io::ErrorKind::ConnectionRefused);
        let successor = Server::bind(&addr.to_string(), Engine::new(1, 4))
            .expect("the port can be bound again");
        // A hard stop left the connection to finish by itself.
        assert_eq!(in_flight.join().unwrap().status, 200);
        wait_for_conn_threads(0);

        let successor = successor.spawn();
        healthz(addr);
        successor.stop();
        wait_for_conn_threads(0);
    }
}
