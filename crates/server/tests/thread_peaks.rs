//! `/explore` and the batch runner start no thread: the process has no
//! more threads while they run than before. The count is of every thread
//! of the process, so both scenarios run in turn in the one test of a
//! binary of their own. The test harness starts a thread for each test,
//! and a count taken while it started another saw that thread (`new:
//! ["debug_jobs_repo"]` in a shared binary, `new: ["explore_starts_"]`
//! with two tests here; a thread's name keeps 15 bytes).
//!
//! Slow simulations are staged with the engine's deterministic
//! [`FaultPlan`] hook instead of real heavy jobs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use scalesim_server::http::client::request;
use scalesim_server::{
    run_batch, Engine, EngineOptions, FaultPlan, Json, Server, ServerHandle, ServerOptions, SimJob,
};

/// The threads of this process, as `(tid, name)`.
fn tasks() -> Vec<(String, String)> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(Result::ok)
        .filter_map(|task| {
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let tid = task.file_name().to_string_lossy().into_owned();
            Some((tid, name.trim_end().to_owned()))
        })
        .collect()
}

/// The `http-conn` threads of this process.
fn conn_threads() -> usize {
    tasks()
        .iter()
        .filter(|(_, name)| name == "http-conn")
        .count()
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

/// Runs `work` beside a thread that keeps counting this process's
/// threads, whatever their names: the count before `work` (that thread
/// included), the highest seen during it, the names of the threads at that
/// highest count that were not there before, and what `work` returned.
fn peak_threads_during<R>(work: impl FnOnce() -> R) -> (usize, usize, Vec<String>, R) {
    let done = AtomicBool::new(false);
    let peak = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        s.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                let now = tasks();
                let mut peak = peak.lock().unwrap_or_else(PoisonError::into_inner);
                if now.len() > peak.len() {
                    *peak = now;
                }
                drop(peak);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let before = tasks();
        let result = work();
        done.store(true, Ordering::SeqCst);
        let peak = std::mem::take(&mut *peak.lock().unwrap_or_else(PoisonError::into_inner));
        // By tid: a thread names itself once it runs, so one started
        // just before `work` may have carried its parent's name then.
        let appeared = peak
            .iter()
            .filter(|(tid, _)| before.iter().all(|(old, _)| old != tid))
            .map(|(_, name)| name.clone())
            .collect();
        (before.len(), peak.len(), appeared, result)
    })
}

fn start(options: ServerOptions, engine_options: EngineOptions, faults: FaultPlan) -> ServerHandle {
    let engine = Engine::with_options(engine_options);
    engine.inject_faults(faults);
    Server::bind_with("127.0.0.1:0", engine, options)
        .expect("bind ephemeral port")
        .spawn()
}

fn healthz(addr: std::net::SocketAddr) {
    let health = request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
}

/// A distinct tiny inline job: varying `IfmapSramSz` changes the job key
/// while the workload name stays `tiny` (the fault plan keys on it).
fn tiny_job(n: u64) -> String {
    format!(
        r#"{{"topology_name": "tiny", "topology_csv": "L1,8,8,3,3,4,8,1",
             "config": {{"ArrayHeight": 8, "ArrayWidth": 8, "IfmapSramSz": {n}}}}}"#
    )
}

/// An exploration of AlexNet: eight layers a point, so a per-request
/// pool of (point, layer) workers would have plenty to start threads for.
const ALEXNET_EXPLORE: &str = r#"{"name": "robust-explore", "workloads": ["alexnet"],
    "budgets": [1024, 4096], "aspect": "all", "keep_within": 1000, "budget": 12,
    "config": {"IfmapSramSz": 64, "FilterSramSz": 64, "OfmapSramSz": 32}}"#;

/// `/explore` simulates on the engine's workers: on a one-worker server
/// the process has no more threads during the request than before it, the
/// warmed-up pair of connection threads included.
fn explore_starts_no_thread() {
    let handle = start(
        ServerOptions::default(),
        EngineOptions {
            workers: 1,
            ..EngineOptions::default()
        },
        FaultPlan::new().delay("alexnet", Duration::from_millis(10)),
    );
    for _ in 0..3 {
        healthz(handle.addr());
    }
    wait_for_conn_threads(2);

    let (before, peak, appeared, explored) = peak_threads_during(|| {
        request(handle.addr(), "POST", "/explore", Some(ALEXNET_EXPLORE)).unwrap()
    });
    assert_eq!(explored.status, 200, "body: {}", explored.body);
    let summary = Json::parse(&explored.body).unwrap();
    let simulated = summary
        .get("summary")
        .and_then(|s| s.get("simulated"))
        .and_then(Json::as_u64);
    assert_eq!(simulated, Some(12));
    assert!(
        peak <= before,
        "{peak} threads during the /explore, {before} before it; new: {appeared:?}"
    );
    assert_eq!(conn_threads(), 2);
    handle.stop();
}

/// A manifest of twelve distinct slow jobs on one worker behind a one-deep
/// queue: the submit window keeps the batch from shedding itself (what
/// its retries used to paper over), and the calling thread is the only
/// submitter there is.
fn batch_longer_than_the_queue_neither_sheds_nor_starts_a_thread() {
    let engine = Engine::with_options(EngineOptions {
        workers: 1,
        cache_capacity: 16,
        queue_depth: 1,
    });
    engine.inject_faults(FaultPlan::new().delay("tiny", Duration::from_millis(5)));
    let jobs: Vec<SimJob> = (1..=12)
        .map(|n| SimJob::from_json(&Json::parse(&tiny_job(n)).unwrap()).unwrap())
        .collect();

    let (before, peak, appeared, outcome) = peak_threads_during(|| run_batch(&engine, &jobs));
    let outcome = outcome.expect("the batch completes");
    assert_eq!(outcome.entries.len(), 12);
    assert_eq!(outcome.simulations, 12);
    assert_eq!(engine.stats().shed.get(), 0);
    assert!(
        peak <= before,
        "{peak} threads during the batch, {before} before it; new: {appeared:?}"
    );
    engine.shutdown();
}

#[test]
fn explore_and_batch_start_no_thread() {
    explore_starts_no_thread();
    // The stopped server's connection threads exit on their own time.
    wait_for_conn_threads(0);
    batch_longer_than_the_queue_neither_sheds_nor_starts_a_thread();
}
