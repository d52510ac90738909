//! The server simulates on core's one worker pool: a `/simulate` job is a
//! one-job batch of (job, layer) tasks, so the layers of one many-layer
//! network spread over the engine's `sim-worker` threads — the only
//! threads that simulate — each layer inside the pool executor's
//! `exec.task` span.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

use scalesim_server::http::client::request;
use scalesim_server::{Engine, FaultPlan, Json, Server};
use scalesim_telemetry::trace;

/// The names of this process's threads that `counted` accepts.
fn threads(counted: impl Fn(&str) -> bool) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task lists this process's threads")
        .filter_map(Result::ok)
        .filter_map(|task| std::fs::read_to_string(task.path().join("comm")).ok())
        .map(|name| name.trim_end().to_owned())
        .filter(|name| counted(name))
        .collect()
}

#[test]
fn a_served_job_s_layers_spread_over_the_pool_s_two_workers() {
    trace::install(trace::DEFAULT_CAPACITY);
    trace::clear();
    let engine = Engine::new(2, 16);
    // A delay per layer task keeps the first worker busy long enough for
    // the second to wake up and take its share.
    engine.inject_faults(FaultPlan::new().delay("eight", Duration::from_millis(40)));
    let handle = Server::bind("127.0.0.1:0", engine.clone())
        .expect("bind ephemeral port")
        .spawn();
    // A spawned thread takes its name once it runs, so a worker that has
    // not been scheduled yet still carries the process's name: look again
    // until both have named themselves, or for at most five seconds.
    let mut workers = Vec::new();
    for _ in 0..500 {
        workers = threads(|name| name.starts_with("sim-worker"));
        if workers.len() >= 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    workers.sort();
    assert_eq!(workers, ["sim-worker-0", "sim-worker-1"]);

    let layers: Vec<String> = (0..8)
        .map(|i| format!("E{i},8,8,3,3,4,{},1", 8 + i))
        .collect();
    let job = format!(
        r#"{{"topology_name": "eight", "topology_csv": "{}"}}"#,
        layers.join("\\n")
    );
    let response = request(handle.addr(), "POST", "/simulate", Some(&job)).unwrap();
    assert_eq!(response.status, 200, "body: {}", response.body);

    let exported = request(handle.addr(), "GET", "/debug/trace", None).unwrap();
    let exported = Json::parse(&exported.body).expect("the trace is JSON");
    let events = exported
        .get("traceEvents")
        .and_then(Json::as_array)
        .unwrap();
    let text = |e: &Json, path: &[&str]| {
        path.iter()
            .try_fold(e, |e, key| e.get(key))
            .and_then(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .or_else(|| v.as_u64().map(|n| n.to_string()))
            })
            .unwrap_or_default()
    };
    let thread_names: HashMap<String, String> = events
        .iter()
        .filter(|e| text(e, &["ph"]) == "M")
        .map(|e| (text(e, &["tid"]), text(e, &["args", "name"])))
        .collect();
    let spans: HashMap<String, String> = events
        .iter()
        .filter(|e| text(e, &["ph"]) == "X")
        .map(|e| (text(e, &["args", "id"]), text(e, &["name"])))
        .collect();
    let run_layers: Vec<&Json> = events
        .iter()
        .filter(|e| {
            text(e, &["name"]) == "run_layer" && text(e, &["args", "layer"]).starts_with('E')
        })
        .collect();
    assert_eq!(run_layers.len(), 8, "one run_layer span per layer");
    for span in &run_layers {
        let parent = text(span, &["args", "parent"]);
        assert_eq!(spans.get(&parent).map(String::as_str), Some("exec.task"));
    }
    let ran_on: HashSet<&str> = run_layers
        .iter()
        .map(|span| thread_names[&text(span, &["tid"])].as_str())
        .collect();
    assert_eq!(ran_on, HashSet::from(["sim-worker-0", "sim-worker-1"]));

    handle.stop();
    engine.shutdown();
}
