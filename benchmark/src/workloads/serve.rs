//! `serve_mixed`: an in-process server driven over real TCP by `W`
//! closed-loop clients (callers of this service wait for each reply)
//! through a seeded request schedule, one block per pass: 75 % `POST
//! /simulate` of a hot set prefilled during set-up (cache hits), 15 %
//! never-seen single-layer jobs (miss, insert, eviction pressure), 5 %
//! `POST /sweep` repeats of a 5-point plan and 5 % `GET /metrics`.
//!
//! Chosen because on hits the `server` crate is the work (HTTP parse, JSON,
//! normalize, content key, LRU, single-flight) while on misses the
//! simulator is, and reads and inserts share one cache.

use std::net::SocketAddr;
use std::time::Instant;

use scalesim_server::http::client;
use scalesim_server::{Engine, EngineOptions, Json, Server, ServerHandle, SimJob};

use super::{Scale, SimOp, Tally, Verified, Workload, TRACED_OPS};
use crate::rng::Rng;

/// Result-cache capacity of the engine: sixteen times the hot set, and
/// small enough that one run's misses overflow it.
pub const ENGINE_CACHE: usize = 4096;

/// The repeated sweep: `examples/sweep_smoke.plan` in the route's JSON form.
pub const SWEEP_BODY: &str = "{\"name\":\"sweep-smoke\",\"workloads\":[\"TF1\"],\
    \"budgets\":[1024],\"config\":{\"IfmapSramSz\":64,\"FilterSramSz\":64,\"OfmapSramSz\":32}}";

/// One request of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// `POST /simulate` of hot-set job `.0`.
    Hot(usize),
    /// `POST /simulate` of the never-seen job with serial number `.0`.
    Miss(u64),
    /// `POST /sweep` of [`SWEEP_BODY`].
    Sweep,
    /// `GET /metrics`.
    Metrics,
}

/// Sizes of one schedule.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub hot_jobs: usize,
    pub block_len: usize,
}

impl Shape {
    pub fn of(scale: Scale) -> Shape {
        match scale {
            Scale::Full => Shape {
                hot_jobs: 256,
                block_len: 6000,
            },
            Scale::Tiny => Shape {
                hot_jobs: 8,
                block_len: 40,
            },
        }
    }
}

/// Block `index` of the schedule of `seed`: exact 75/15/5/5 shares in a
/// seeded order. Miss serial numbers are unique across blocks, so a miss
/// is never repeated however long the run.
pub fn block(seed: u64, index: u64, shape: Shape) -> Vec<Request> {
    let mut rng = Rng::stream(
        seed ^ index.wrapping_mul(0xA24B_AED4_963E_E407),
        "serve.block",
    );
    let len = shape.block_len;
    let (misses, sweeps, scrapes) = (len * 15 / 100, len * 5 / 100, len * 5 / 100);
    let mut requests: Vec<Request> = (0..misses)
        .map(|i| Request::Miss(index * len as u64 + i as u64))
        .chain((0..sweeps).map(|_| Request::Sweep))
        .chain((0..scrapes).map(|_| Request::Metrics))
        .collect();
    while requests.len() < len {
        requests.push(Request::Hot(rng.below(shape.hot_jobs as u64) as usize));
    }
    for i in (1..len).rev() {
        requests.swap(i, rng.below(i as u64 + 1) as usize);
    }
    requests
}

const ARRAYS: [u64; 3] = [8, 16, 32];
const DATAFLOWS: [&str; 3] = ["os", "ws", "is"];

fn job_body(name: &str, row: &str, array: u64, dataflow: &str) -> String {
    format!(
        "{{\"topology_name\":\"{name}\",\"topology_csv\":\"{row}\",\"dataflow\":\"{dataflow}\",\
         \"config\":{{\"ArrayHeight\":{array},\"ArrayWidth\":{array},\
         \"IfmapSramSz\":64,\"FilterSramSz\":64,\"OfmapSramSz\":32}}}}"
    )
}

/// The hot set: single-layer GEMM and convolution jobs over three array
/// sizes and the three dataflows, all drawn from the seed.
pub fn hot_bodies(seed: u64, count: usize) -> Vec<String> {
    let mut rng = Rng::stream(seed, "serve.hot");
    (0..count)
        .map(|i| {
            let row = if i % 4 == 3 {
                let size = rng.range(14, 30);
                let (channels, filters) = (rng.range(8, 32), rng.range(16, 64));
                format!("l0,{size},{size},3,3,{channels},{filters},1")
            } else {
                let (m, k, n) = (rng.range(64, 320), rng.range(16, 96), rng.range(64, 320));
                format!("l0,{m},{k},{n}")
            };
            let array = ARRAYS[rng.below(3) as usize];
            let dataflow = DATAFLOWS[rng.below(3) as usize];
            // The serial number keeps two jobs that draw equal shapes apart.
            job_body(&format!("hot{i}"), &row, array, dataflow)
        })
        .collect()
}

/// The never-seen job with serial number `serial`. The pair `(m, n)` walks
/// a 331 x 331 grid and `k` cycles through five values, so shapes (and with
/// them job and layer-cache keys) never repeat within 5 x 331 x 331 misses;
/// the seed only shifts the grid by a few rows, which keeps the cost of a
/// miss the same for every seed.
/// `in_process` jobs are a second such family (odd `k`) for the traced
/// replay, whose in-process path needs misses the TCP path has not cached.
pub fn miss_body(seed: u64, serial: u64, in_process: bool) -> String {
    let mut rng = Rng::stream(seed, "serve.miss");
    let (m0, n0) = (rng.range(48, 63), rng.range(48, 63));
    let m = m0 + serial % 331;
    let n = n0 + (serial / 331) % 331;
    let k = 24 + (serial % 5) * 4 + u64::from(in_process);
    job_body("miss", &format!("l0,{m},{k},{n}"), 16, "os")
}

/// A job body as the engine would run it.
pub fn sim_op(body: &str) -> SimOp {
    let job = Json::parse(body)
        .map_err(|e| e.to_string())
        .and_then(|json| SimJob::from_json(&json).map_err(|e| e.to_string()))
        .and_then(|job| job.normalize().map_err(|e| e.to_string()))
        .unwrap_or_else(|e| panic!("generated job `{body}` is invalid: {e}"));
    SimOp {
        config: job.config,
        grid: job.grid,
        auto_dataflow: job.auto_dataflow,
        layer: job.topology.layers()[0].clone(),
    }
}

/// The values of every `"key":<value>` in `body`, in order: what a reply
/// must repeat when its cache markers are allowed to differ.
pub fn field_values<'a>(body: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\":");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            &rest[..rest.find([',', '}']).unwrap_or(rest.len())]
        })
        .collect()
}

/// A `/simulate` reply without the host time of its simulation, the one
/// field that differs between two runs of the same job.
pub fn strip_wall_time(body: &str) -> String {
    match Json::parse(body) {
        Ok(Json::Obj(mut pairs)) => {
            pairs.retain(|(key, _)| key != "sim_wall_micros");
            Json::Obj(pairs).to_string()
        }
        _ => body.to_owned(),
    }
}

/// A bound server and what set-up learned from it.
pub struct Serve {
    handle: Option<ServerHandle>,
    engine: Engine,
    pub addr: SocketAddr,
    seed: u64,
    clients: usize,
    shape: Shape,
    pub hot: Vec<String>,
    /// The reply each hot job got when it was prefilled.
    hot_replies: Vec<String>,
    /// `effective_cycles` of every point of the prefilled sweep.
    sweep_cycles: Vec<String>,
    next_block: u64,
}

fn post(addr: SocketAddr, path: &str, body: &str) -> Result<String, String> {
    match client::request(addr, "POST", path, Some(body)) {
        Ok(reply) if reply.status == 200 => Ok(reply.body),
        Ok(reply) => Err(format!("{path}: status {}: {}", reply.status, reply.body)),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

impl Serve {
    /// Sends `request` and checks the reply. Returns the latency from send
    /// to full body in milliseconds and whether the reply was right.
    pub fn send(&self, request: Request) -> (f64, bool) {
        let miss;
        let (method, path, body) = match request {
            Request::Hot(i) => ("POST", "/simulate", Some(self.hot[i].as_str())),
            Request::Miss(serial) => {
                miss = miss_body(self.seed, serial, false);
                ("POST", "/simulate", Some(miss.as_str()))
            }
            Request::Sweep => ("POST", "/sweep", Some(SWEEP_BODY)),
            Request::Metrics => ("GET", "/metrics", None),
        };
        let started = Instant::now();
        let reply = client::request(self.addr, method, path, body);
        let latency_ms = started.elapsed().as_secs_f64() * 1e3;
        let ok = match reply {
            Ok(reply) if reply.status == 200 => match request {
                Request::Hot(i) => reply.body == self.hot_replies[i],
                Request::Miss(_) => reply.body.contains("\"total_cycles\":"),
                Request::Sweep => {
                    field_values(&reply.body, "effective_cycles") == self.sweep_cycles
                }
                Request::Metrics => reply.body.contains("scalesim_requests_total"),
            },
            _ => false,
        };
        (latency_ms, ok)
    }

    /// Runs one block with `self.clients` closed-loop client threads;
    /// client `c` takes requests `c, c + clients, ...` of the block.
    fn run_block(&self, requests: &[Request], latencies_ms: &mut Vec<f64>) -> Tally {
        let clients = self.clients;
        let per_client: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(requests.len() / clients + 1);
                        let mut failed = 0;
                        for &request in requests.iter().skip(c).step_by(clients) {
                            let (latency_ms, ok) = self.send(request);
                            latencies.push(latency_ms);
                            failed += u64::from(!ok);
                        }
                        (latencies, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let mut tally = Tally {
            attempted: requests.len() as u64,
            failed: 0,
        };
        for (latencies, failed) in per_client {
            latencies_ms.extend(latencies);
            tally.failed += failed;
        }
        tally
    }

    /// The next block of the schedule; no block is handed out twice.
    pub fn next_block(&mut self) -> Vec<Request> {
        let requests = block(self.seed, self.next_block, self.shape);
        self.next_block += 1;
        requests
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
        self.engine.shutdown();
    }
}

impl Workload for Serve {
    const NAME: &'static str = "serve_mixed";
    const OP: &'static str = "request";

    fn setup(seed: u64, jobs: usize, scale: Scale) -> Serve {
        let shape = Shape::of(scale);
        // An earlier set-up in this process simulated the same jobs; their
        // layer results must not turn this one's simulations into lookups.
        scalesim::layer_cache::clear();
        let engine = Engine::with_options(EngineOptions {
            workers: jobs,
            cache_capacity: ENGINE_CACHE,
            ..EngineOptions::default()
        });
        let handle = Server::bind("127.0.0.1:0", engine.clone())
            .expect("bind an ephemeral loopback port")
            .spawn();
        let addr = handle.addr();
        let hot = hot_bodies(seed, shape.hot_jobs);
        // Prefill: each hot job's second reply comes from the cache and is
        // the byte string every later hit must repeat.
        let hot_replies = hot
            .iter()
            .map(|body| {
                post(addr, "/simulate", body)
                    .and_then(|_| post(addr, "/simulate", body))
                    .unwrap_or_else(|e| panic!("prefill failed: {e}"))
            })
            .collect();
        let sweep =
            post(addr, "/sweep", SWEEP_BODY).unwrap_or_else(|e| panic!("prefill failed: {e}"));
        let sweep_cycles = field_values(&sweep, "effective_cycles")
            .into_iter()
            .map(str::to_owned)
            .collect();
        let mut serve = Serve {
            handle: Some(handle),
            engine,
            addr,
            seed,
            clients: jobs,
            shape,
            hot,
            hot_replies,
            sweep_cycles,
            next_block: 0,
        };
        let warm_up = serve.next_block();
        serve.run_block(&warm_up, &mut Vec::new());
        serve
    }

    fn pass(&mut self, latencies_ms: &mut Vec<f64>) -> Tally {
        let requests = self.next_block();
        self.run_block(&requests, latencies_ms)
    }

    fn verify(&mut self) -> Verified {
        // Every hot job once more, serially, after all the eviction
        // pressure of the run: still a hit and still the same bytes.
        let mut tally = Tally::default();
        for i in 0..self.hot.len() {
            let (_, ok) = self.send(Request::Hot(i));
            tally.add(Tally::all_or_nothing(1, ok));
        }
        // In-process, without the cache: the analytical bound.
        for body in &self.hot {
            let op = sim_op(body);
            let mut sim = scalesim::Simulator::new(op.config).with_grid(op.grid);
            if op.auto_dataflow {
                sim = sim.with_auto_dataflow();
            }
            let ok = super::bound_holds(&op, sim.run_layer(&op.layer).effective_cycles());
            tally.add(Tally::all_or_nothing(1, ok));
        }
        let output = self
            .hot_replies
            .iter()
            .map(|reply| strip_wall_time(reply) + "\n")
            .collect();
        Verified { tally, output }
    }

    fn sim_ops(&self) -> Vec<SimOp> {
        let misses =
            block(self.seed, 0, self.shape)
                .into_iter()
                .filter_map(|request| match request {
                    Request::Miss(serial) => Some(miss_body(self.seed, serial, false)),
                    _ => None,
                });
        self.hot
            .iter()
            .cloned()
            .chain(misses)
            .take(TRACED_OPS)
            .map(|body| sim_op(&body))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule_and_jobs() {
        let shape = Shape::of(Scale::Full);
        for index in [0, 1, 19] {
            assert_eq!(block(1, index, shape), block(1, index, shape));
        }
        assert_ne!(block(1, 0, shape), block(2, 0, shape));
        assert_ne!(block(1, 0, shape), block(1, 1, shape));
        assert_eq!(hot_bodies(1, 256), hot_bodies(1, 256));
        assert_ne!(hot_bodies(1, 256), hot_bodies(2, 256));
        assert_eq!(miss_body(1, 77, false), miss_body(1, 77, false));
        assert_ne!(miss_body(1, 77, false), miss_body(1, 77, true));
    }

    #[test]
    fn schedule_shares_are_75_15_5_5_within_one_per_cent() {
        let shape = Shape::of(Scale::Full);
        let requests: Vec<Request> = (0..20).flat_map(|i| block(3, i, shape)).collect();
        let share = |pick: fn(&Request) -> bool| {
            requests.iter().filter(|r| pick(r)).count() as f64 / requests.len() as f64
        };
        assert!((share(|r| matches!(r, Request::Hot(_))) - 0.75).abs() < 0.01);
        assert!((share(|r| matches!(r, Request::Miss(_))) - 0.15).abs() < 0.01);
        assert!((share(|r| matches!(r, Request::Sweep)) - 0.05).abs() < 0.01);
        assert!((share(|r| matches!(r, Request::Metrics)) - 0.05).abs() < 0.01);
    }

    #[test]
    fn misses_never_repeat_and_never_collide_with_the_hot_set() {
        let shape = Shape::of(Scale::Full);
        let mut bodies = std::collections::HashSet::new();
        for index in 0..30 {
            for request in block(5, index, shape) {
                if let Request::Miss(serial) = request {
                    assert!(
                        bodies.insert(miss_body(5, serial, false)),
                        "miss {serial} repeats"
                    );
                    assert!(
                        bodies.insert(miss_body(5, serial, true)),
                        "miss {serial} repeats"
                    );
                }
            }
        }
        assert_eq!(bodies.len(), 2 * 30 * 900);
        assert!(hot_bodies(5, 256).iter().all(|hot| !bodies.contains(hot)));
    }

    #[test]
    fn reply_helpers_pick_and_strip_fields() {
        let body = "{\"a\":1,\"sim_wall_micros\":532,\"p\":[{\"a\":22},{\"a\":3}]}";
        assert_eq!(field_values(body, "a"), ["1", "22", "3"]);
        assert_eq!(
            strip_wall_time(body),
            "{\"a\":1,\"p\":[{\"a\":22},{\"a\":3}]}"
        );
        assert_eq!(strip_wall_time("{}"), "{}");
    }

    #[test]
    fn generated_jobs_normalize_to_one_layer() {
        for body in hot_bodies(9, 32)
            .iter()
            .chain(&[miss_body(9, 0, false), miss_body(9, 109_560, true)])
        {
            let op = sim_op(body);
            assert_eq!(op.grid.count(), 1);
            assert!(op.layer.macs() > 0);
        }
    }
}
