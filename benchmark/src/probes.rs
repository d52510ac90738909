//! Per-layer probes on fixed or seeded inputs of their own. Every traced
//! run takes them, whatever its workload: they price the parts a workload's
//! replay does not reach (kernels, caches, the executor, the HTTP front, the
//! telemetry primitives, the CLI), always through public functions.

use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use scalesim::exec::Executor;
use scalesim::sweep::{CsvSink, SweepOutcome, SweepSink};
use scalesim::{
    layer_cache, telemetry_names, EnergyModel, PartitionGrid, SimConfig, Simulator, SweepEngine,
    SweepPlan,
};
use scalesim_memory::{AddrRuns, ReuseProfile, RunBuffer, StallModel};
use scalesim_server::http::client;
use scalesim_server::{Engine, Json, Server, SimJob};
use scalesim_systolic::pe_grid::{self, Matrix};
use scalesim_systolic::{analyze, ArrayShape};
use scalesim_telemetry::trace as ring;
use scalesim_topology::{
    networks, parse_topology_csv, topology_to_csv, Dataflow, GemmShape, Layer,
};

use crate::rng::Rng;
use crate::stats::median;
use crate::sys;
use crate::trace::Recorder;
use crate::workloads::serve::{self, Request, Serve};
use crate::workloads::{explore, fig9, Scale, Workload};

/// `(metric name, value)` pairs; names are those of `metrics::PER_LAYER`.
pub type Values = Vec<(&'static str, f64)>;

fn seconds(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// Nanoseconds per iteration of `body` over `iters` iterations.
fn ns_per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    seconds(|| (0..iters).for_each(&mut body)) * 1e9 / iters as f64
}

/// The kernel tier of `BENCH_sweep.json`, on the same synthetic stream
/// (runs of 16-64 elements over a bounded window with periodic revisits).
fn kernels() -> Values {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let window = 1u64 << 16;
    let mut stream = AddrRuns::with_capacity(4096);
    for i in 0..4096u64 {
        let start = if i % 5 == 4 {
            next() % window
        } else {
            (i * 48) % window
        };
        stream.push(start, 16 + next() % 48);
    }
    let per_run = |kernel: &mut dyn FnMut() -> u64| {
        ns_per_iter(64, |_| {
            black_box(kernel());
        }) / stream.run_count() as f64
    };
    vec![
        (
            "memory.run_merge_ns_per_run",
            per_run(&mut || {
                let mut acc = AddrRuns::new();
                acc.extend_runs(&stream);
                acc.element_count()
            }),
        ),
        (
            "memory.buffer_epoch_ns_per_run",
            per_run(&mut || RunBuffer::new(window / 2).epoch(&stream).misses),
        ),
        (
            "memory.reuse_profile_ns_per_run",
            per_run(&mut || ReuseProfile::from_runs(&stream).total_accesses()),
        ),
    ]
}

/// Small loops over single calls that are too short to time one by one.
fn primitives() -> Values {
    let energy = EnergyModel::default();
    let evaluate = ns_per_iter(2_000_000, |i| {
        black_box(energy.evaluate(black_box(i), i + 7, 3 * i, i / 2));
    });
    let mut stall = StallModel::new(16.0);
    let stall_fold = ns_per_iter(2_000_000, |i| {
        stall.fold(black_box(64 + i % 7), 200 + i % 31, 64)
    });
    black_box(stall.finish());

    let config = SimConfig::default();
    let grid = PartitionGrid::monolithic();
    let layer = Layer::gemm("probe", 977, 61, 1013);
    let key_ns = ns_per_iter(20_000, |_| {
        black_box(layer_cache::key(black_box(&config), grid, &energy, &layer));
    });
    // A hit as `run_layer` takes it: key, lookup, clone, rename, telemetry.
    let sim = Simulator::new(config);
    sim.run_layer(&layer);
    let hit_ns = ns_per_iter(20_000, |_| {
        black_box(sim.run_layer(&layer));
    });

    let csv = topology_to_csv(&networks::resnet50());
    let layers = networks::resnet50().len() as f64;
    let parse_us = ns_per_iter(200, |_| {
        black_box(parse_topology_csv("resnet50", &csv).expect("the built-in network parses"));
    }) / 1e3
        / layers;

    vec![
        ("energy.evaluate_ns_per_call", evaluate),
        ("memory.stall_ns_per_fold", stall_fold),
        ("core.layer_cache_key_ns", key_ns),
        ("core.layer_cache_hit_ns", hit_ns),
        ("topology.parse_us_per_layer", parse_us),
    ]
}

/// Accuracy of the closed-form cycle count against the register-level
/// golden model, on sixteen seeded GEMMs the test suite never saw, under
/// each dataflow: mean absolute error in per cent. Simulated, so exact.
fn golden_model(seed: u64) -> Values {
    let mut rng = Rng::stream(seed, "probe.pe_grid");
    let mut errors = Vec::new();
    for _ in 0..16 {
        let (m, k, n) = (rng.range(2, 28), rng.range(2, 28), rng.range(2, 28));
        let array = ArrayShape::new(rng.range(2, 9), rng.range(2, 9));
        let a = Matrix::from_fn(m as usize, k as usize, |i, j| (i * 3 + j) as i64 % 11 - 5);
        let b = Matrix::from_fn(k as usize, n as usize, |i, j| (i + j * 5) as i64 % 7 - 3);
        for dataflow in [
            Dataflow::OutputStationary,
            Dataflow::WeightStationary,
            Dataflow::InputStationary,
        ] {
            let golden = pe_grid::run(&a, &b, array, dataflow).cycles as f64;
            let model = analyze(&GemmShape::new(m, k, n).project(dataflow), array).total_cycles;
            errors.push((model as f64 - golden).abs() / golden * 100.0);
        }
    }
    vec![(
        "systolic.pe_grid_cycle_err_pct",
        errors.iter().sum::<f64>() / errors.len() as f64,
    )]
}

fn counter(name: &str) -> u64 {
    scalesim_telemetry::global()
        .counter_value(name, &[])
        .unwrap_or(0)
}

/// One cold exploration of the seeded 100k-candidate plan: the analytical
/// stages, the stage times against the call's wall time, and how often
/// `auto` and the fixed dataflows shared a layer result.
fn exploration(seed: u64, jobs: usize) -> Values {
    let plan = explore::plan(seed, Scale::Full);
    let expand_s = seconds(|| {
        black_box(plan.expand().expect("the plan expands"));
    });
    let (hits, misses) = (
        counter(telemetry_names::LAYER_CACHE_HITS),
        counter(telemetry_names::LAYER_CACHE_MISSES),
    );
    let started = Instant::now();
    let outcome = explore::cold_explore(&plan, &explore::options(jobs));
    let wall_s = started.elapsed().as_secs_f64();
    let hits = counter(telemetry_names::LAYER_CACHE_HITS) - hits;
    let misses = counter(telemetry_names::LAYER_CACHE_MISSES) - misses;
    let stages = outcome.stage_seconds;
    let candidates = outcome.candidates as f64;
    vec![
        ("core.plan_expand_us_per_point", expand_s * 1e6 / candidates),
        (
            "analytical.predict_ns_per_candidate",
            stages.analytical * 1e9 / candidates,
        ),
        (
            "analytical.prune_ns_per_candidate",
            stages.prune * 1e9 / candidates,
        ),
        (
            "analytical.survivor_share",
            outcome.survivors as f64 / candidates,
        ),
        ("analytical.bound_gap_p50", outcome.error_stats.p50),
        ("core.explore_stage0_s", stages.analytical),
        ("core.explore_stage1_s", stages.prune),
        ("core.explore_stage2_s", stages.simulate),
        (
            "core.reconcile_explore_ratio",
            (stages.analytical + stages.prune + stages.simulate) / wall_s,
        ),
        (
            "core.layer_cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
    ]
}

/// Samples this process's thread count every millisecond while `f` runs.
fn peak_threads_during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = sys::thread_count().max(peak);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak
        });
        let result = f();
        done.store(true, Ordering::Relaxed);
        // The sampler itself is not the program's thread.
        let peak = sampler.join().expect("the sampler does not panic") - 1;
        (result, peak)
    })
}

fn timed_sweep(engine: &SweepEngine, plan: &SweepPlan, jobs: usize) -> (SweepOutcome, f64) {
    let started = Instant::now();
    let outcome = engine.run(plan, jobs).expect("the sweep runs");
    (outcome, started.elapsed().as_secs_f64())
}

fn cold_sweep_s(plan: &SweepPlan, jobs: usize) -> f64 {
    seconds(|| {
        fig9::cold_sweep(plan, jobs, &mut CsvSink::new(std::io::sink()));
    })
}

/// The Fig. 9 plan through every cache tier and at 1 and `jobs` workers,
/// with the program's trace ring off and on. Returns the metrics and the
/// cold wall time at `jobs` workers, which the CLI probe compares against.
fn sweep_tiers(jobs: usize) -> (Values, f64) {
    let plan = fig9::load_plan();
    ring::install(ring::DEFAULT_CAPACITY);
    let mut cold_s = [Vec::new(), Vec::new()];
    let mut last = None;
    for round in 0..2 {
        for on in [false, true] {
            ring::set_enabled(on);
            layer_cache::clear();
            let engine = SweepEngine::new(1024);
            let ((outcome, wall_s), peak) =
                peak_threads_during(|| timed_sweep(&engine, &plan, jobs));
            cold_s[usize::from(on)].push(wall_s);
            if !on && round == 1 {
                last = Some((engine, outcome, wall_s, peak));
            }
        }
    }
    ring::set_enabled(false);
    ring::clear();
    let (engine, cold, cold_wall_s, peak_threads) = last.expect("two rounds ran");
    let points = cold.results.len() as f64;
    let (off_s, on_s) = (median(&cold_s[0]), median(&cold_s[1]));

    // Layer-warm: a fresh engine over the layer results the cold run left.
    let (_, layer_warm_s) = timed_sweep(&SweepEngine::new(1024), &plan, jobs);
    // Point-warm: the engine that ran cold answers from its own cache.
    let (_, point_warm_s) = timed_sweep(&engine, &plan, jobs);
    let serial_s = cold_sweep_s(&plan, 1);

    let busy = &cold.exec.worker_busy;
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let point_s = cold.point_latencies_micros.iter().sum::<u64>() as f64 / 1e6;
    let mut sink = CsvSink::new(Vec::with_capacity(1 << 16));
    let sink_ns = ns_per_iter(200, |_| {
        for result in &cold.results {
            sink.point(&result.spec, &result.report)
                .expect("writing to memory cannot fail");
        }
    });
    let speedup = serial_s / off_s;
    let values = vec![
        (
            "telemetry.trace_on_overhead_pct",
            (on_s - off_s) / off_s * 100.0,
        ),
        ("core.layer_warm_us_per_point", layer_warm_s * 1e6 / points),
        ("core.point_warm_us_per_point", point_warm_s * 1e6 / points),
        ("core.sink_us_per_row", sink_ns / 1e3 / points),
        ("core.exec_speedup", speedup),
        ("core.exec_efficiency", speedup / jobs as f64),
        ("core.exec_steals", cold.exec.steals as f64),
        (
            "core.exec_worker_busy_min",
            busy.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("core.peak_threads", peak_threads as f64),
        (
            "core.reconcile_sweep_ratio",
            point_s / (cold_wall_s * busy.len() as f64 * mean_busy),
        ),
    ];
    (values, off_s)
}

/// The executor on no-op tasks and on a plan whose points differ in cost by
/// orders of magnitude, and one network on a 1x1 and a 4x4 grid.
fn executor_and_partitions(jobs: usize) -> Values {
    const TASKS: usize = 200_000;
    let exec = Executor::new(TASKS, jobs);
    let empty_s = seconds(|| {
        std::thread::scope(|scope| {
            for worker in 0..exec.workers() {
                let exec = &exec;
                scope.spawn(move || {
                    exec.run_worker(
                        worker,
                        |t| {
                            black_box(t);
                        },
                        |_| String::new(),
                    )
                });
            }
        });
    });

    let path = sys::repo_root().join("examples").join("sweep_hetero.plan");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let hetero = SweepPlan::parse_named(&text, "sweep_hetero.plan").expect("the plan parses");
    let hetero_speedup = cold_sweep_s(&hetero, 1) / cold_sweep_s(&hetero, jobs);

    let resnet = networks::resnet50();
    let network_ms = |grid: PartitionGrid| {
        layer_cache::clear();
        let sim = Simulator::new(SimConfig::default()).with_grid(grid);
        seconds(|| {
            black_box(sim.run_topology(&resnet));
        }) * 1e3
    };
    vec![
        ("core.exec_ns_per_empty_task", empty_s * 1e9 / TASKS as f64),
        ("core.exec_hetero_efficiency", hetero_speedup / jobs as f64),
        (
            "core.partition_1x1_ms",
            network_ms(PartitionGrid::monolithic()),
        ),
        (
            "core.partition_4x4_ms",
            network_ms(PartitionGrid::new(4, 4)),
        ),
    ]
}

/// Requests of the serve schedule replayed one at a time: the TCP round
/// trip, and beside it the same job through the calls the route makes.
const SERVE_REQUESTS: usize = 3000;

/// First span op id of the serve replay, clear of the layer replay's.
const SERVE_OP_BASE: u64 = 1_000_000;

/// Runs `f` under a span and also keeps its duration in `into`.
fn timed<R>(
    rec: &mut Recorder,
    name: &'static str,
    op: u64,
    into: &mut Vec<f64>,
    f: impl FnOnce() -> R,
) -> R {
    let started = Instant::now();
    let result = rec.span(name, op, |_| f());
    into.push(started.elapsed().as_secs_f64());
    result
}

fn microseconds(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples) * 1e6
    }
}

fn server(seed: u64, jobs: usize, rec: &mut Recorder) -> Values {
    let mut serve = Serve::setup(seed, jobs, Scale::Full);
    let stats = serve.engine().stats().clone();
    let before = (
        stats.cache_hits(),
        stats.completed.get(),
        stats.shed.get(),
        stats.accepted.get(),
    );
    let (mut http_hit, mut sweep, mut scrape) = (Vec::new(), Vec::new(), Vec::new());
    let (mut parse, mut normalize_key, mut engine_hit, mut engine_miss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let requests: Vec<Request> = std::iter::repeat_with(|| serve.next_block())
        .flatten()
        .take(SERVE_REQUESTS)
        .collect();
    for (op, &request) in requests.iter().enumerate() {
        let op = SERVE_OP_BASE + op as u64;
        let mut latency_s = 0.0;
        rec.span("server.http_request", op, |_| {
            latency_s = serve.send(request).0 / 1e3;
        });
        let body = match request {
            Request::Hot(i) => {
                http_hit.push(latency_s);
                serve.hot[i].clone()
            }
            // The TCP request above has cached its job, so the in-process
            // path gets a never-seen job of its own.
            Request::Miss(serial) => serve::miss_body(seed, serial, true),
            Request::Sweep => {
                sweep.push(latency_s);
                continue;
            }
            Request::Metrics => {
                scrape.push(latency_s);
                continue;
            }
        };
        rec.span("server.in_process", op, |rec| {
            let json = timed(rec, "server.json_parse", op, &mut parse, || {
                Json::parse(&body).expect("a generated job is valid JSON")
            });
            let (_, job) = timed(rec, "server.normalize_key", op, &mut normalize_key, || {
                let job = SimJob::from_json(&json)
                    .and_then(|job| job.normalize())
                    .expect("a generated job normalizes");
                (black_box(job.key()), job)
            });
            let into = match request {
                Request::Hot(_) => &mut engine_hit,
                _ => &mut engine_miss,
            };
            timed(rec, "server.engine_run", op, into, || {
                assert!(serve.engine().run_normalized(job).is_ok(), "the job fails");
            });
        });
    }
    let healthz: Vec<f64> = (0..200)
        .map(|_| {
            seconds(|| {
                black_box(client::request(serve.addr, "GET", "/healthz", None).is_ok());
            })
        })
        .collect();
    let delta = |now: u64, then: u64| (now - then) as f64;
    let completed = delta(stats.completed.get(), before.1).max(1.0);
    let accepted = delta(stats.accepted.get(), before.3).max(1.0);
    let hit_ratio = delta(stats.cache_hits(), before.0) / completed;
    let shed_share = delta(stats.shed.get(), before.2) / accepted;
    drop(serve);

    // A cold sweep through the route and through the library.
    let plan = Json::parse(serve::SWEEP_BODY)
        .map_err(|e| e.to_string())
        .and_then(|json| scalesim_server::sweep::parse_sweep_plan(&json).map_err(|e| e.to_string()))
        .expect("the sweep body parses");
    let library_s = cold_sweep_s(&plan, jobs);
    layer_cache::clear();
    let engine = Engine::new(jobs, serve::ENGINE_CACHE);
    let handle = Server::bind("127.0.0.1:0", engine.clone())
        .expect("bind an ephemeral loopback port")
        .spawn();
    let route_s = seconds(|| {
        let reply = client::request(handle.addr(), "POST", "/sweep", Some(serve::SWEEP_BODY));
        assert!(reply.is_ok_and(|r| r.status == 200), "the cold sweep fails");
    });
    handle.stop();
    engine.shutdown();

    vec![
        ("server.json_parse_us", microseconds(&parse)),
        ("server.normalize_key_us", microseconds(&normalize_key)),
        ("server.engine_hit_us", microseconds(&engine_hit)),
        ("server.engine_miss_us", microseconds(&engine_miss)),
        ("server.http_hit_us", microseconds(&http_hit)),
        (
            "server.http_overhead_us",
            microseconds(&http_hit) - microseconds(&engine_hit),
        ),
        ("server.healthz_us", microseconds(&healthz)),
        ("server.sweep_repeat_us", microseconds(&sweep)),
        ("server.metrics_scrape_us", microseconds(&scrape)),
        ("server.sweep_route_vs_engine_ratio", route_s / library_s),
        ("server.hit_ratio", hit_ratio),
        ("server.shed_share", shed_share),
    ]
}

/// The program's own telemetry primitives. Runs last: it fills the trace
/// ring and the global registry with probe entries.
fn telemetry() -> Values {
    let registry = scalesim_telemetry::global();
    let counter = registry.counter("benchmark_probe_total", "Benchmark probe counter.");
    let counter_ns = ns_per_iter(10_000_000, |_| counter.inc());
    let render_us = ns_per_iter(50, |_| {
        black_box(registry.render());
    }) / 1e3;
    ring::set_enabled(false);
    let span_off_ns = ns_per_iter(5_000_000, |_| drop(ring::span("benchmark.probe")));
    ring::set_enabled(true);
    let span_on_ns = ns_per_iter(500_000, |_| drop(ring::span("benchmark.probe")));
    ring::set_enabled(false);
    ring::clear();
    vec![
        ("telemetry.counter_inc_ns", counter_ns),
        ("telemetry.render_us", render_us),
        ("telemetry.span_off_ns", span_off_ns),
        ("telemetry.span_on_ns", span_on_ns),
        (
            "telemetry.trace_events_dropped",
            ring::events_dropped() as f64,
        ),
    ]
}

fn spawn_s(binary: &Path, args: &[&str]) -> f64 {
    seconds(|| {
        let status = Command::new(binary)
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status();
        assert!(
            status.is_ok_and(|s| s.success()),
            "{} {args:?} fails",
            binary.display()
        );
    })
}

/// The `scale-sim` binary from outside: process start on a one-layer
/// topology, and what the CLI adds to the Fig. 9 sweep over the library call.
fn cli(binary: &Path, jobs: usize, library_sweep_s: f64) -> Values {
    let out = sys::bench_dir().join("out");
    std::fs::create_dir_all(&out).expect("create benchmark/out");
    let topology = out.join("probe_topology.csv");
    std::fs::File::create(&topology)
        .and_then(|mut f| f.write_all(b"probe,64,16,64\n"))
        .expect("write the probe topology");
    let topology = topology.to_string_lossy();
    let startup: Vec<f64> = (0..20)
        .map(|_| spawn_s(binary, &["run", "--topology", &topology]))
        .collect();
    let plan = fig9::plan_path();
    let csv = out.join("cli_sweep.csv");
    let sweep: Vec<f64> = (0..3)
        .map(|_| {
            spawn_s(
                binary,
                &[
                    "sweep",
                    "--plan",
                    &plan.to_string_lossy(),
                    "--jobs",
                    &jobs.to_string(),
                    "--output",
                    &csv.to_string_lossy(),
                ],
            )
        })
        .collect();
    vec![
        ("cli.startup_ms", median(&startup) * 1e3),
        (
            "cli.sweep_overhead_ms",
            (median(&sweep) - library_sweep_s) * 1e3,
        ),
    ]
}

/// Every probe. `rec` receives the spans of the serve replay.
pub fn all(seed: u64, jobs: usize, cli_binary: &Path, rec: &mut Recorder) -> Values {
    let mut values = kernels();
    values.extend(primitives());
    values.extend(golden_model(seed));
    values.extend(exploration(seed, jobs));
    let (tiers, library_sweep_s) = sweep_tiers(jobs);
    values.extend(tiers);
    values.extend(executor_and_partitions(jobs));
    values.extend(server(seed, jobs, rec));
    values.extend(cli(cli_binary, jobs, library_sweep_s));
    values.extend(telemetry());
    values
}
