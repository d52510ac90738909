//! `scale-sim` — the command-line front end, mirroring the original tool's
//! interface (Fig. 2 of the paper): a hardware config file plus a topology
//! CSV in, reports and optional cycle-accurate traces out.

mod signals;

use std::env;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

use scalesim::sweep::{
    summarize_groups, CsvSink, JsonLinesSink, SweepEngine, SweepOutcome, SweepPlan,
};
use scalesim::{parse_config, ExploreEngine, ExploreOptions};
use scalesim_server::engine::DEFAULT_QUEUE_DEPTH;
use scalesim_server::{
    parse_manifest, run_batch, Engine, EngineOptions, Server, ServerOptions, SimJob, Workload,
};

const USAGE: &str = "\
scale-sim — systolic-array DNN accelerator simulator (SCALE-Sim in Rust)

USAGE:
    scale-sim [run] [OPTIONS]
    scale-sim serve [--port <P>] [--host <ADDR>] [--workers <N>] [--cache <N>]
                    [--queue-depth <N>] [--max-connections <N>]
                    [--deadline-ms <MS>] [--grace-ms <MS>]
    scale-sim batch --manifest <FILE> [--jobs <N>] [--output <FILE>]
    scale-sim sweep --plan <FILE> [--jobs <N>] [--output <FILE>]
                    [--format csv|jsonl] [--dry-run]
                    [--trace-out <FILE>] [--progress]
    scale-sim explore --plan <FILE> [--budget <N|30s|1.5m>] [--keep-within <PCT>]
                      [--jobs <N>] [--output <FILE>] [--format csv|jsonl]
                      [--trace-out <FILE>] [--progress]

SUBCOMMANDS:
    run      simulate one workload (the default when no subcommand is given)
    serve    run the HTTP simulation service (POST /simulate, POST /sweep,
             POST /explore, GET /stats, GET /metrics, GET /healthz,
             GET /debug/jobs, GET /debug/trace) with a shared
             content-addressed result cache; jobs past --queue-depth shed
             with 503 + Retry-After, requests honor X-Scalesim-Deadline-Ms
             (--deadline-ms default, 504 on expiry), and SIGINT/SIGTERM
             drain in-flight work for up to --grace-ms before exiting
    batch    run a manifest of jobs through the same engine, --jobs at a
             time, and write one combined REPORT CSV
    sweep    expand a design-space plan file (workloads x MAC budgets x
             partition grids x aspect ratios x dataflows) and evaluate
             every distinct point once, in parallel (duplicates share one
             simulation); rows stream out in plan order and a best/sweet-spot
             summary per (workload, budget, dataflow) group goes to stderr;
             --dry-run prints the point count, exact dedup and per-axis
             breakdown without simulating anything
    explore  successive refinement over the same plan format: stage 0
             scores every candidate with the analytical model (generated
             lazily — million-point spaces are fine), stage 1 keeps only
             points within --keep-within percent of the per-workload
             cost/runtime frontier, stage 2 simulates survivors through
             the sweep engine under --budget (a point count, or a
             positive wall-clock limit like 30s/1.5m), refining toward
             the largest analytical-vs-measured gaps; rows carry
             predicted + measured cycles and a frontier flag, and the
             final report (frontier table, pruning counts, error stats)
             goes to stderr. With a point-count budget the output is
             byte-identical at any --jobs

OPTIONS:
    -c, --config <FILE>     hardware config file (Table I format); defaults
                            to the paper's 32x32 OS / 512+512+256 KB setup
    -t, --topology <FILE>   topology CSV (Table II format)
    -n, --network <NAME>    built-in workload instead of --topology:
                            resnet50 | resnet18 | alexnet | googlenet
                            | mobilenet_v1 | vgg16 | yolo_tiny
                            | language_models, or one Table IV layer of it:
                            GNMT0 | GNMT1 | GNMT2 | GNMT3 | DB0 | DB1
                            | TF0 | TF1 | NCF0 | NCF1
    -g, --grid <PRxPC>      scale-out partition grid (e.g. 4x2); default 1x1
    -d, --dataflow <DF>     override the dataflow: os | ws | is | auto
                            (auto: the fastest per layer)
    -b, --bandwidth <B>     DRAM bandwidth in bytes/cycle; enables the
                            finite-bandwidth stall model
        --batch <N>         batch the workload N times (lowers convs to GEMM)
    -o, --output <DIR>      write REPORT.csv (and traces) into DIR
        --traces            also write per-layer SRAM and DRAM traces
        --profile           print a per-layer wall-time/cycles table after
                            the report (from the run_layer trace spans)
        --dump-config       print the effective config and exit
        --trace-out <FILE>  record a hierarchical execution trace and write
                            it as Chrome trace-event JSON (open in Perfetto
                            or chrome://tracing); also accepted by sweep
                            and explore
        --progress          (sweep/explore) live progress on stderr:
                            points done/total, rows/s, cache hits, ETA
    -j, --jobs <N>          (sweep/explore/batch) simulating threads, and
                            serve's --workers: default one per core
    -h, --help              show this help
";

/// Reads one subcommand's command line left to right: each flag, then,
/// for a flag that takes one, its value — as text, parsed, or parsed and
/// nonzero. Every subcommand reads its argv through this.
struct Flags<'a> {
    /// The subcommand, for the unknown-argument error.
    command: &'static str,
    args: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    fn new(command: &'static str, argv: &'a [String]) -> Self {
        Flags {
            command,
            args: argv.iter(),
        }
    }

    /// The next flag, or `None` once the line is read. `-h`/`--help` is
    /// every subcommand's flag: it stops the line with the help signal,
    /// an empty error.
    fn next(&mut self) -> Result<Option<&'a str>, String> {
        match self.args.next().map(String::as_str) {
            Some("-h" | "--help") => Err(String::new()),
            arg => Ok(arg),
        }
    }

    /// The value of `flag`: the argument after it.
    fn text(&mut self, flag: &str) -> Result<&'a str, String> {
        self.args
            .next()
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value of `flag`, parsed.
    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let text = self.text(flag)?;
        text.parse()
            .map_err(|_| format!("bad value for {flag}: `{text}`"))
    }

    /// The value of `flag`, parsed and nonzero.
    fn nonzero<T: FromStr + PartialEq + From<u8>>(&mut self, flag: &str) -> Result<T, String> {
        let n: T = self.parse(flag)?;
        if n == T::from(0) {
            return Err(format!("{flag} must be nonzero"));
        }
        Ok(n)
    }

    /// The error for an argument that no flag of the subcommand matches.
    fn unknown(&self, arg: &str) -> String {
        match self.command {
            "run" => format!("unknown argument `{arg}`"),
            command => format!("unknown {command} argument `{arg}`"),
        }
    }
}

/// Default number of simulating threads (`--jobs`, `serve --workers`): one
/// per available core, or one when the core count cannot be read.
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A parsed `run` command line.
struct Args {
    /// The job: `-n`, `-g`, `-d`, `-b` and `--batch` are its fields, read
    /// by [`SimJob::set`]; the `-c` and `-t` files fill in its config and
    /// workload when they are read.
    job: SimJob,
    config: Option<PathBuf>,
    topology: Option<PathBuf>,
    output: Option<PathBuf>,
    traces: bool,
    profile: bool,
    dump_config: bool,
    trace_out: Option<PathBuf>,
}

/// Turns trace recording on when `on` (`--trace-out`, or `run --profile`,
/// which reads its table off the spans). Call before the simulated work
/// starts; pair with [`write_trace`] afterwards.
fn enable_tracing(on: bool) {
    if on {
        scalesim_telemetry::trace::install(scalesim_telemetry::trace::DEFAULT_CAPACITY);
    }
}

/// Exports the recorded trace ring as Chrome trace-event JSON.
fn write_trace(trace_out: &Option<PathBuf>) -> Result<(), String> {
    let Some(path) = trace_out else {
        return Ok(());
    };
    let file =
        fs::File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut writer = io::BufWriter::new(file);
    scalesim_telemetry::trace::export_chrome_json(&mut writer)
        .and_then(|()| io::Write::flush(&mut writer))
        .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
    eprintln!("wrote trace {}", path.display());
    Ok(())
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        job: SimJob::default(),
        config: None,
        topology: None,
        output: None,
        traces: false,
        profile: false,
        dump_config: false,
        trace_out: None,
    };
    let mut flags = Flags::new("run", argv);
    while let Some(arg) = flags.next()? {
        match arg {
            "-c" | "--config" => args.config = Some(flags.text("--config")?.into()),
            "-t" | "--topology" => args.topology = Some(flags.text("--topology")?.into()),
            "-n" | "--network" | "-g" | "--grid" | "-d" | "--dataflow" | "-b" | "--bandwidth"
            | "--batch" => {
                // Each job flag is its job field, dashed.
                let flag = match arg {
                    "-n" => "--network",
                    "-g" => "--grid",
                    "-d" => "--dataflow",
                    "-b" => "--bandwidth",
                    long => long,
                };
                args.job
                    .set(&flag[2..], flags.text(flag)?)
                    .map_err(|e| format!("{flag}: {e}"))?;
            }
            "-o" | "--output" => args.output = Some(flags.text("--output")?.into()),
            "--traces" => args.traces = true,
            "--profile" => args.profile = true,
            "--dump-config" => args.dump_config = true,
            "--trace-out" => args.trace_out = Some(flags.text("--trace-out")?.into()),
            other => return Err(flags.unknown(other)),
        }
    }
    Ok(args)
}

/// Output encoding for `scale-sim sweep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepFormat {
    Csv,
    JsonLines,
}

/// A parsed `sweep` or `explore` command line: the flags both take, then
/// each command's own (left at their defaults by the other).
#[derive(Debug)]
struct PlanArgs {
    plan: PathBuf,
    jobs: Option<usize>,
    output: Option<PathBuf>,
    format: SweepFormat,
    trace_out: Option<PathBuf>,
    progress: bool,
    /// `sweep --dry-run`.
    dry_run: bool,
    /// `explore --budget` and `--keep-within`, read by
    /// [`ExploreOptions::set`].
    explore: ExploreOptions,
}

/// Parses the arguments of `command`, which is `sweep` or `explore`.
fn parse_plan_args(command: &'static str, argv: &[String]) -> Result<PlanArgs, String> {
    let explore = command == "explore";
    let mut plan = None;
    let mut args = PlanArgs {
        plan: PathBuf::new(),
        jobs: None,
        output: None,
        format: SweepFormat::Csv,
        trace_out: None,
        progress: false,
        dry_run: false,
        explore: ExploreOptions::default(),
    };
    let mut flags = Flags::new(command, argv);
    while let Some(arg) = flags.next()? {
        match arg {
            "-p" | "--plan" => plan = Some(PathBuf::from(flags.text("--plan")?)),
            "-j" | "--jobs" => args.jobs = Some(flags.nonzero("--jobs")?),
            "-o" | "--output" => args.output = Some(flags.text("--output")?.into()),
            "--format" => {
                args.format = match flags.text("--format")? {
                    "csv" => SweepFormat::Csv,
                    "jsonl" => SweepFormat::JsonLines,
                    other => return Err(format!("format must be csv or jsonl, got `{other}`")),
                };
            }
            "--trace-out" => args.trace_out = Some(flags.text("--trace-out")?.into()),
            "--progress" => args.progress = true,
            "--dry-run" if !explore => args.dry_run = true,
            "--budget" | "--keep-within" if explore => {
                // The flag is the knob's name, dashed.
                let knob = arg[2..].replace('-', "_");
                args.explore
                    .set(&knob, flags.text(arg)?)
                    .map_err(|e| format!("{arg}: {e}"))?;
            }
            other => return Err(flags.unknown(other)),
        }
    }
    args.plan = plan.ok_or_else(|| format!("{command} requires --plan <FILE>"))?;
    Ok(args)
}

fn parse_sweep_args(argv: &[String]) -> Result<PlanArgs, String> {
    parse_plan_args("sweep", argv)
}

fn parse_explore_args(argv: &[String]) -> Result<PlanArgs, String> {
    parse_plan_args("explore", argv)
}

fn run_sweep_points<W: io::Write>(
    engine: &SweepEngine,
    plan: &SweepPlan,
    jobs: usize,
    format: SweepFormat,
    writer: W,
) -> Result<SweepOutcome, String> {
    match format {
        SweepFormat::Csv => engine.run_streaming(plan, jobs, &mut CsvSink::new(writer)),
        SweepFormat::JsonLines => engine.run_streaming(plan, jobs, &mut JsonLinesSink::new(writer)),
    }
    .map_err(|e| format!("sweep failed: {e}"))
}

/// Reads and parses a plan file; diagnostics carry the file name.
fn load_plan(path: &std::path::Path) -> Result<SweepPlan, String> {
    let text = fs::read_to_string(path)
        .map_err(|e| format!("cannot read plan {}: {e}", path.display()))?;
    SweepPlan::parse_named(&text, &path.display().to_string())
        .map_err(|e| format!("plan parse error: {e}"))
}

/// `sweep --dry-run`: the candidate space, sized but not simulated.
fn print_dry_run(plan: &SweepPlan) -> Result<(), String> {
    let space = plan
        .space_summary()
        .map_err(|e| format!("plan invalid: {e}"))?;
    println!(
        "plan `{}`: {} points = {} workloads x {} budgets x (grids x aspects) x {} dataflows",
        plan.name, space.points, space.workloads, space.budgets, space.dataflows,
    );
    println!(
        "distinct simulations after dedup: {} ({} duplicate points)",
        space.distinct_jobs,
        space.points - space.distinct_jobs,
    );
    for b in &space.per_budget {
        println!(
            "  budget {:>12}: {:>3} grids, {:>4} (grid, array) combos, {:>6} points",
            b.budget,
            b.grids,
            b.combos,
            b.combos * space.workloads * space.dataflows,
        );
    }
    Ok(())
}

fn run_sweep_cli(argv: &[String]) -> Result<(), String> {
    let args = parse_sweep_args(argv)?;
    let plan = load_plan(&args.plan)?;
    if args.dry_run {
        return print_dry_run(&plan);
    }
    let jobs = args.jobs.unwrap_or_else(default_workers);
    enable_tracing(args.trace_out.is_some());
    let engine = SweepEngine::default().with_progress(args.progress);

    let start = std::time::Instant::now();
    let outcome = match &args.output {
        Some(path) => {
            let file = fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            run_sweep_points(&engine, &plan, jobs, args.format, io::BufWriter::new(file))?
        }
        None => run_sweep_points(&engine, &plan, jobs, args.format, io::stdout().lock())?,
    };
    let wall = start.elapsed();

    eprintln!(
        "sweep `{}`: {} points ({} simulations, {} cache hits) on {} jobs in {:.2}s",
        outcome.plan_name,
        outcome.results.len(),
        outcome.simulations,
        outcome.cache_hits,
        jobs,
        wall.as_secs_f64(),
    );
    let results = &outcome.results;
    for group in summarize_groups(results.iter().map(|r| (&r.spec, &*r.report))) {
        let best = &results[group.best];
        let sweet = match group.sweet_spot.map(|i| &results[i]) {
            Some(s) => format!(
                ", sweet spot {} partitions ({} grid, {:.3} B/cycle)",
                s.spec.partitions(),
                s.spec.grid,
                s.report.peak_required_bandwidth(),
            ),
            None => String::new(),
        };
        eprintln!(
            "  {} @ {} MACs [{}]: best {} grid of {} arrays, {} effective cycles{}",
            best.spec.workload,
            best.spec.budget,
            best.spec.dataflow,
            best.spec.grid,
            best.spec.array,
            best.report.total_effective_cycles(),
            sweet,
        );
    }
    if let Some(path) = &args.output {
        eprintln!("wrote {}", path.display());
    }
    write_trace(&args.trace_out)?;
    Ok(())
}

fn run_explore_cli(argv: &[String]) -> Result<(), String> {
    let args = parse_explore_args(argv)?;
    let plan = load_plan(&args.plan)?;
    let jobs = args.jobs.unwrap_or_else(default_workers);
    enable_tracing(args.trace_out.is_some());
    let options = ExploreOptions {
        jobs,
        progress: args.progress,
        ..args.explore
    };
    let engine = ExploreEngine::default();
    let outcome = engine
        .run(&plan, &options)
        .map_err(|e| format!("explore failed: {e}"))?;

    let write = |writer: &mut dyn io::Write| match args.format {
        SweepFormat::Csv => outcome.write_csv(writer),
        SweepFormat::JsonLines => outcome.write_jsonl(writer),
    };
    match &args.output {
        Some(path) => {
            let file = fs::File::create(path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            write(&mut io::BufWriter::new(file))
                .map_err(|e| format!("explore output failed: {e}"))?;
        }
        None => {
            write(&mut io::stdout().lock()).map_err(|e| format!("explore output failed: {e}"))?;
        }
    }

    let pruned_pct = if outcome.candidates > 0 {
        100.0 * outcome.pruned as f64 / outcome.candidates as f64
    } else {
        0.0
    };
    eprintln!(
        "explore `{}`: {} candidates -> {} survivors ({} pruned, {:.1}%), \
         {} simulated ({} cache hits) on {} jobs",
        outcome.plan_name,
        outcome.candidates,
        outcome.survivors,
        outcome.pruned,
        pruned_pct,
        outcome.simulated,
        outcome.cache_hits,
        jobs,
    );
    let stage0_rate = if outcome.stage_seconds.analytical > 0.0 {
        outcome.candidates as f64 / outcome.stage_seconds.analytical
    } else {
        f64::INFINITY
    };
    eprintln!(
        "  stages: analytical {:.3}s ({:.0} candidates/s), prune {:.3}s, simulate {:.2}s",
        outcome.stage_seconds.analytical,
        stage0_rate,
        outcome.stage_seconds.prune,
        outcome.stage_seconds.simulate,
    );
    eprintln!(
        "  analytical error (measured/predicted): p50 {:.3}x, p95 {:.3}x, max {:.3}x \
         over {} simulated points",
        outcome.error_stats.p50,
        outcome.error_stats.p95,
        outcome.error_stats.max,
        outcome.error_stats.count,
    );
    for (workload, points) in outcome.frontiers() {
        eprintln!("  frontier {workload}: {} points", points.len());
        for p in points {
            eprintln!(
                "    {:>12} MACs: {} grid of {} arrays [{}], predicted {} cycles, \
                 measured {} effective cycles",
                p.spec.budget,
                p.spec.grid,
                p.spec.array,
                p.spec.dataflow,
                p.predicted,
                p.measured(),
            );
        }
    }
    if let Some(path) = &args.output {
        eprintln!("wrote {}", path.display());
    }
    write_trace(&args.trace_out)?;
    Ok(())
}

/// `scale-sim serve`: run the HTTP simulation service until `SIGINT` /
/// `SIGTERM`, then drain gracefully.
///
/// Flags: `--port <P>` (default 7878), `--host <ADDR>` (default 127.0.0.1),
/// `--workers <N>` (default: one per core), `--cache <N>` results
/// (default 256), `--queue-depth <N>` pending jobs before shedding with
/// 503 (default 256), `--max-connections <N>` concurrent connections
/// (default 256), `--deadline-ms <MS>` default per-request deadline
/// (default 120000; 0 disables), `--grace-ms <MS>` shutdown drain budget
/// (default 10000).
fn run_serve(argv: &[String]) -> Result<(), String> {
    let mut port: u16 = 7878;
    let mut host = "127.0.0.1";
    let mut workers = default_workers();
    let mut cache = 256usize;
    let mut queue_depth = DEFAULT_QUEUE_DEPTH;
    let mut max_connections = 256usize;
    let mut deadline_ms: u64 = 120_000;
    let mut grace_ms: u64 = 10_000;
    let mut flags = Flags::new("serve", argv);
    while let Some(arg) = flags.next()? {
        match arg {
            "-p" | "--port" => port = flags.parse("--port")?,
            "--host" => host = flags.text("--host")?,
            "--workers" => workers = flags.nonzero("--workers")?,
            "--cache" => cache = flags.nonzero("--cache")?,
            "--queue-depth" => queue_depth = flags.nonzero("--queue-depth")?,
            "--max-connections" => max_connections = flags.nonzero("--max-connections")?,
            "--deadline-ms" => deadline_ms = flags.parse("--deadline-ms")?,
            "--grace-ms" => grace_ms = flags.parse("--grace-ms")?,
            other => return Err(flags.unknown(other)),
        }
    }

    // The service keeps the trace ring live for its whole lifetime:
    // `GET /debug/trace` then works without any restart, and the ring is
    // bounded so always-on recording costs fixed memory.
    scalesim_telemetry::trace::install(scalesim_telemetry::trace::DEFAULT_CAPACITY);

    let engine = Engine::with_options(EngineOptions {
        workers,
        cache_capacity: cache,
        queue_depth,
    });
    let options = ServerOptions {
        max_connections,
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        ..ServerOptions::default()
    };
    let server = Server::bind_with(&format!("{host}:{port}"), engine, options)
        .map_err(|e| format!("cannot bind {host}:{port}: {e}"))?;
    eprintln!(
        "scale-sim serve: listening on http://{} ({workers} workers, {cache}-entry cache, \
         queue depth {queue_depth}, {max_connections} max connections)",
        server.local_addr()
    );
    eprintln!(
        "routes: POST /simulate, POST /sweep, POST /explore, GET /stats, GET /metrics, \
         GET /healthz, GET /debug/jobs, GET /debug/trace"
    );

    signals::install();
    let handle = server.spawn();
    while !signals::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("scale-sim serve: shutdown signal received, draining (grace {grace_ms} ms)");
    handle.engine().dump_flight_recorder("drain");
    if handle.drain(Duration::from_millis(grace_ms)) {
        eprintln!("scale-sim serve: drained cleanly, exiting");
        Ok(())
    } else {
        Err(format!(
            "drain grace period of {grace_ms} ms expired with work still in flight"
        ))
    }
}

/// `scale-sim batch`: run a manifest of jobs concurrently and emit one
/// combined REPORT CSV plus a cache summary.
///
/// Flags: `--manifest <FILE>` (required), `--jobs <N>` simulator workers
/// (default: one per core), `--output <FILE>` for the CSV (default:
/// stdout). The result cache holds the whole manifest.
fn run_batch_cli(argv: &[String]) -> Result<(), String> {
    let mut manifest_path = None;
    let mut jobs_n = default_workers();
    let mut output = None;
    let mut flags = Flags::new("batch", argv);
    while let Some(arg) = flags.next()? {
        match arg {
            "-m" | "--manifest" => manifest_path = Some(flags.text("--manifest")?),
            "-j" | "--jobs" => jobs_n = flags.nonzero("--jobs")?,
            "-o" | "--output" => output = Some(flags.text("--output")?),
            other => return Err(flags.unknown(other)),
        }
    }
    let manifest_path = manifest_path.ok_or("batch requires --manifest <FILE>")?;
    let text = fs::read_to_string(manifest_path)
        .map_err(|e| format!("cannot read manifest {manifest_path}: {e}"))?;
    let jobs = parse_manifest(&text).map_err(|e| e.to_string())?;

    let engine = Engine::new(jobs_n, jobs.len().max(16));
    let outcome = run_batch(&engine, &jobs).map_err(|e| e.to_string())?;
    engine.shutdown();

    let csv = outcome.to_csv();
    match output {
        Some(path) => {
            fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{csv}"),
    }
    eprintln!("{}", outcome.summary());
    Ok(())
}

/// How a failed invocation should be reported.
enum CliError {
    /// `--help`: print usage, exit 0.
    Help,
    /// The command line itself is wrong: one-line error plus usage.
    Usage(String),
    /// The command line was fine but execution failed (unreadable or
    /// malformed config/topology/manifest, bind failure, ...): one-line
    /// error only — no usage dump, no panic, nonzero exit.
    Runtime(String),
}

impl CliError {
    /// The error of a command line read by [`Flags`]: the help signal (an
    /// empty message, see [`Flags::next`]), else `error(msg)`.
    fn or_help(msg: String, error: fn(String) -> Self) -> Self {
        if msg.is_empty() {
            CliError::Help
        } else {
            error(msg)
        }
    }
}

fn run(argv: &[String]) -> Result<(), CliError> {
    let args = parse_args(argv).map_err(|msg| CliError::or_help(msg, CliError::Usage))?;
    run_simulation(args).map_err(CliError::Runtime)
}

fn run_simulation(args: Args) -> Result<(), String> {
    let mut job = args.job;
    if let Some(path) = &args.config {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read config {}: {e}", path.display()))?;
        job.config = parse_config(&text).map_err(|e| format!("config parse error: {e}"))?;
    }
    if args.dump_config {
        let config = job.effective_config().map_err(|e| e.to_string())?;
        print!("{}", config.to_config_string());
        return Ok(());
    }
    if let Some(path) = &args.topology {
        let csv = fs::read_to_string(path)
            .map_err(|e| format!("cannot read topology {}: {e}", path.display()))?;
        let name = path.file_stem().and_then(|s| s.to_str());
        job.workload = Workload::InlineCsv {
            name: name.unwrap_or("topology").to_owned(),
            csv,
        };
    }
    let job = job
        .finish("no workload: pass --topology <file> or --network <name>")
        .and_then(|job| job.normalize())
        .map_err(|e| e.to_string())?;
    let (topology, sim) = (&job.topology, job.simulator());

    eprintln!(
        "running {} ({} layers) on {} grid of {} arrays, dataflow {}",
        topology.name(),
        topology.len(),
        job.grid,
        job.config.array,
        match job.auto_dataflow {
            true => "auto".to_owned(),
            false => job.config.dataflow.to_string(),
        },
    );

    if let Some(dir) = &args.output {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        if args.traces {
            for layer in topology {
                let create = |suffix: &str| {
                    fs::File::create(dir.join(format!("{}_{suffix}.csv", layer.name())))
                        .map_err(|e| format!("cannot create trace file: {e}"))
                };
                sim.write_traces(layer, create("sram_read")?, create("sram_write")?)
                    .map_err(|e| format!("trace write failed for {}: {e}", layer.name()))?;
                sim.write_dram_traces(layer, create("dram_read")?, create("dram_write")?)
                    .map_err(|e| format!("dram trace failed for {}: {e}", layer.name()))?;
            }
        }
    }

    enable_tracing(args.profile || args.trace_out.is_some());
    let report = sim.run_topology(topology);
    println!("{report}");
    if args.profile {
        print!("{}", profile_table(&report)?);
    }

    if let Some(dir) = &args.output {
        let path = dir.join("REPORT.csv");
        fs::write(&path, report.to_csv())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    write_trace(&args.trace_out)?;
    Ok(())
}

/// Renders the `--profile` table: one row per layer with simulated cycles
/// and the wall-clock time of its `run_layer` trace span, taken in the
/// order the spans opened — layer order — so two layers of one name are
/// two rows.
///
/// # Errors
///
/// When the trace ring no longer holds a span for every layer (it keeps
/// the newest events only) — a table then would be wrong.
fn profile_table(report: &scalesim::NetworkReport) -> Result<String, String> {
    let mut spans = scalesim_telemetry::trace::events();
    spans.retain(|e| e.name == "run_layer");
    spans.sort_by_key(|e| e.id);
    if spans.len() != report.layers().len() {
        return Err(format!(
            "--profile: the trace ring kept {} of {} run_layer spans; no table",
            spans.len(),
            report.layers().len()
        ));
    }
    let total_wall: u64 = spans.iter().map(|e| e.dur_micros).sum();
    let name_width = report
        .layers()
        .iter()
        .map(|l| l.name.len())
        .max()
        .unwrap_or(5)
        .max("layer".len());

    let mut out = String::new();
    out.push_str("\nprofile (wall time per layer):\n");
    out.push_str(&format!(
        "{:<name_width$}  {:>14}  {:>12}  {:>6}\n",
        "layer", "cycles", "wall_micros", "wall%"
    ));
    for (layer, span) in report.layers().iter().zip(spans) {
        let wall = span.dur_micros;
        let pct = if total_wall > 0 {
            100.0 * wall as f64 / total_wall as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<name_width$}  {:>14}  {:>12}  {:>5.1}%\n",
            layer.name, layer.total_cycles, wall, pct
        ));
    }
    out.push_str(&format!(
        "{:<name_width$}  {:>14}  {:>12}  {:>6}\n",
        "total",
        report.total_cycles(),
        total_wall,
        "100.0%"
    ));
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    // Subcommand errors are always runtime-style (one line, no usage
    // dump). `run` is the explicit spelling of the default simulate path.
    let subcommand = |command: fn(&[String]) -> Result<(), String>| {
        command(&argv[1..]).map_err(|msg| CliError::or_help(msg, CliError::Runtime))
    };
    let outcome = match argv.first().map(String::as_str) {
        Some("serve") => subcommand(run_serve),
        Some("batch") => subcommand(run_batch_cli),
        Some("sweep") => subcommand(run_sweep_cli),
        Some("explore") => subcommand(run_explore_cli),
        Some("run") => run(&argv[1..]),
        _ => run(&argv),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Help) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use std::num::NonZeroU64;

    use scalesim::{Dataflow, DataflowChoice, ExploreBudget, PartitionGrid};
    use scalesim_topology::networks;

    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_full_argument_set() {
        let a = parse_args(&argv(&[
            "--config",
            "x.cfg",
            "--topology",
            "t.csv",
            "--grid",
            "4x2",
            "--output",
            "out",
            "--traces",
        ]))
        .unwrap();
        assert_eq!(a.job.grid, Some(PartitionGrid::new(4, 2)));
        assert!(a.traces);
        assert_eq!(a.config.unwrap(), PathBuf::from("x.cfg"));
    }

    #[test]
    fn parses_extended_flags() {
        let a = parse_args(&argv(&[
            "--dataflow",
            "ws",
            "--bandwidth",
            "32.5",
            "--batch",
            "8",
        ]))
        .unwrap();
        let job = a.job;
        let ws = DataflowChoice::Fixed(Dataflow::WeightStationary);
        assert_eq!(job.dataflow, Some(ws));
        assert_eq!(job.bandwidth, Some(32.5));
        assert_eq!(job.batch, NonZeroU64::new(8));
        let auto = parse_args(&argv(&["-d", "auto"])).unwrap().job;
        assert_eq!(auto.dataflow, Some(DataflowChoice::Auto));
    }

    #[test]
    fn rejects_bad_extended_flags() {
        assert!(parse_args(&argv(&["--dataflow", "rs"])).is_err());
        assert!(parse_args(&argv(&["--bandwidth", "-3"])).is_err());
        assert!(parse_args(&argv(&["--batch", "0"])).is_err());
    }

    #[test]
    fn rejects_bad_grid() {
        assert!(parse_args(&argv(&["--grid", "4"])).is_err());
        assert!(parse_args(&argv(&["--grid", "0x2"])).is_err());
        assert!(parse_args(&argv(&["--grid", "axb"])).is_err());
    }

    #[test]
    fn rejects_unknown_flag() {
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn help_is_signalled_with_empty_error() {
        assert_eq!(parse_args(&argv(&["--help"])).err(), Some(String::new()));
    }

    /// The job `-n name` reads, normalized.
    fn network_job(name: &str) -> Result<scalesim_server::NormalizedJob, String> {
        let args = parse_args(&argv(&["-n", name]))?;
        args.job.normalize().map_err(|e| e.to_string())
    }

    #[test]
    fn builtin_networks_resolve() {
        for (name, _) in networks::BUILTIN {
            assert!(network_job(name).is_ok(), "{name} should load");
        }
        assert!(network_job("vgg").is_err());
    }

    #[test]
    fn usage_names_every_builtin_network_and_layer_tag() {
        let words: Vec<&str> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .collect();
        let tags = networks::language_models();
        let names = networks::BUILTIN.iter().map(|(name, _)| *name);
        for name in names.chain(tags.iter().map(|l| l.name())) {
            assert!(words.contains(&name), "USAGE does not name `{name}`");
        }
    }

    #[test]
    fn missing_workload_is_an_error() {
        let a = parse_args(&[]).unwrap();
        let err = run_simulation(a).unwrap_err();
        assert!(err.starts_with("no workload"), "{err}");
    }

    #[test]
    fn layer_tag_workloads_resolve() {
        assert_eq!(network_job("TF0").unwrap().topology.len(), 1);
    }

    #[test]
    fn parses_sweep_arguments() {
        let a = parse_sweep_args(&argv(&[
            "--plan",
            "fig9.plan",
            "--jobs",
            "4",
            "--output",
            "out.csv",
            "--format",
            "jsonl",
            "--trace-out",
            "trace.json",
            "--progress",
        ]))
        .unwrap();
        assert_eq!(a.plan, PathBuf::from("fig9.plan"));
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.output, Some(PathBuf::from("out.csv")));
        assert_eq!(a.format, SweepFormat::JsonLines);
        assert_eq!(a.trace_out, Some(PathBuf::from("trace.json")));
        assert!(a.progress);
    }

    #[test]
    fn sweep_defaults_and_errors() {
        let a = parse_sweep_args(&argv(&["--plan", "p"])).unwrap();
        assert_eq!(a.jobs, None);
        assert_eq!(a.format, SweepFormat::Csv);
        assert_eq!(a.trace_out, None);
        assert!(!a.progress);

        assert!(parse_sweep_args(&[]).is_err(), "plan is required");
        assert!(parse_sweep_args(&argv(&["--plan", "p", "--jobs", "0"])).is_err());
        assert!(parse_sweep_args(&argv(&["--plan", "p", "--format", "xml"])).is_err());
        let err = parse_sweep_args(&argv(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown sweep argument"));
    }

    #[test]
    fn sweep_dry_run_flag_parses() {
        let a = parse_sweep_args(&argv(&["--plan", "p", "--dry-run"])).unwrap();
        assert!(a.dry_run);
        let a = parse_sweep_args(&argv(&["--plan", "p"])).unwrap();
        assert!(!a.dry_run);
    }

    #[test]
    fn parses_explore_arguments() {
        let a = parse_explore_args(&argv(&[
            "--plan",
            "fig9.plan",
            "--budget",
            "250",
            "--keep-within",
            "7.5",
            "--jobs",
            "4",
            "--output",
            "out.csv",
            "--format",
            "jsonl",
            "--trace-out",
            "trace.json",
            "--progress",
        ]))
        .unwrap();
        assert_eq!(a.plan, PathBuf::from("fig9.plan"));
        assert_eq!(a.explore.budget, ExploreBudget::Sims(250));
        assert_eq!(a.explore.keep_within_pct, 7.5);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.output, Some(PathBuf::from("out.csv")));
        assert_eq!(a.format, SweepFormat::JsonLines);
        assert_eq!(a.trace_out, Some(PathBuf::from("trace.json")));
        assert!(a.progress);
    }

    /// The values `ExploreOptions::set` accepts and refuses, in this door's
    /// spelling; the server's `/explore` request tests hold the same.
    #[test]
    fn explore_budget_tokens() {
        let flag = |flag: &str, text: &str| {
            parse_explore_args(&argv(&["--plan", "p", flag, text])).map(|a| a.explore)
        };
        let budget = |text| flag("--budget", text).map(|o| o.budget);
        assert_eq!(budget("100").unwrap(), ExploreBudget::Sims(100));
        assert_eq!(budget("0").unwrap(), ExploreBudget::Sims(0));
        assert_eq!(
            budget("30s").unwrap(),
            ExploreBudget::WallClock(Duration::from_secs(30))
        );
        assert_eq!(
            budget("5m").unwrap(),
            ExploreBudget::WallClock(Duration::from_secs(300))
        );
        assert_eq!(
            budget("1.5s").unwrap(),
            ExploreBudget::WallClock(Duration::from_millis(1500))
        );
        for (text, message) in [
            ("fast", "--budget: `fast` is not a point count"),
            ("-3", "--budget: `-3` is not a point count"),
            ("1.5", "--budget: `1.5` is not a point count"),
            ("2h", "--budget: `2h` is not a point count"),
            ("0s", "--budget: wall clock `0s` is shorter than 1 ns"),
            ("-1s", "--budget: wall clock `-1s` is shorter than 1 ns"),
            (
                "1e-12s",
                "--budget: wall clock `1e-12s` is shorter than 1 ns",
            ),
            ("1e300s", "--budget: wall clock `1e300s` is out of range"),
            // `n * 60` wrapped this to 44 s in release and panicked in debug.
            (
                "307445734561825861m",
                "--budget: wall clock `307445734561825861m` is out of range",
            ),
        ] {
            assert!(budget(text).unwrap_err().starts_with(message), "{text}");
        }

        let keep_within = |text| flag("--keep-within", text).map(|o| o.keep_within_pct);
        assert_eq!(keep_within("7.5"), Ok(7.5));
        assert_eq!(keep_within("0"), Ok(0.0));
        assert_eq!(
            keep_within("-1").unwrap_err(),
            "--keep-within: `-1` is not a nonnegative percentage"
        );
        assert!(keep_within("lots").is_err());
    }

    #[test]
    fn explore_defaults_and_errors() {
        let a = parse_explore_args(&argv(&["--plan", "p"])).unwrap();
        assert_eq!(a.explore.budget, ExploreBudget::Unlimited);
        assert_eq!(a.explore.keep_within_pct, 10.0);
        assert_eq!(a.jobs, None);
        assert_eq!(a.format, SweepFormat::Csv);
        assert_eq!(a.trace_out, None);
        assert!(!a.progress);

        assert!(parse_explore_args(&[]).is_err(), "plan is required");
        assert!(parse_explore_args(&argv(&["--plan", "p", "--keep-within", "-1"])).is_err());
        assert!(parse_explore_args(&argv(&["--plan", "p", "--keep-within", "NaN"])).is_err());
        assert!(parse_explore_args(&argv(&["--plan", "p", "--jobs", "0"])).is_err());
        assert!(parse_explore_args(&argv(&["--plan", "p", "--budget", "soon"])).is_err());
        let err = parse_explore_args(&argv(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown explore argument"));
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run_serve(&argv(&["--port", "notaport"])).is_err());
        assert!(run_serve(&argv(&["--workers", "0"])).is_err());
        assert!(run_serve(&argv(&["--frobnicate"])).is_err());
        assert!(run_serve(&argv(&["--queue-depth", "0"])).is_err());
        assert!(run_serve(&argv(&["--max-connections", "0"])).is_err());
        assert!(run_serve(&argv(&["--deadline-ms", "soon"])).is_err());
        assert!(run_serve(&argv(&["--grace-ms", "-1"])).is_err());
    }

    #[test]
    fn batch_requires_manifest() {
        let err = run_batch_cli(&argv(&["--jobs", "2"])).unwrap_err();
        assert!(err.contains("--manifest"));
        assert!(run_batch_cli(&argv(&["--manifest", "/no/such/file"])).is_err());
        assert!(run_batch_cli(&argv(&["--jobs", "0"])).is_err());
        let err = run_batch_cli(&argv(&["--retries", "3"])).unwrap_err();
        assert!(err.contains("unknown batch argument"));
    }

    #[test]
    fn batch_runs_a_manifest_end_to_end() {
        let dir = std::env::temp_dir().join("scalesim-batch-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("manifest.txt");
        let out = dir.join("report.csv");
        fs::write(
            &manifest,
            "# two identical tiny jobs\n\
             {\"topology_csv\": \"L1,8,8,3,3,4,8,1\", \"config\": {\"ArrayHeight\": 8, \"ArrayWidth\": 8}}\n\
             {\"topology_csv\": \"L1,8,8,3,3,4,8,1\", \"config\": {\"ArrayWidth\": 8, \"ArrayHeight\": 8}}\n",
        )
        .unwrap();
        run_batch_cli(&argv(&[
            "--manifest",
            manifest.to_str().unwrap(),
            "--jobs",
            "2",
            "--output",
            out.to_str().unwrap(),
        ]))
        .unwrap();
        let csv = fs::read_to_string(&out).unwrap();
        assert_eq!(csv.lines().count(), 3, "header + one row per job");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_subcommand_words_a_flag_error_the_same_way() {
        // A `run` job flag's error is `SimJob::set`'s, which names its
        // field once, after the flag.
        let job_flags: [(&[&str], &str); 6] = [
            (
                &["--batch", "0"],
                "--batch: batch `0` is not a positive integer",
            ),
            (
                &["-g", "4"],
                "--grid: grid `4` is not PRxPC with nonzero counts",
            ),
            (
                &["-d", "rs"],
                "--dataflow: bad dataflow `rs` (want os/ws/is/auto)",
            ),
            (
                &["-b", "-3"],
                "--bandwidth: parameter `DramBandwidth` must be nonzero",
            ),
            (&["--network", ""], "--network: empty `network`"),
            (
                &["-n", "TF0", "-n", "TF1"],
                "--network: job field `network` is given twice",
            ),
        ];
        for (args, message) in job_flags {
            assert_eq!(parse_args(&argv(args)).err().unwrap(), message);
        }
        assert_eq!(
            parse_sweep_args(&argv(&["--jobs", "0"])).unwrap_err(),
            "--jobs must be nonzero"
        );
        assert_eq!(
            run_batch_cli(&argv(&["--jobs", "0"])).unwrap_err(),
            "--jobs must be nonzero"
        );
        assert_eq!(
            run_serve(&argv(&["--workers", "0"])).unwrap_err(),
            "--workers must be nonzero"
        );
        assert_eq!(
            run_serve(&argv(&["--port", "notaport"])).unwrap_err(),
            "bad value for --port: `notaport`"
        );
        assert_eq!(
            parse_explore_args(&argv(&["--jobs", "two"])).unwrap_err(),
            "bad value for --jobs: `two`"
        );
        assert_eq!(
            parse_args(&argv(&["--batch"])).err().unwrap(),
            "--batch requires a value"
        );
    }
}
