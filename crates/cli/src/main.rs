//! `scale-sim` — the command-line front end, mirroring the original tool's
//! interface (Fig. 2 of the paper): a hardware config file plus a topology
//! CSV in, reports and optional cycle-accurate traces out.

use std::env;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::process::ExitCode;

use scalesim::sweep::{CsvSink, JsonLinesSink, SweepEngine, SweepOutcome, SweepPlan};
use scalesim::{
    parse_config, Dataflow, ExploreBudget, ExploreEngine, ExploreOptions, PartitionGrid, SimConfig,
    Simulator,
};
use scalesim_topology::{networks, parse_topology_csv, Topology};

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
    scale-sim explore --plan <FILE> [--budget <N|30s|5m>] [--keep-within <PCT>]
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
             every point in parallel through a content-addressed result
             cache; rows stream out in plan order and a best/sweet-spot
             summary per (workload, budget, dataflow) group goes to stderr;
             --dry-run prints the point count, exact dedup and per-axis
             breakdown without simulating anything
    explore  successive refinement over the same plan format: stage 0
             scores every candidate with the analytical model (generated
             lazily — million-point spaces are fine), stage 1 keeps only
             points within --keep-within percent of the per-workload
             cost/runtime frontier, stage 2 simulates survivors through
             the sweep engine under --budget (a point count, or a
             wall-clock limit like 30s/5m), refining toward the largest
             analytical-vs-measured gaps; rows carry predicted + measured
             cycles and a frontier flag, and the final report (frontier
             table, pruning counts, error stats) goes to stderr. With a
             point-count budget the output is byte-identical at any --jobs

OPTIONS:
    -c, --config <FILE>     hardware config file (Table I format); defaults
                            to the paper's 32x32 OS / 512+512+256 KB setup
    -t, --topology <FILE>   topology CSV (Table II format)
    -n, --network <NAME>    built-in workload instead of --topology:
                            resnet50 | alexnet | yolo_tiny | language_models
                            | a Table IV layer tag (TF0, GNMT2, NCF1, ...)
    -g, --grid <PRxPC>      scale-out partition grid (e.g. 4x2); default 1x1
    -d, --dataflow <DF>     override the dataflow: os | ws | is
    -b, --bandwidth <B>     DRAM bandwidth in bytes/cycle; enables the
                            finite-bandwidth stall model
        --batch <N>         batch the workload N times (lowers convs to GEMM)
    -o, --output <DIR>      write REPORT.csv (and traces) into DIR
        --traces            also write per-layer SRAM and DRAM traces
        --profile           print a per-layer wall-time/cycles table after
                            the report (from the telemetry registry)
        --dump-config       print the effective config and exit
        --trace-out <FILE>  record a hierarchical execution trace and write
                            it as Chrome trace-event JSON (open in Perfetto
                            or chrome://tracing); also accepted by sweep
                            and explore
        --progress          (sweep/explore) live progress on stderr:
                            points done/total, rows/s, cache hits, ETA
    -h, --help              show this help
";

struct Args {
    config: Option<PathBuf>,
    topology: Option<PathBuf>,
    network: Option<String>,
    grid: PartitionGrid,
    dataflow: Option<Dataflow>,
    bandwidth: Option<f64>,
    batch: Option<u64>,
    output: Option<PathBuf>,
    traces: bool,
    profile: bool,
    dump_config: bool,
    trace_out: Option<PathBuf>,
}

/// Turns trace recording on when `--trace-out` was given. Call before the
/// simulated work starts; pair with [`write_trace`] afterwards.
fn enable_tracing(trace_out: &Option<PathBuf>) {
    if trace_out.is_some() {
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
        config: None,
        topology: None,
        network: None,
        grid: PartitionGrid::monolithic(),
        dataflow: None,
        bandwidth: None,
        batch: None,
        output: None,
        traces: false,
        profile: false,
        dump_config: false,
        trace_out: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "-c" | "--config" => args.config = Some(PathBuf::from(value("--config")?)),
            "-t" | "--topology" => args.topology = Some(PathBuf::from(value("--topology")?)),
            "-n" | "--network" => args.network = Some(value("--network")?),
            "-g" | "--grid" => {
                args.grid = value("--grid")?
                    .parse()
                    .map_err(|e| format!("--grid: {e}"))?;
            }
            "-d" | "--dataflow" => {
                let text = value("--dataflow")?;
                args.dataflow = Some(
                    text.parse()
                        .map_err(|_| format!("dataflow must be os/ws/is, got `{text}`"))?,
                );
            }
            "-b" | "--bandwidth" => {
                let text = value("--bandwidth")?;
                let bw: f64 = text
                    .parse()
                    .map_err(|_| format!("bad bandwidth `{text}`"))?;
                if !(bw.is_finite() && bw > 0.0) {
                    return Err("bandwidth must be positive".into());
                }
                args.bandwidth = Some(bw);
            }
            "--batch" => {
                let text = value("--batch")?;
                let n: u64 = text.parse().map_err(|_| format!("bad batch `{text}`"))?;
                if n == 0 {
                    return Err("batch must be nonzero".into());
                }
                args.batch = Some(n);
            }
            "-o" | "--output" => args.output = Some(PathBuf::from(value("--output")?)),
            "--traces" => args.traces = true,
            "--profile" => args.profile = true,
            "--dump-config" => args.dump_config = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn load_topology(args: &Args) -> Result<Topology, String> {
    if let Some(path) = &args.topology {
        let text = fs::read_to_string(path)
            .map_err(|e| format!("cannot read topology {}: {e}", path.display()))?;
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("topology")
            .to_owned();
        return parse_topology_csv(&name, &text).map_err(|e| format!("topology parse error: {e}"));
    }
    match args.network.as_deref() {
        Some(name) => networks::by_name(name).ok_or_else(|| {
            format!(
                "unknown built-in workload `{name}` (try resnet50, resnet18, alexnet, \
                 googlenet, mobilenet_v1, vgg16, yolo_tiny, language_models, or a \
                 Table IV layer tag like TF0)"
            )
        }),
        None => Err("no workload: pass --topology <file> or --network <name>".into()),
    }
}

/// Output encoding for `scale-sim sweep`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SweepFormat {
    Csv,
    JsonLines,
}

/// Result-cache entries of the engine `sweep` and `explore` build for
/// their one plan. A plan's duplicate points are merged before the cache
/// is probed, so no size changes an output or a hit count.
const RESULT_CACHE: usize = 1024;

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
    /// `explore --budget`.
    budget: ExploreBudget,
    /// `explore --keep-within`, percent.
    keep_within: f64,
}

/// `--budget` grammar: a bare integer is a simulation count; an `s`/`m`
/// suffix is a wall-clock limit.
fn parse_explore_budget(text: &str) -> Result<ExploreBudget, String> {
    let bad = || format!("bad budget `{text}` (want a point count, or 30s / 5m wall-clock)");
    if let Some(secs) = text.strip_suffix('s') {
        let n: u64 = secs.parse().map_err(|_| bad())?;
        Ok(ExploreBudget::WallClock(std::time::Duration::from_secs(n)))
    } else if let Some(mins) = text.strip_suffix('m') {
        let n: u64 = mins.parse().map_err(|_| bad())?;
        Ok(ExploreBudget::WallClock(std::time::Duration::from_secs(
            n * 60,
        )))
    } else {
        let n: usize = text.parse().map_err(|_| bad())?;
        Ok(ExploreBudget::Sims(n))
    }
}

/// Parses the arguments of `command`, which is `sweep` or `explore`.
fn parse_plan_args(command: &str, argv: &[String]) -> Result<PlanArgs, String> {
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
        budget: ExploreBudget::Unlimited,
        keep_within: 10.0,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "-p" | "--plan" => plan = Some(PathBuf::from(value("--plan")?)),
            "-j" | "--jobs" => {
                let text = value("--jobs")?;
                let n: usize = text.parse().map_err(|_| format!("bad jobs `{text}`"))?;
                if n == 0 {
                    return Err("jobs must be nonzero".into());
                }
                args.jobs = Some(n);
            }
            "-o" | "--output" => args.output = Some(PathBuf::from(value("--output")?)),
            "--format" => {
                let text = value("--format")?;
                args.format = match text.as_str() {
                    "csv" => SweepFormat::Csv,
                    "jsonl" => SweepFormat::JsonLines,
                    other => return Err(format!("format must be csv or jsonl, got `{other}`")),
                };
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--progress" => args.progress = true,
            "--dry-run" if !explore => args.dry_run = true,
            "--budget" if explore => args.budget = parse_explore_budget(&value("--budget")?)?,
            "--keep-within" if explore => {
                let text = value("--keep-within")?;
                let pct: f64 = text
                    .parse()
                    .map_err(|_| format!("bad keep-within `{text}`"))?;
                if !(pct.is_finite() && pct >= 0.0) {
                    return Err("keep-within must be a nonnegative percentage".into());
                }
                args.keep_within = pct;
            }
            other => return Err(format!("unknown {command} argument `{other}`")),
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

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
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
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    enable_tracing(&args.trace_out);
    let engine = SweepEngine::new(RESULT_CACHE).with_progress(args.progress);

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
    for group in outcome.summarize() {
        let best = group.best;
        let sweet = match group.sweet_spot {
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
            group.workload,
            group.budget,
            group.dataflow,
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
    let jobs = args.jobs.unwrap_or_else(default_jobs);
    enable_tracing(&args.trace_out);
    let options = ExploreOptions {
        keep_within_pct: args.keep_within,
        budget: args.budget,
        jobs,
        progress: args.progress,
    };
    let engine = ExploreEngine::new(RESULT_CACHE);
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

fn run(argv: &[String]) -> Result<(), CliError> {
    let args = parse_args(argv).map_err(|msg| {
        if msg.is_empty() {
            CliError::Help
        } else {
            CliError::Usage(msg)
        }
    })?;
    run_simulation(&args).map_err(CliError::Runtime)
}

fn run_simulation(args: &Args) -> Result<(), String> {
    let mut config: SimConfig = match &args.config {
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| format!("cannot read config {}: {e}", path.display()))?;
            parse_config(&text).map_err(|e| format!("config parse error: {e}"))?
        }
        None => SimConfig::default(),
    };
    if let Some(df) = args.dataflow {
        config.dataflow = df;
    }
    if let Some(bw) = args.bandwidth {
        config.dram_bandwidth = Some(bw);
    }

    if args.dump_config {
        print!("{}", config.to_config_string());
        return Ok(());
    }

    let mut topology = load_topology(args)?;
    if let Some(batch) = args.batch {
        topology = networks::batched(&topology, batch);
    }
    let sim = Simulator::new(config).with_grid(args.grid);

    eprintln!(
        "running {} ({} layers) on {} grid of {} arrays, dataflow {}",
        topology.name(),
        topology.len(),
        args.grid,
        config.array,
        config.dataflow,
    );

    if let Some(dir) = &args.output {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        if args.traces {
            for layer in &topology {
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

    enable_tracing(&args.trace_out);
    let report = sim.run_topology(&topology);
    println!("{report}");
    if args.profile {
        print!("{}", profile_table(&report));
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
/// and the wall-clock time `run_layer` spent on it, read back from the
/// process-global telemetry registry.
fn profile_table(report: &scalesim::NetworkReport) -> String {
    use scalesim::telemetry_names;
    let registry = scalesim_telemetry::global();
    let wall_of = |layer: &str| {
        registry
            .counter_value(telemetry_names::LAYER_WALL_MICROS, &[("layer", layer)])
            .unwrap_or(0)
    };
    let total_wall: u64 = report.layers().iter().map(|l| wall_of(&l.name)).sum();
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
    for layer in report.layers() {
        let wall = wall_of(&layer.name);
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
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    // Subcommands dispatch to the server crate; their errors are always
    // runtime-style (one line, no usage dump). `run` is the explicit
    // spelling of the default simulate path.
    let outcome = match argv.first().map(String::as_str) {
        Some("serve") => scalesim_server::cli::run_serve(&argv[1..]).map_err(CliError::Runtime),
        Some("batch") => scalesim_server::cli::run_batch_cli(&argv[1..]).map_err(CliError::Runtime),
        Some("sweep") => run_sweep_cli(&argv[1..]).map_err(CliError::Runtime),
        Some("explore") => run_explore_cli(&argv[1..]).map_err(CliError::Runtime),
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
        assert_eq!(a.grid, PartitionGrid::new(4, 2));
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
        assert_eq!(a.dataflow, Some(Dataflow::WeightStationary));
        assert_eq!(a.bandwidth, Some(32.5));
        assert_eq!(a.batch, Some(8));
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

    #[test]
    fn builtin_networks_resolve() {
        for name in [
            "resnet50",
            "resnet18",
            "alexnet",
            "googlenet",
            "mobilenet_v1",
            "vgg16",
            "yolo_tiny",
            "language_models",
        ] {
            let mut a = parse_args(&[]).unwrap();
            a.network = Some(name.into());
            assert!(load_topology(&a).is_ok(), "{name} should load");
        }
        let mut a = parse_args(&[]).unwrap();
        a.network = Some("vgg".into());
        assert!(load_topology(&a).is_err());
    }

    #[test]
    fn missing_workload_is_an_error() {
        let a = parse_args(&[]).unwrap();
        assert!(load_topology(&a).is_err());
    }

    #[test]
    fn layer_tag_workloads_resolve() {
        let mut a = parse_args(&[]).unwrap();
        a.network = Some("TF0".into());
        let topo = load_topology(&a).unwrap();
        assert_eq!(topo.len(), 1);
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
        assert_eq!(a.budget, ExploreBudget::Sims(250));
        assert_eq!(a.keep_within, 7.5);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.output, Some(PathBuf::from("out.csv")));
        assert_eq!(a.format, SweepFormat::JsonLines);
        assert_eq!(a.trace_out, Some(PathBuf::from("trace.json")));
        assert!(a.progress);
    }

    #[test]
    fn explore_budget_tokens() {
        use std::time::Duration;
        assert_eq!(parse_explore_budget("100"), Ok(ExploreBudget::Sims(100)));
        assert_eq!(
            parse_explore_budget("30s"),
            Ok(ExploreBudget::WallClock(Duration::from_secs(30)))
        );
        assert_eq!(
            parse_explore_budget("5m"),
            Ok(ExploreBudget::WallClock(Duration::from_secs(300)))
        );
        assert!(parse_explore_budget("fast").is_err());
        assert!(parse_explore_budget("-3").is_err());
        assert!(parse_explore_budget("2h").is_err());
    }

    #[test]
    fn explore_defaults_and_errors() {
        let a = parse_explore_args(&argv(&["--plan", "p"])).unwrap();
        assert_eq!(a.budget, ExploreBudget::Unlimited);
        assert_eq!(a.keep_within, 10.0);
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
}
