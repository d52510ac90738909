//! Entry points for the `scale-sim serve` and `scale-sim batch`
//! subcommands. The binary crate stays a thin dispatcher; all service
//! logic lives here.

use std::fs;
use std::time::Duration;

use crate::batch::{parse_manifest, run_batch};
use crate::engine::{Engine, EngineOptions, DEFAULT_QUEUE_DEPTH};
use crate::http::{Server, ServerOptions};
use crate::signals;

/// Default number of simulator workers: one per available core.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

fn take_value<'a, I: Iterator<Item = &'a String>>(
    it: &mut I,
    name: &str,
) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{name} requires a value"))
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
pub fn run_serve(argv: &[String]) -> Result<(), String> {
    let mut port: u16 = 7878;
    let mut host = String::from("127.0.0.1");
    let mut workers = default_workers();
    let mut cache = 256usize;
    let mut queue_depth = DEFAULT_QUEUE_DEPTH;
    let mut max_connections = 256usize;
    let mut deadline_ms: u64 = 120_000;
    let mut grace_ms: u64 = 10_000;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-p" | "--port" => {
                let text = take_value(&mut it, "--port")?;
                port = text.parse().map_err(|_| format!("bad port `{text}`"))?;
            }
            "--host" => host = take_value(&mut it, "--host")?,
            "--workers" => {
                let text = take_value(&mut it, "--workers")?;
                workers = parse_nonzero(&text, "--workers")?;
            }
            "--cache" => {
                let text = take_value(&mut it, "--cache")?;
                cache = parse_nonzero(&text, "--cache")?;
            }
            "--queue-depth" => {
                let text = take_value(&mut it, "--queue-depth")?;
                queue_depth = parse_nonzero(&text, "--queue-depth")?;
            }
            "--max-connections" => {
                let text = take_value(&mut it, "--max-connections")?;
                max_connections = parse_nonzero(&text, "--max-connections")?;
            }
            "--deadline-ms" => {
                let text = take_value(&mut it, "--deadline-ms")?;
                deadline_ms = text
                    .parse()
                    .map_err(|_| format!("bad value for --deadline-ms: `{text}`"))?;
            }
            "--grace-ms" => {
                let text = take_value(&mut it, "--grace-ms")?;
                grace_ms = text
                    .parse()
                    .map_err(|_| format!("bad value for --grace-ms: `{text}`"))?;
            }
            other => return Err(format!("unknown serve argument `{other}`")),
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
    eprintln!("logging: set SCALESIM_LOG=info (or debug,json) for access logs");

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
pub fn run_batch_cli(argv: &[String]) -> Result<(), String> {
    let mut manifest_path = None;
    let mut jobs_n = default_workers();
    let mut output = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-m" | "--manifest" => manifest_path = Some(take_value(&mut it, "--manifest")?),
            "-j" | "--jobs" => {
                let text = take_value(&mut it, "--jobs")?;
                jobs_n = parse_nonzero(&text, "--jobs")?;
            }
            "-o" | "--output" => output = Some(take_value(&mut it, "--output")?),
            other => return Err(format!("unknown batch argument `{other}`")),
        }
    }
    let manifest_path = manifest_path.ok_or("batch requires --manifest <FILE>")?;
    let text = fs::read_to_string(&manifest_path)
        .map_err(|e| format!("cannot read manifest {manifest_path}: {e}"))?;
    let jobs = parse_manifest(&text).map_err(|e| e.to_string())?;

    let engine = Engine::new(jobs_n, jobs.len().max(16));
    let outcome = run_batch(&engine, &jobs).map_err(|e| e.to_string())?;
    engine.shutdown();

    let csv = outcome.to_csv();
    match &output {
        Some(path) => {
            fs::write(path, &csv).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => print!("{csv}"),
    }
    eprintln!("{}", outcome.summary());
    Ok(())
}

fn parse_nonzero(text: &str, flag: &str) -> Result<usize, String> {
    let n: usize = text
        .parse()
        .map_err(|_| format!("bad value for {flag}: `{text}`"))?;
    if n == 0 {
        return Err(format!("{flag} must be nonzero"));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
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
}
