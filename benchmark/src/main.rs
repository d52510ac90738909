//! The repo benchmark. `README.md` beside this package says what is
//! measured and why; `BENCHMARK.json` at the repository root is its contract
//! with the driver.
//!
//! ```text
//! scalesim-benchmark [--seed N] [--seconds S]
//!     every workload untraced, each in a child process, then every workload
//!     traced; prints every metric, writes out/results.json and out/trace.json
//! scalesim-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one run; the last line of stdout is the driver's JSON object
//! scalesim-benchmark compare A.json B.json
//!     two results files metric by metric; fails when one is worse
//! scalesim-benchmark bless
//!     rewrites expected/ from the outputs of seed 1
//! ```

mod calib;
mod metrics;
mod probes;
mod replay;
mod report;
mod rng;
mod run;
mod stats;
mod sys;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;

use run::RunReport;
use workloads::{explore::Explore, fig9::Fig9, serve::Serve, spill::Spill, Scale, Workload};

/// Seconds one run measures when `--seconds` is not given; equal to
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

pub const WORKLOADS: [&str; 4] = [Fig9::NAME, Spill::NAME, Explore::NAME, Serve::NAME];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.to_owned()),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(parsed)
}

/// Applies `$f::<W>($args)` to the workload type named `$name`.
macro_rules! for_workload {
    ($name:expr, $f:ident($($args:expr),*)) => {
        match $name {
            Fig9::NAME => Ok($f::<Fig9>($($args),*)),
            Spill::NAME => Ok($f::<Spill>($($args),*)),
            Explore::NAME => Ok($f::<Explore>($($args),*)),
            Serve::NAME => Ok($f::<Serve>($($args),*)),
            other => Err(format!(
                "unknown workload `{other}` (one of {})",
                WORKLOADS.join(", ")
            )),
        }
    };
}

fn run_one<W: Workload>(args: &Args) -> Result<RunReport, String> {
    if args.trace {
        let pid = 1 + WORKLOADS
            .iter()
            .position(|name| *name == W::NAME)
            .expect("every workload is listed");
        traced::traced::<W>(args.seed, pid)
    } else {
        Ok(run::untraced::<W>(args.seed, args.seconds))
    }
}

fn bless<W: Workload>() -> Result<(), String> {
    let path = run::expected_path(W::NAME);
    let output = W::setup(1, sys::workers(), Scale::Full).verify().output;
    std::fs::write(&path, output).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main_inner(argv: &[String]) -> Result<ExitCode, String> {
    match argv.first().map(String::as_str) {
        Some("compare") => match argv {
            [_, base, change] => report::compare(base, change),
            _ => Err("usage: compare A.json B.json".into()),
        },
        Some("bless") => {
            for name in WORKLOADS {
                for_workload!(name, bless())??;
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let args = parse_args(argv)?;
            let Some(name) = args.workload.as_deref() else {
                return Ok(report::full_run(args.seed, args.seconds));
            };
            let report = for_workload!(name, run_one(&args))??;
            // A run that finished exits 0 even with failed ops: the line
            // just printed reports them, and the driver's contract reads
            // any other exit code as a run that did not finish.
            report.print(args.seed);
            Ok(ExitCode::SUCCESS)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    main_inner(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
