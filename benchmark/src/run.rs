//! One run of one workload: the untraced run behind the end-to-end
//! metrics, and the output gate both kinds of run share.

use std::time::Instant;

use scalesim::ContentKey;

use crate::metrics::{self, Metric};
use crate::stats::{median, percentile, summarize, tail_percentile};
use crate::workloads::{Scale, Tally, Workload};
use crate::{calib, sys};

/// Set-ups per run. `setup_s` is their median, so that one slow start does
/// not decide it.
const SETUPS: usize = 3;

/// What one run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    pub traced: bool,
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Content hash of the workload's output text: the simulated statistics
    /// of two commits are equal iff their digests are. The traced run
    /// checks its replay instead and has none.
    pub digest: Option<String>,
    /// Free-form lines for the printed report.
    pub notes: Vec<String>,
}

/// The expected output of `workload` for seed 1.
pub fn expected_path(workload: &str) -> std::path::PathBuf {
    sys::bench_dir()
        .join("expected")
        .join(format!("{workload}.txt"))
}

/// Runs the workload's own checks and, for seed 1, compares its output with
/// the file under `expected/`. Returns the tally and the output's digest.
pub fn output_gate<W: Workload>(
    workload: &mut W,
    seed: u64,
    notes: &mut Vec<String>,
) -> (Tally, String) {
    let verified = workload.verify();
    let mut tally = verified.tally;
    if seed == 1 {
        let path = expected_path(W::NAME);
        let matches =
            std::fs::read_to_string(&path).is_ok_and(|expected| expected == verified.output);
        if !matches {
            notes.push(format!("output differs from {}", path.display()));
        }
        tally.add(Tally::all_or_nothing(tally.attempted.max(1), matches));
    }
    if tally.failed > 0 {
        notes.push(format!(
            "output gate: {} of {} checks failed",
            tally.failed, tally.attempted
        ));
    }
    let digest = ContentKey::from_content(verified.output.as_bytes()).to_string();
    (tally, digest)
}

/// One timed pass. Host times are calibrated seconds (see `calib`).
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    ops_ok: f64,
    peak_rss_mb: f64,
    /// This pass's slice of the run's request latencies.
    latencies: std::ops::Range<usize>,
}

/// The untraced run: `SETUPS` set-ups, then passes for `seconds` seconds of
/// host time, then the output gate.
pub fn untraced<W: Workload>(seed: u64, seconds: f64) -> RunReport {
    let jobs = sys::workers();
    let threads = W::threads(jobs);
    let mut speed = calib::sample(threads);
    // Takes the next calibration sample and returns the factor for host
    // seconds measured since the last one.
    let mut next_factor = || {
        let before = std::mem::replace(&mut speed, calib::sample(threads));
        calib::factor(before, speed)
    };

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for _ in 0..SETUPS {
        // Tear the previous instance down first: two servers or engines
        // alive at once would make the later set-ups unlike the first.
        drop(workload.take());
        next_factor();
        let started = Instant::now();
        workload = Some(W::setup(seed, jobs, Scale::Full));
        let host_s = started.elapsed().as_secs_f64();
        setup_s.push(host_s * next_factor());
    }
    let mut workload = workload.expect("SETUPS is at least one");

    let mut tally = Tally::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut factors = Vec::new();
    let mut latencies_ms = Vec::new();
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds {
        sys::reset_peak_rss();
        let (started, cpu_started, first) =
            (Instant::now(), sys::cpu_seconds(), latencies_ms.len());
        let pass = workload.pass(&mut latencies_ms);
        let (host_s, host_cpu_s) = (
            started.elapsed().as_secs_f64(),
            sys::cpu_seconds() - cpu_started,
        );
        let peak_rss_mb = sys::peak_rss_mb() - calib::RING_MB;
        if latencies_ms.len() == first {
            // A library workload: its one request per pass is the call.
            latencies_ms.push(host_s * 1e3);
        }
        let factor = next_factor();
        latencies_ms[first..]
            .iter_mut()
            .for_each(|ms| *ms *= factor);
        factors.push(factor);
        passes.push(Pass {
            wall_s: host_s * factor,
            cpu_s: host_cpu_s * factor,
            ops_ok: (pass.attempted - pass.failed) as f64,
            peak_rss_mb,
            latencies: first..latencies_ms.len(),
        });
        tally.add(pass);
    }
    let host_window_s = window.elapsed().as_secs_f64();

    let mut notes = Vec::new();
    let tail = tail_percentile(latencies_ms.len());
    let speed = summarize(&factors);
    let raw_pass_s = median(
        &passes
            .iter()
            .zip(&factors)
            .map(|(pass, factor)| pass.wall_s / factor)
            .collect::<Vec<_>>(),
    );
    notes.push(format!(
        "{} passes of {} {}s in {host_window_s:.2} s of host time, {raw_pass_s:.4} s the median \
         pass before calibration; {} request latencies, req_p99_ms read at p{tail}; host speed \
         factor {:.3} [{:.3}, {:.3}] on {threads} thread(s)",
        passes.len(),
        tally.attempted / passes.len() as u64,
        W::OP,
        latencies_ms.len(),
        speed.median,
        speed.min,
        speed.max,
    ));
    let ops_ok = (tally.attempted - tally.failed) as f64;
    let (gate, digest) = output_gate(&mut workload, seed, &mut notes);
    tally.add(gate);
    drop(workload);

    // Every figure is taken over all passes as the metric defines it; the
    // per-pass samples beside it show how steady it was.
    let per_pass = |f: &dyn Fn(&Pass) -> f64| summarize(&passes.iter().map(f).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>();
    let pass_latency = |p: &Pass, pct: f64| percentile(&latencies_ms[p.latencies.clone()], pct);
    let figure = |name: &str| match name {
        "setup_s" => (median(&setup_s), summarize(&setup_s)),
        "pass_s" => {
            let samples = per_pass(&|p| p.wall_s);
            (samples.median, samples)
        }
        "ops_per_s" => (
            ops_ok / total(&|p| p.wall_s),
            per_pass(&|p| p.ops_ok / p.wall_s),
        ),
        "cpu_s_per_pass" => (
            total(&|p| p.cpu_s) / passes.len() as f64,
            per_pass(&|p| p.cpu_s),
        ),
        "peak_rss_mb" => {
            let samples = per_pass(&|p| p.peak_rss_mb);
            (samples.median, samples)
        }
        "req_p50_ms" => (
            percentile(&latencies_ms, 50.0),
            per_pass(&|p| pass_latency(p, 50.0)),
        ),
        "req_p99_ms" => (
            percentile(&latencies_ms, tail),
            per_pass(&|p| pass_latency(p, tail)),
        ),
        other => panic!("no figure for end-to-end metric {other}"),
    };
    let metrics = metrics::END_TO_END
        .iter()
        .map(|spec| {
            let (value, samples) = figure(spec.name);
            Metric::with_value(spec, value, samples)
        })
        .collect();
    RunReport {
        workload: W::NAME,
        traced: false,
        tally,
        metrics,
        digest: Some(digest),
        notes,
    }
}
