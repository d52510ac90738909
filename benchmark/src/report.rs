//! What a run prints and keeps, the full run over every workload, and the
//! comparison of two kept results.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use scalesim_server::Json;

use crate::metrics::{Better, Metric};
use crate::run::RunReport;
use crate::traced::trace_path;
use crate::{sys, WORKLOADS};

/// Prefix of the stdout line on which a run hands its full record to the
/// full run that spawned it.
const DETAIL: &str = "detail ";

fn failed_share(attempted: u64, failed: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

impl RunReport {
    /// The last line of a run's stdout, as the driver's contract fixes it.
    pub fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.spec.name.to_owned(), m.contract_json()))
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::Int(self.tally.attempted.into())),
            ("failed", Json::Int(self.tally.failed.into())),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }

    /// The record `results.json` keeps of this run.
    pub fn detail_json(&self, seed: u64) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| (m.spec.name.to_owned(), m.detail_json()))
            .collect();
        Json::obj(vec![
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("seed", Json::Int(seed.into())),
            ("attempted", Json::Int(self.tally.attempted.into())),
            ("failed", Json::Int(self.tally.failed.into())),
            (
                "failed_ops_share",
                Json::Float(failed_share(self.tally.attempted, self.tally.failed)),
            ),
            (
                "simulated_digest",
                self.digest.clone().map_or(Json::Null, Json::Str),
            ),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Prints every metric by name with unit, sample count and quartiles,
    /// then the record line and the contract line.
    pub fn print(&self, seed: u64) {
        let kind = if self.traced { "traced" } else { "untraced" };
        println!("== {} ({kind}, seed {seed})", self.workload);
        println!(
            "{:<38} {:>16} {:<6} {:>6} {:>14} {:>14} {:>14}",
            "metric", "value", "unit", "n", "q1", "median", "q3"
        );
        for m in &self.metrics {
            let s = &m.samples;
            println!(
                "{:<38} {:>16.6} {:<6} {:>6} {:>14.6} {:>14.6} {:>14.6}",
                m.spec.name, m.value, m.spec.unit, s.n, s.q1, s.median, s.q3
            );
        }
        println!(
            "{:<38} {:>16.6} {:<6} {:>6}   ({} of {} ops failed)",
            "failed_ops_share",
            failed_share(self.tally.attempted, self.tally.failed),
            "ratio",
            1,
            self.tally.failed,
            self.tally.attempted,
        );
        if let Some(digest) = &self.digest {
            println!("simulated-statistics digest {digest}");
        }
        for note in &self.notes {
            println!("  {note}");
        }
        println!("{DETAIL}{}", self.detail_json(seed));
        println!("{}", self.contract_line());
    }
}

fn provenance(seed: u64, seconds: f64) -> Json {
    Json::obj(vec![
        ("git", Json::str(sys::git_hash())),
        ("nproc", Json::Int(sys::nproc() as i128)),
        ("w", Json::Int(sys::workers() as i128)),
        ("seed", Json::Int(seed.into())),
        ("seconds", Json::Float(seconds)),
        ("rustc", Json::str(sys::rustc_version())),
        ("profile", Json::str(sys::profile())),
    ])
}

/// Runs one workload in a child process of its own, echoing what it prints.
/// Returns the child's record, or `None` if it died without one.
fn child_run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Json> {
    let exe = std::env::current_exe().expect("this program has a path");
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("this program can start itself");
    let mut detail = None;
    let stdout = child.stdout.take().expect("the child's stdout is piped");
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if let Some(json) = line.strip_prefix(DETAIL) {
            detail = Json::parse(json).ok();
        } else if !line.starts_with("{\"correct\"") {
            println!("{line}");
        }
    }
    let status = child.wait().expect("the child can be waited for");
    detail.filter(|_| status.success())
}

/// Joins the children's `trace.<workload>.json` into one `trace.json`.
fn merge_traces(out: &Path) -> std::io::Result<PathBuf> {
    let merged = out.join("trace.json");
    let mut w = std::io::BufWriter::new(std::fs::File::create(&merged)?);
    writeln!(w, "[")?;
    let mut first = true;
    for workload in WORKLOADS {
        let text = std::fs::read_to_string(trace_path(workload))?;
        // Each file is `[`, one event per line, `]`.
        for line in text.lines().filter(|l| l.starts_with('{')) {
            if !std::mem::take(&mut first) {
                writeln!(w, ",")?;
            }
            write!(w, "{}", line.trim_end_matches(','))?;
        }
    }
    writeln!(w, "\n]")?;
    w.flush()?;
    Ok(merged)
}

/// The one command: every workload untraced in a child of its own, then
/// every workload traced, then `out/results.json` and `out/trace.json`.
pub fn full_run(seed: u64, seconds: f64) -> ExitCode {
    let provenance = provenance(seed, seconds);
    println!("scale-sim-rs benchmark: {provenance}");
    if sys::profile() != "release" {
        println!("WARNING: built without optimizations; the host times below mean nothing");
    }
    let mut runs = Vec::new();
    let mut clean = true;
    for trace in [false, true] {
        for workload in WORKLOADS {
            match child_run(workload, seed, seconds, trace) {
                Some(detail) => {
                    clean &= detail.get("failed").and_then(Json::as_u64) == Some(0);
                    runs.push(detail);
                }
                None => {
                    println!("{workload}: the run died without a result");
                    clean = false;
                }
            }
        }
    }
    let out = sys::bench_dir().join("out");
    let results = out.join("results.json");
    let json = Json::obj(vec![("provenance", provenance), ("runs", Json::Arr(runs))]);
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&results, format!("{json}\n")))
        .and_then(|()| merge_traces(&out));
    match written {
        Ok(trace) => println!("wrote {} and {}", results.display(), trace.display()),
        Err(e) => {
            println!("cannot write under {}: {e}", out.display());
            clean = false;
        }
    }
    if clean {
        println!("every output check passed");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: an output check failed or a run died; see above");
        ExitCode::FAILURE
    }
}

/// One run read back from a results file.
struct KeptRun {
    workload: String,
    traced: bool,
    failed_share: f64,
    digest: Option<String>,
    metrics: Vec<Metric>,
}

fn read_results(path: &str) -> Result<Vec<KeptRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_results(&text).map_err(|e| format!("{path}: {e}"))
}

fn parse_results(text: &str) -> Result<Vec<KeptRun>, String> {
    let json = Json::parse(text)?;
    let runs = json
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("no `runs`")?;
    runs.iter()
        .map(|run| {
            let metrics = run.get("metrics").and_then(Json::as_object)?;
            Some(KeptRun {
                workload: run.get("workload")?.as_str()?.to_owned(),
                traced: matches!(run.get("traced")?, Json::Bool(true)),
                failed_share: run.get("failed_ops_share")?.as_f64()?,
                digest: run
                    .get("simulated_digest")
                    .and_then(Json::as_str)
                    .map(str::to_owned),
                metrics: metrics
                    .iter()
                    .filter_map(|(name, m)| Metric::from_detail_json(name, m))
                    .collect(),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "a run record is malformed".to_owned())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// How much worse `change` reads than `base`, as a share of `base`
/// (negative when it reads better).
pub fn worsening(better: Better, base: f64, change: f64) -> f64 {
    let delta = match better {
        Better::Lower => change - base,
        Better::Higher => base - change,
    };
    if delta == 0.0 {
        0.0
    } else if base == 0.0 {
        // Any move off a zero base is a whole one.
        delta.signum()
    } else {
        delta / base.abs()
    }
}

/// The rule of the choosing-metrics guide: a metric whose samples spread
/// wider than its bound is unresolved, unless every sample of the change
/// reads better than every sample of the base; otherwise it is worse when
/// its figure worsened by more than the bound.
pub fn verdict(base: &Metric, change: &Metric, bound: f64) -> Verdict {
    if base.samples.spread().max(change.samples.spread()) > bound {
        let strictly_better = match base.spec.better {
            Better::Lower => change.samples.max < base.samples.min,
            Better::Higher => change.samples.min > base.samples.max,
        };
        if strictly_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worsening(base.spec.better, base.value, change.value) > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// `compare A.json B.json`: per workload and metric both figures with
/// quartiles, the relative change against its base `A`, the bound and the
/// verdict. Fails when any end-to-end metric is worse.
pub fn compare(base_path: &str, change_path: &str) -> Result<ExitCode, String> {
    let base = read_results(base_path)?;
    let change = read_results(change_path)?;
    let mut worse = 0;
    println!("base {base_path}, change {change_path}; change is relative to base, + is worse");
    for a in &base {
        let Some(b) = change
            .iter()
            .find(|b| b.workload == a.workload && b.traced == a.traced)
        else {
            println!("{}: not in {change_path}", a.workload);
            continue;
        };
        let kind = if a.traced { "per-layer" } else { "end-to-end" };
        println!("== {} ({kind})", a.workload);
        println!(
            "{:<38} {:<6} {:>14} {:>22} {:>14} {:>22} {:>9} {:>6}  verdict",
            "metric", "unit", "base", "[q1, q3]", "change", "[q1, q3]", "rel", "bound"
        );
        for ma in &a.metrics {
            let Some(mb) = b.metrics.iter().find(|m| m.spec.name == ma.spec.name) else {
                continue;
            };
            let rel = worsening(ma.spec.better, ma.value, mb.value);
            let (bound, word) = match ma.spec.bound {
                Some(bound) => (
                    format!("{bound:.2}"),
                    match verdict(ma, mb, bound) {
                        Verdict::Ok => "ok",
                        Verdict::Worse => {
                            worse += 1;
                            "worse"
                        }
                        Verdict::Unresolved => "unresolved",
                    },
                ),
                None => ("-".to_owned(), "-"),
            };
            let quartiles = |m: &Metric| format!("[{:.4}, {:.4}]", m.samples.q1, m.samples.q3);
            println!(
                "{:<38} {:<6} {:>14.4} {:>22} {:>14.4} {:>22} {:>+8.1}% {:>6}  {word}",
                ma.spec.name,
                ma.spec.unit,
                ma.value,
                quartiles(ma),
                mb.value,
                quartiles(mb),
                rel * 100.0,
                bound,
            );
        }
        if !a.traced {
            // Bound 0, absolute: any more failures than the base is worse.
            let failed = b.failed_share > a.failed_share;
            worse += usize::from(failed);
            println!(
                "{:<38} {:<6} {:>14.6} {:>22} {:>14.6} {:>22} {:>9} {:>6}  {}",
                "failed_ops_share",
                "ratio",
                a.failed_share,
                "",
                b.failed_share,
                "",
                "",
                "0 abs",
                if failed { "worse" } else { "ok" },
            );
            let same = a.digest == b.digest;
            println!(
                "simulated statistics {}",
                if same { "identical" } else { "DIFFER" }
            );
        }
    }
    println!("{worse} metric(s) worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::stats::summarize;

    fn metric(name: &str, samples: &[f64]) -> Metric {
        Metric::new(metrics::spec(name).unwrap(), summarize(samples))
    }

    #[test]
    fn a_steady_metric_is_ok_within_its_bound_and_worse_beyond() {
        let base = metric("pass_s", &[1.00, 1.01, 0.99, 1.00]);
        assert_eq!(
            verdict(&base, &metric("pass_s", &[1.08, 1.09, 1.08]), 0.10),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &metric("pass_s", &[1.12, 1.13, 1.12]), 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &metric("pass_s", &[0.5, 0.5, 0.5]), 0.10),
            Verdict::Ok
        );
        // Higher is better: a drop is what worsens.
        let base = metric("ops_per_s", &[100.0, 101.0, 99.0]);
        assert_eq!(
            verdict(&base, &metric("ops_per_s", &[85.0, 86.0, 85.0]), 0.10),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &metric("ops_per_s", &[130.0, 131.0]), 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn a_noisy_metric_is_unresolved_unless_the_change_wins_every_sample() {
        let base = metric("pass_s", &[1.0, 1.3, 0.8, 1.1, 0.9]);
        assert_eq!(
            verdict(&base, &metric("pass_s", &[1.0, 1.0, 1.0]), 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &metric("pass_s", &[2.0, 2.0, 2.0]), 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &metric("pass_s", &[0.7, 0.75, 0.7]), 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn worsening_is_signed_by_the_metrics_direction() {
        assert!((worsening(Better::Lower, 2.0, 2.5) - 0.25).abs() < 1e-12);
        assert!((worsening(Better::Higher, 2.0, 2.5) + 0.25).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 0.0), 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 3.0), 1.0);
    }

    #[test]
    fn a_run_record_survives_the_results_file() {
        let report = RunReport {
            workload: "fig9_os_cold",
            traced: false,
            tally: crate::workloads::Tally {
                attempted: 10,
                failed: 1,
            },
            metrics: vec![
                metric("pass_s", &[1.0, 2.0, 4.0]),
                metric("peak_rss_mb", &[3.0]),
            ],
            digest: Some("abc".into()),
            notes: Vec::new(),
        };
        let json = Json::obj(vec![("runs", Json::Arr(vec![report.detail_json(7)]))]);
        let kept = parse_results(&json.to_string()).unwrap();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].workload, "fig9_os_cold");
        assert!(!kept[0].traced);
        assert_eq!(kept[0].failed_share, 0.1);
        assert_eq!(kept[0].digest.as_deref(), Some("abc"));
        assert_eq!(kept[0].metrics, report.metrics);

        let line = Json::parse(&report.contract_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        let pass = line.get("metrics").unwrap().get("pass_s").unwrap();
        assert_eq!(pass.get("value").unwrap().as_f64(), Some(2.0));
        assert_eq!(pass.get("unit").unwrap().as_str(), Some("s"));
    }
}
