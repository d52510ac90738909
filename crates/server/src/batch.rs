//! Batch mode: run a manifest of jobs through the [`Engine`] and collect
//! one CSV report.
//!
//! A manifest is a text file with one job per line. Blank lines and `#`
//! comments are skipped. Each job line is either a JSON object (the
//! `POST /simulate` body format — the line must start with `{`) or
//! whitespace-separated `key=value` pairs:
//!
//! ```text
//! # ResNet-50 first layer at two grid sizes
//! network=resnet50 layer=Conv1
//! network=resnet50 layer=Conv1 grid=2x2
//! {"network": "alexnet", "dataflow": "ws"}
//! ```
//!
//! Duplicate jobs in a manifest deduplicate through the engine's cache and
//! single-flight table exactly like HTTP traffic does, so a manifest that
//! lists every job twice reports a 50% cache-hit rate and simulates each
//! distinct job once.

use scalesim::NetworkReport;

use crate::engine::{Engine, JobContext, Served, SimResult};
use crate::job::{JobError, SimJob};
use crate::json::Json;

/// Parses a batch manifest into jobs, in file order.
pub fn parse_manifest(text: &str) -> Result<Vec<SimJob>, JobError> {
    let mut jobs = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let job = if line.starts_with('{') {
            Json::parse(line)
                .map_err(|e| JobError::bad_request(format!("line {}: {e}", idx + 1)))
                .and_then(|json| SimJob::from_json(&json))
        } else {
            SimJob::from_kv_line(line)
        }
        .map_err(|e| JobError::bad_request(format!("manifest line {}: {e}", idx + 1)))?;
        jobs.push(job);
    }
    if jobs.is_empty() {
        return Err(JobError::bad_request("manifest contains no jobs"));
    }
    Ok(jobs)
}

/// One manifest entry's outcome, in manifest order.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// The job as written in the manifest.
    pub job: SimJob,
    /// How it was served.
    pub served: Served,
    /// The simulation result.
    pub result: std::sync::Arc<SimResult>,
}

/// The collected outcome of a batch run.
#[derive(Debug)]
pub struct BatchOutcome {
    /// Per-job outcomes, in manifest order.
    pub entries: Vec<BatchEntry>,
    /// Simulations that actually ran.
    pub simulations: u64,
    /// Requests served from cache or by joining an in-flight duplicate.
    pub cache_hits: u64,
}

impl BatchOutcome {
    /// Cache-hit rate over the whole batch, in percent.
    pub fn hit_rate_percent(&self) -> f64 {
        if self.entries.is_empty() {
            0.0
        } else {
            100.0 * self.cache_hits as f64 / self.entries.len() as f64
        }
    }

    /// The combined REPORT CSV: one header, then every job's per-layer rows
    /// in manifest order. Rows are byte-identical to each job's standalone
    /// `NetworkReport::to_csv` output.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(NetworkReport::CSV_HEADER);
        for entry in &self.entries {
            out.push_str(&entry.result.report.csv_rows());
        }
        out
    }

    /// One-line human summary, e.g.
    /// `48 jobs, 24 simulations, cache-hit rate 50.0% (24/48)`.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs, {} simulations, cache-hit rate {:.1}% ({}/{})",
            self.entries.len(),
            self.simulations,
            self.hit_rate_percent(),
            self.cache_hits,
            self.entries.len(),
        )
    }
}

/// Runs `jobs` through `engine` from the calling thread, under
/// [`Engine::run_all`]'s submit window: the engine's workers simulate, no
/// thread is started here, and a manifest longer than the queue is deep
/// cannot shed itself. Results come back in manifest order.
///
/// # Errors
///
/// The first job, in manifest order, that does not normalize — before
/// anything is simulated — or whose simulation fails, named by its
/// 1-based position.
pub fn run_batch(engine: &Engine, jobs: &[SimJob]) -> Result<BatchOutcome, JobError> {
    let job_error = |idx: usize, e: JobError| JobError::BadRequest(format!("job {}: {e}", idx + 1));
    let normalized = jobs
        .iter()
        .enumerate()
        .map(|(idx, job)| job.normalize().map_err(|e| job_error(idx, e)))
        .collect::<Result<Vec<_>, _>>()?;
    let results = engine
        .run_all(normalized, JobContext::internal(), None)
        .map_err(|(idx, e)| job_error(idx, e))?;

    let mut entries = Vec::with_capacity(jobs.len());
    let mut cache_hits = 0u64;
    let mut simulations = 0u64;
    for (job, (result, served)) in jobs.iter().zip(results) {
        match served {
            Served::Fresh => simulations += 1,
            Served::Cache | Served::Joined => cache_hits += 1,
        }
        entries.push(BatchEntry {
            job: job.clone(),
            served,
            result,
        });
    }
    Ok(BatchOutcome {
        entries,
        simulations,
        cache_hits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY_CSV: &str = "Layer,IfmapH,IfmapW,FilterH,FilterW,Channels,Filters,Strides\n\
                            L1,8,8,3,3,4,8,1\nL2,8,8,1,1,8,8,1\n";

    fn tiny_manifest_job(dataflow: &str) -> SimJob {
        SimJob {
            workload: crate::job::Workload::InlineCsv {
                name: "tiny".into(),
                csv: TINY_CSV.into(),
            },
            layer: None,
            config: vec![
                ("ArrayHeight".into(), "8".into()),
                ("ArrayWidth".into(), "8".into()),
            ],
            grid: (1, 1),
            dataflow: Some(dataflow.into()),
            bandwidth: None,
            batch: None,
        }
    }

    #[test]
    fn manifest_parses_kv_json_comments() {
        let text = "\n# comment\nnetwork=resnet50 layer=Conv1\n\
                    {\"network\": \"alexnet\", \"dataflow\": \"ws\"}\n";
        let jobs = parse_manifest(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].layer.as_deref(), Some("Conv1"));
        assert_eq!(jobs[1].dataflow.as_deref(), Some("ws"));
        assert!(parse_manifest("# only comments\n").is_err());
        assert!(parse_manifest("network=resnet50 nonsense\n").is_err());
    }

    #[test]
    fn duplicated_jobs_hit_fifty_percent() {
        let engine = Engine::new(4, 64);
        let jobs: Vec<SimJob> = ["os", "ws", "is"]
            .iter()
            .flat_map(|df| [tiny_manifest_job(df), tiny_manifest_job(df)])
            .collect();
        let outcome = run_batch(&engine, &jobs).unwrap();
        assert_eq!(outcome.entries.len(), 6);
        assert_eq!(outcome.simulations, 3);
        assert_eq!(outcome.cache_hits, 3);
        assert!((outcome.hit_rate_percent() - 50.0).abs() < 1e-9);
        assert!(outcome.summary().contains("cache-hit rate 50.0% (3/6)"));
        engine.shutdown();
    }

    #[test]
    fn csv_rows_match_standalone_reports() {
        let engine = Engine::new(2, 16);
        let jobs = vec![tiny_manifest_job("os"), tiny_manifest_job("ws")];
        let outcome = run_batch(&engine, &jobs).unwrap();
        let combined = outcome.to_csv();
        let expected: String = String::from(NetworkReport::CSV_HEADER)
            + &outcome.entries[0].result.report.csv_rows()
            + &outcome.entries[1].result.report.csv_rows();
        assert_eq!(combined, expected);
        // And each job's standalone to_csv is header + its rows.
        let standalone = outcome.entries[0].result.report.to_csv();
        assert!(standalone.ends_with(&outcome.entries[0].result.report.csv_rows()));
        engine.shutdown();
    }

    #[test]
    fn bad_job_fails_the_batch() {
        let engine = Engine::new(1, 4);
        let jobs = vec![SimJob::builtin("no_such_net")];
        assert!(run_batch(&engine, &jobs).is_err());
        engine.shutdown();
    }
}
