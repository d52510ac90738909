//! The job model: a simulation request, its normalized form, and the
//! content-addressed key that names its result.
//!
//! Two requests that *mean* the same simulation — reordered config keys,
//! `"ws"` vs `"weight_stationary"`, gratuitous whitespace in an inline
//! topology CSV — must map to the same [`JobKey`], because the key is what
//! the result cache and the single-flight dedup table are addressed by.
//! Normalization therefore resolves every field to the simulator's own
//! canonical serializations (`SimConfig::to_config_string`,
//! `topology_to_csv`) before hashing.

use std::fmt;

use serde::{Deserialize, Serialize};

use scalesim::cache::ContentKey;
use scalesim::sweep::{canonical_job_text, SweepError};
use scalesim::{parse_config, PartitionGrid, SimConfig};
use scalesim_topology::{networks, parse_topology_csv, topology_to_csv, Dataflow, Topology};

use crate::json::Json;

/// What to simulate: a built-in network or an inline topology CSV.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// One of the built-in networks (`resnet50`, `alexnet`, ...).
    Builtin(String),
    /// A topology supplied inline in the Table II CSV format.
    InlineCsv {
        /// Workload name used in reports.
        name: String,
        /// The CSV text.
        csv: String,
    },
}

/// A simulation request, as accepted over HTTP (`POST /simulate`) and in
/// batch manifests. Field semantics mirror the CLI flags.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimJob {
    /// The workload to run.
    pub workload: Workload,
    /// Restrict to a single layer of the workload, by layer name.
    pub layer: Option<String>,
    /// Table I config overrides (`ArrayHeight`, `IfmapSramSz`, ...), applied
    /// over the paper's default configuration. Order-insensitive.
    pub config: Vec<(String, String)>,
    /// Scale-out partition grid (rows, cols); `(1, 1)` = monolithic.
    pub grid: (u64, u64),
    /// Dataflow override in any accepted spelling (`os`, `WS`,
    /// `weight_stationary`, ...), or `auto` to let the analytical model
    /// pick the fastest dataflow per layer.
    pub dataflow: Option<String>,
    /// DRAM bandwidth in bytes/cycle; enables the stall model.
    pub bandwidth: Option<f64>,
    /// Batch the workload N times (lowers convs to GEMM).
    pub batch: Option<u64>,
}

impl SimJob {
    /// A job running a built-in network with defaults everywhere else.
    pub fn builtin(network: impl Into<String>) -> SimJob {
        SimJob {
            workload: Workload::Builtin(network.into()),
            layer: None,
            config: Vec::new(),
            grid: (1, 1),
            dataflow: None,
            bandwidth: None,
            batch: None,
        }
    }

    /// Parses a job from its JSON object form.
    ///
    /// Recognized keys: `network` *or* (`topology_csv` + optional
    /// `topology_name`), `layer`, `config` (object of Table I overrides),
    /// `grid` (`"PRxPC"`), `dataflow`, `bandwidth`, `batch`.
    pub fn from_json(value: &Json) -> Result<SimJob, JobError> {
        let obj = value
            .as_object()
            .ok_or_else(|| JobError::bad_request("job must be a JSON object"))?;
        for (key, _) in obj {
            match key.as_str() {
                "network" | "topology_csv" | "topology_name" | "layer" | "config" | "grid"
                | "dataflow" | "bandwidth" | "batch" => {}
                other => {
                    return Err(JobError::bad_request(format!(
                        "unknown job field `{other}`"
                    )))
                }
            }
        }
        let workload = match (value.get("network"), value.get("topology_csv")) {
            (Some(_), Some(_)) => {
                return Err(JobError::bad_request(
                    "give either `network` or `topology_csv`, not both",
                ))
            }
            (Some(n), None) => Workload::Builtin(
                n.as_str()
                    .ok_or_else(|| JobError::bad_request("`network` must be a string"))?
                    .to_owned(),
            ),
            (None, Some(csv)) => Workload::InlineCsv {
                name: value
                    .get("topology_name")
                    .and_then(Json::as_str)
                    .unwrap_or("inline")
                    .to_owned(),
                csv: csv
                    .as_str()
                    .ok_or_else(|| JobError::bad_request("`topology_csv` must be a string"))?
                    .to_owned(),
            },
            (None, None) => {
                return Err(JobError::bad_request(
                    "job needs a workload: `network` or `topology_csv`",
                ))
            }
        };
        let mut job = SimJob {
            workload,
            ..SimJob::builtin("")
        };
        if let Some(layer) = value.get("layer") {
            job.layer = Some(
                layer
                    .as_str()
                    .ok_or_else(|| JobError::bad_request("`layer` must be a string"))?
                    .to_owned(),
            );
        }
        if let Some(config) = value.get("config") {
            let pairs = config
                .as_object()
                .ok_or_else(|| JobError::bad_request("`config` must be an object"))?;
            for (k, v) in pairs {
                let text = match v {
                    Json::Str(s) => s.clone(),
                    Json::Int(i) => i.to_string(),
                    Json::Float(f) => f.to_string(),
                    _ => {
                        return Err(JobError::bad_request(format!(
                            "config value for `{k}` must be a string or number"
                        )))
                    }
                };
                job.config.push((k.clone(), text));
            }
        }
        if let Some(grid) = value.get("grid") {
            let text = grid
                .as_str()
                .ok_or_else(|| JobError::bad_request("`grid` must be a string like \"2x2\""))?;
            job.grid = parse_grid(text)?;
        }
        if let Some(df) = value.get("dataflow") {
            job.dataflow = Some(
                df.as_str()
                    .ok_or_else(|| JobError::bad_request("`dataflow` must be a string"))?
                    .to_owned(),
            );
        }
        if let Some(bw) = value.get("bandwidth") {
            let bw = bw
                .as_f64()
                .ok_or_else(|| JobError::bad_request("`bandwidth` must be a number"))?;
            job.bandwidth = Some(bw);
        }
        if let Some(batch) = value.get("batch") {
            job.batch = Some(
                batch
                    .as_u64()
                    .ok_or_else(|| JobError::bad_request("`batch` must be a positive integer"))?,
            );
        }
        Ok(job)
    }

    /// Parses one `key=value`-pair manifest line, e.g.
    /// `network=resnet50 layer=Conv1 grid=2x2 dataflow=ws config.ArrayHeight=16`.
    pub fn from_kv_line(line: &str) -> Result<SimJob, JobError> {
        let mut network = None;
        let mut job = SimJob::builtin("");
        for token in line.split_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(|| {
                JobError::bad_request(format!("manifest token `{token}` is not key=value"))
            })?;
            match key {
                "network" => network = Some(value.to_owned()),
                "layer" => job.layer = Some(value.to_owned()),
                "grid" => job.grid = parse_grid(value)?,
                "dataflow" => job.dataflow = Some(value.to_owned()),
                "bandwidth" => {
                    job.bandwidth =
                        Some(value.parse().map_err(|_| {
                            JobError::bad_request(format!("bad bandwidth `{value}`"))
                        })?)
                }
                "batch" => {
                    job.batch = Some(
                        value
                            .parse()
                            .map_err(|_| JobError::bad_request(format!("bad batch `{value}`")))?,
                    )
                }
                _ => match key.strip_prefix("config.") {
                    Some(cfg_key) => job.config.push((cfg_key.to_owned(), value.to_owned())),
                    None => {
                        return Err(JobError::bad_request(format!(
                            "unknown manifest key `{key}`"
                        )))
                    }
                },
            }
        }
        match network {
            Some(n) => {
                job.workload = Workload::Builtin(n);
                Ok(job)
            }
            None => Err(JobError::bad_request(
                "manifest line needs network=<name> (inline CSV is HTTP-only)",
            )),
        }
    }

    /// The JSON object form accepted by [`SimJob::from_json`].
    pub fn to_json(&self) -> Json {
        let mut pairs: Vec<(String, Json)> = Vec::new();
        match &self.workload {
            Workload::Builtin(name) => pairs.push(("network".into(), Json::str(name.clone()))),
            Workload::InlineCsv { name, csv } => {
                pairs.push(("topology_name".into(), Json::str(name.clone())));
                pairs.push(("topology_csv".into(), Json::str(csv.clone())));
            }
        }
        if let Some(layer) = &self.layer {
            pairs.push(("layer".into(), Json::str(layer.clone())));
        }
        if !self.config.is_empty() {
            pairs.push((
                "config".into(),
                Json::Obj(
                    self.config
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::str(v.clone())))
                        .collect(),
                ),
            ));
        }
        if self.grid != (1, 1) {
            pairs.push((
                "grid".into(),
                Json::str(format!("{}x{}", self.grid.0, self.grid.1)),
            ));
        }
        if let Some(df) = &self.dataflow {
            pairs.push(("dataflow".into(), Json::str(df.clone())));
        }
        if let Some(bw) = self.bandwidth {
            pairs.push(("bandwidth".into(), Json::Float(bw)));
        }
        if let Some(batch) = self.batch {
            pairs.push(("batch".into(), Json::Int(batch.into())));
        }
        Json::Obj(pairs)
    }

    /// Resolves the request into its canonical, executable form.
    pub fn normalize(&self) -> Result<NormalizedJob, JobError> {
        // 1. Effective hardware configuration: defaults + overrides, routed
        //    through the canonical config parser so key spelling/order and
        //    numeric formatting wash out.
        let override_text: String = self
            .config
            .iter()
            .map(|(k, v)| format!("{k} : {v}\n"))
            .collect();
        let mut config = parse_config(&override_text)
            .map_err(|e| JobError::bad_request(format!("config override: {e}")))?;
        let mut auto_dataflow = false;
        if let Some(df) = &self.dataflow {
            if df.eq_ignore_ascii_case("auto") {
                auto_dataflow = true;
            } else {
                config.dataflow = df
                    .parse::<Dataflow>()
                    .map_err(|_| JobError::bad_request(format!("bad dataflow `{df}`")))?;
            }
        }
        if let Some(bw) = self.bandwidth {
            if !(bw.is_finite() && bw > 0.0) {
                return Err(JobError::bad_request("bandwidth must be positive"));
            }
            config.dram_bandwidth = Some(bw);
        }

        // 2. Workload, resolved to a parsed topology.
        let mut topology = match &self.workload {
            Workload::Builtin(name) => builtin_network(name)?,
            Workload::InlineCsv { name, csv } => parse_topology_csv(name, csv)
                .map_err(|e| JobError::bad_request(format!("topology csv: {e}")))?,
        };
        if let Some(layer) = &self.layer {
            let filtered = topology.filtered(|l| l.name() == layer);
            if filtered.is_empty() {
                return Err(JobError::bad_request(format!(
                    "workload `{}` has no layer `{layer}`",
                    topology.name()
                )));
            }
            topology = filtered;
        }
        if let Some(batch) = self.batch {
            if batch == 0 {
                return Err(JobError::bad_request("batch must be nonzero"));
            }
            topology = networks::batched(&topology, batch);
        }

        // 3. Grid.
        if self.grid.0 == 0 || self.grid.1 == 0 {
            return Err(JobError::bad_request("grid dimensions must be nonzero"));
        }
        let grid = PartitionGrid::new(self.grid.0, self.grid.1);

        Ok(NormalizedJob {
            config,
            topology,
            grid,
            auto_dataflow,
        })
    }
}

/// Builds the topology for a built-in workload name: the shared
/// [`networks::by_name`] vocabulary (built-in networks plus the Table IV
/// layer tags like `TF0`), with server-flavored errors.
pub fn builtin_network(name: &str) -> Result<Topology, JobError> {
    networks::by_name(name).ok_or_else(|| {
        JobError::bad_request(format!(
            "unknown built-in workload `{name}` (try resnet50, resnet18, alexnet, googlenet, \
             mobilenet_v1, vgg16, yolo_tiny, language_models, or a Table IV layer tag like TF0)"
        ))
    })
}

fn parse_grid(text: &str) -> Result<(u64, u64), JobError> {
    let grid: PartitionGrid = text.parse().map_err(JobError::bad_request)?;
    Ok((grid.rows(), grid.cols()))
}

/// A fully resolved job: canonical configuration, parsed topology, grid.
#[derive(Debug, Clone)]
pub struct NormalizedJob {
    /// Effective hardware configuration.
    pub config: SimConfig,
    /// Resolved workload (layer-filtered and batched as requested).
    pub topology: Topology,
    /// Partition grid.
    pub grid: PartitionGrid,
    /// Select the fastest dataflow per layer instead of `config.dataflow`.
    pub auto_dataflow: bool,
}

impl NormalizedJob {
    /// The canonical text the job key is derived from — the *same*
    /// [`canonical_job_text`] the core sweep engine hashes, so the server
    /// cache and `SweepEngine` share one content-addressed keyspace.
    pub fn canonical_text(&self) -> String {
        canonical_job_text(
            &self.config,
            self.topology.name(),
            self.grid,
            &topology_to_csv(&self.topology),
            self.auto_dataflow,
        )
    }

    /// The content-addressed key naming this job's result.
    pub fn key(&self) -> JobKey {
        JobKey::from_content(self.canonical_text().as_bytes())
    }
}

/// A 128-bit content hash naming a normalized job (FNV-1a/128).
///
/// Collision odds for FNV-128 at design-space-exploration scale (even
/// millions of cached entries) are negligible, and the hash is stable
/// across processes and platforms — a prerequisite for a cache that could
/// later be shared between server shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(pub u128);

impl JobKey {
    /// Hashes arbitrary content into a key (via the shared
    /// [`ContentKey`] FNV-1a/128, so server keys and sweep-engine keys
    /// agree byte for byte).
    pub fn from_content(bytes: &[u8]) -> JobKey {
        JobKey(ContentKey::from_content(bytes).0)
    }
}

impl fmt::Display for JobKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Why a job was rejected or failed.
///
/// Every variant maps to one HTTP status, so the whole stack — engine,
/// HTTP front end, batch client — shares a single failure vocabulary:
/// a request either completes, is shed with a typed error, or times out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The request itself is invalid (HTTP 400).
    BadRequest(String),
    /// The simulation failed after being accepted (HTTP 500).
    Internal(String),
    /// The engine's bounded queue is full and the job was shed instead of
    /// queued (HTTP 503 + `Retry-After`). `retry_after_ms` is the engine's
    /// estimate of when capacity frees up.
    Overloaded {
        /// Suggested client back-off before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request's deadline expired before the result was ready
    /// (HTTP 504). The in-flight simulation keeps running and its result
    /// still lands in the cache for the next request.
    DeadlineExpired,
    /// The engine is draining for shutdown and accepts no new work
    /// (HTTP 503).
    ShuttingDown,
}

impl JobError {
    /// A request-side error.
    pub fn bad_request(msg: impl Into<String>) -> JobError {
        JobError::BadRequest(msg.into())
    }
}

/// A core sweep or explore failure as the route's answer: an invalid plan
/// is the request's fault, anything else the simulation's.
impl From<SweepError> for JobError {
    fn from(e: SweepError) -> JobError {
        match e {
            SweepError::Plan(msg) => JobError::BadRequest(msg),
            other => JobError::Internal(other.to_string()),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::BadRequest(msg) => write!(f, "{msg}"),
            JobError::Internal(msg) => write!(f, "simulation failed: {msg}"),
            JobError::Overloaded { retry_after_ms } => write!(
                f,
                "server overloaded: job queue is full (retry after {retry_after_ms} ms)"
            ),
            JobError::DeadlineExpired => {
                write!(f, "deadline expired before the result was ready")
            }
            JobError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for JobError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_job_normalizes_and_keys() {
        let job = SimJob::builtin("resnet50");
        let norm = job.normalize().unwrap();
        assert_eq!(norm.topology.name(), "resnet50");
        assert_eq!(norm.key(), job.normalize().unwrap().key());
    }

    #[test]
    fn config_key_order_is_irrelevant() {
        let mut a = SimJob::builtin("alexnet");
        a.config = vec![
            ("ArrayHeight".into(), "16".into()),
            ("IfmapSramSz".into(), "64".into()),
        ];
        let mut b = SimJob::builtin("alexnet");
        b.config = vec![
            ("ifmapsramsz".into(), "64".into()),
            ("arrayheight".into(), "16".into()),
        ];
        assert_eq!(a.normalize().unwrap().key(), b.normalize().unwrap().key());
    }

    #[test]
    fn dataflow_spellings_are_equivalent() {
        let mut a = SimJob::builtin("alexnet");
        a.dataflow = Some("ws".into());
        let mut b = SimJob::builtin("alexnet");
        b.dataflow = Some("Weight_Stationary".into());
        assert_eq!(a.normalize().unwrap().key(), b.normalize().unwrap().key());
    }

    #[test]
    fn auto_dataflow_normalizes_and_keys_separately() {
        let mut auto = SimJob::builtin("alexnet");
        auto.dataflow = Some("Auto".into());
        let norm = auto.normalize().unwrap();
        assert!(norm.auto_dataflow);
        // `auto` must not collide with the dataflow it would select.
        let fixed = SimJob::builtin("alexnet").normalize().unwrap();
        assert!(!fixed.auto_dataflow);
        assert_ne!(norm.key(), fixed.key());
    }

    #[test]
    fn layer_tag_workloads_resolve() {
        let norm = SimJob::builtin("TF0").normalize().unwrap();
        assert_eq!(norm.topology.name(), "TF0");
        assert_eq!(norm.topology.len(), 1);
    }

    #[test]
    fn distinct_jobs_get_distinct_keys() {
        let a = SimJob::builtin("alexnet").normalize().unwrap().key();
        let mut j = SimJob::builtin("alexnet");
        j.grid = (2, 2);
        let b = j.normalize().unwrap().key();
        let c = SimJob::builtin("resnet18").normalize().unwrap().key();
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn layer_filter_selects_one_layer() {
        let mut job = SimJob::builtin("alexnet");
        let full = SimJob::builtin("alexnet").normalize().unwrap();
        let first = full.topology.layers()[0].name().to_owned();
        job.layer = Some(first.clone());
        let norm = job.normalize().unwrap();
        assert_eq!(norm.topology.len(), 1);
        assert_eq!(norm.topology.layers()[0].name(), first);

        job.layer = Some("no_such_layer".into());
        assert!(job.normalize().is_err());
    }

    #[test]
    fn json_round_trip() {
        let mut job = SimJob::builtin("resnet50");
        job.layer = Some("Conv1".into());
        job.config = vec![("ArrayHeight".into(), "16".into())];
        job.grid = (4, 2);
        job.dataflow = Some("ws".into());
        job.bandwidth = Some(32.0);
        job.batch = Some(2);
        let parsed = SimJob::from_json(&job.to_json()).unwrap();
        assert_eq!(parsed, job);
    }

    #[test]
    fn kv_line_parses() {
        let job = SimJob::from_kv_line(
            "network=resnet50 layer=Conv1 grid=2x2 dataflow=ws config.ArrayHeight=16",
        )
        .unwrap();
        assert_eq!(job.workload, Workload::Builtin("resnet50".into()));
        assert_eq!(job.layer.as_deref(), Some("Conv1"));
        assert_eq!(job.grid, (2, 2));
        assert_eq!(
            job.config,
            vec![("ArrayHeight".to_string(), "16".to_string())]
        );
        assert!(SimJob::from_kv_line("layer=Conv1").is_err());
        assert!(SimJob::from_kv_line("network=resnet50 bogus").is_err());
    }

    #[test]
    fn overload_errors_carry_retry_hints() {
        let shed = JobError::Overloaded {
            retry_after_ms: 250,
        };
        assert!(shed.to_string().contains("250 ms"));
        assert!(JobError::ShuttingDown.to_string().contains("shutting down"));
        assert!(JobError::DeadlineExpired.to_string().contains("deadline"));
    }

    #[test]
    fn rejects_bad_requests() {
        assert!(SimJob::from_json(&Json::parse(r#"{"grid": "2x2"}"#).unwrap()).is_err());
        assert!(
            SimJob::from_json(&Json::parse(r#"{"network": "x", "blah": 1}"#).unwrap()).is_err()
        );
        let mut job = SimJob::builtin("not_a_network");
        assert!(job.normalize().is_err());
        job = SimJob::builtin("alexnet");
        job.grid = (0, 2);
        assert!(job.normalize().is_err());
    }
}
