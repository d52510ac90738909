//! The job model: a simulation request, its normalized form, and the
//! content-addressed key that names its result.
//!
//! A [`SimJob`] is read once: every door (a `/simulate` body, a manifest
//! line, the `scale-sim run` flags) hands each field's text to
//! [`SimJob::set`], which keeps the typed value; normalizing reads no text.
//!
//! Two requests that *mean* the same simulation — reordered config keys,
//! `"ws"` vs `"weight_stationary"`, gratuitous whitespace in an inline
//! topology CSV, a different region offset — must map to the same
//! [`ContentKey`], because the key is what the server's result cache and
//! its single-flight dedup table are addressed by. The key therefore
//! hashes the simulator's own canonical serializations
//! (`SimConfig::to_config_string`, `topology_to_csv`), and the canonical
//! job text drops what no simulation reads. The key names whole jobs in
//! this crate only: the layer cache beneath it keys layers by
//! [`scalesim::layer_cache::LayerKey`], and a sweep batch dedups its
//! points by their workload, grid, array and dataflow choice.

use std::fmt;
use std::num::NonZeroU64;

use serde::{Deserialize, Serialize};

use scalesim::cache::ContentKey;
use scalesim::sweep::{DataflowChoice, SweepError};
use scalesim::{PartitionGrid, RegionOffsets, SimConfig, Simulator};
use scalesim_topology::{networks, parse_topology_csv, topology_to_csv, Topology};

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

/// A simulation request, as accepted over HTTP (`POST /simulate`), in
/// batch manifests and on the `scale-sim run` command line, each field
/// holding the value [`SimJob::set`] read.
#[derive(Debug, Clone, PartialEq)]
pub struct SimJob {
    /// The workload to run.
    pub workload: Workload,
    /// Restrict to a single layer of the workload, by layer name.
    pub layer: Option<String>,
    /// The paper's default configuration with each Table I override
    /// (`config.ArrayHeight`, ...) applied as it arrived.
    pub config: SimConfig,
    /// Scale-out partition grid; monolithic when not given.
    pub grid: Option<PartitionGrid>,
    /// Dataflow override: a fixed dataflow, or [`DataflowChoice::Auto`]
    /// to let the analytical model pick the fastest one per layer.
    pub dataflow: Option<DataflowChoice>,
    /// DRAM bandwidth in bytes/cycle; enables the stall model.
    pub bandwidth: Option<f64>,
    /// Batch the workload N times (lowers convs to GEMM).
    pub batch: Option<NonZeroU64>,
}

impl Default for SimJob {
    /// A job with no field given yet, no workload either, which a door
    /// fills in through [`SimJob::set`] and then [`SimJob::finish`]es.
    fn default() -> SimJob {
        SimJob {
            workload: Workload::Builtin(String::new()),
            layer: None,
            config: SimConfig::default(),
            grid: None,
            dataflow: None,
            bandwidth: None,
            batch: None,
        }
    }
}

impl SimJob {
    /// A job running a built-in network with defaults everywhere else.
    pub fn builtin(network: impl Into<String>) -> SimJob {
        SimJob {
            workload: Workload::Builtin(network.into()),
            ..SimJob::default()
        }
    }

    /// Whether the job names its workload.
    fn named(&self) -> bool {
        !matches!(&self.workload, Workload::Builtin(name) if name.is_empty())
    }

    /// The job a door read, once every field is in: an error worded
    /// `missing` when it names no workload.
    pub fn finish(self, missing: &str) -> Result<SimJob, JobError> {
        if !self.named() {
            return Err(JobError::bad_request(missing));
        }
        Ok(self)
    }

    /// Sets one job field from its text: the job-field grammar, which
    /// [`SimJob::from_json`], [`SimJob::from_kv_line`] and the `scale-sim
    /// run` flags all read through. Keys: `network`, `layer`, `grid`
    /// (`PRxPC`), `dataflow` (`os`/`ws`/`is` in any spelling, or `auto`),
    /// `bandwidth` (bytes/cycle, read as `DramBandwidth`), `batch`, and
    /// `config.<Key>`, a Table I override applied to [`SimJob::config`] by
    /// [`SimConfig::set`]. An inline topology is no key: JSON and `run -t`
    /// give the [`Workload`] itself.
    ///
    /// # Errors
    ///
    /// [`JobError::BadRequest`] on an unknown key, an invalid value, or a
    /// field given twice: on a job from [`SimJob::builtin`] the network
    /// counts as given. A repeated `config.<Key>` is no error — as in a
    /// config file, the last value wins. A message names its field once,
    /// so the command line can put its flag in front.
    pub fn set(&mut self, key: &str, text: &str) -> Result<(), JobError> {
        let given = match key {
            "network" => self.named(),
            "layer" => self.layer.is_some(),
            "grid" => self.grid.is_some(),
            "dataflow" => self.dataflow.is_some(),
            "bandwidth" => self.bandwidth.is_some(),
            "batch" => self.batch.is_some(),
            _ => false,
        };
        if given {
            return Err(match (key, &self.workload) {
                ("network", Workload::InlineCsv { .. }) => either_network_or_csv(),
                _ => JobError::bad_request(format!("job field `{key}` is given twice")),
            });
        }
        let bad = JobError::BadRequest;
        match key {
            "network" if text.is_empty() => return Err(bad("empty `network`".into())),
            "network" => self.workload = Workload::Builtin(text.to_owned()),
            "layer" => self.layer = Some(text.to_owned()),
            "grid" => self.grid = Some(text.parse().map_err(bad)?),
            "dataflow" => self.dataflow = Some(text.parse().map_err(bad)?),
            "bandwidth" => {
                let mut probe = SimConfig::default();
                probe
                    .set("DramBandwidth", text)
                    .map_err(|e| bad(e.to_string()))?;
                self.bandwidth = probe.dram_bandwidth;
            }
            "batch" => {
                let batch = text
                    .parse()
                    .map_err(|_| bad(format!("batch `{text}` is not a positive integer")))?;
                self.batch = Some(batch);
            }
            _ => match key.strip_prefix("config.") {
                Some(cfg_key) => self
                    .config
                    .set(cfg_key, text)
                    .map_err(|e| bad(format!("{key}: {e}")))?,
                None => return Err(bad(format!("unknown job field `{key}`"))),
            },
        }
        Ok(())
    }

    /// Parses a job from its JSON object form: each field's JSON type is
    /// checked and its value mapped onto [`SimJob::set`], a `config`
    /// object's entries as `config.<Key>`. `topology_csv` (an inline
    /// topology, instead of `network`) and its optional `topology_name`
    /// are JSON-only. A field given twice is an error.
    pub fn from_json(value: &Json) -> Result<SimJob, JobError> {
        let obj = value
            .as_object()
            .ok_or_else(|| JobError::bad_request("job must be a JSON object"))?;
        let mut job = SimJob::default();
        let mut csv_name = None;
        for (i, (field, value)) in obj.iter().enumerate() {
            if obj[..i].iter().any(|(k, _)| k == field) {
                return Err(JobError::bad_request(format!(
                    "job field `{field}` is given twice"
                )));
            }
            let (text, want) = match field.as_str() {
                "network" | "layer" | "dataflow" => (value.as_str().map(str::to_owned), "a string"),
                "grid" => (value.as_str().map(str::to_owned), "a string like \"2x2\""),
                "bandwidth" => (value.as_f64().and(value.as_text()), "a number"),
                "batch" => (value.as_u64().map(|n| n.to_string()), "a positive integer"),
                "topology_name" => {
                    csv_name = value.as_str();
                    continue;
                }
                "topology_csv" => {
                    if job.named() {
                        return Err(either_network_or_csv());
                    }
                    let csv = value
                        .as_str()
                        .ok_or_else(|| JobError::bad_request("`topology_csv` must be a string"))?;
                    job.workload = Workload::InlineCsv {
                        name: String::new(),
                        csv: csv.to_owned(),
                    };
                    continue;
                }
                "config" => {
                    let pairs = value
                        .as_object()
                        .ok_or_else(|| JobError::bad_request("`config` must be an object"))?;
                    for (k, v) in pairs {
                        let text = v.as_text().ok_or_else(|| {
                            JobError::bad_request(format!(
                                "config value for `{k}` must be a string or number"
                            ))
                        })?;
                        job.set(&format!("config.{k}"), &text)?;
                    }
                    continue;
                }
                other => {
                    return Err(JobError::bad_request(format!(
                        "unknown job field `{other}`"
                    )))
                }
            };
            let text =
                text.ok_or_else(|| JobError::bad_request(format!("`{field}` must be {want}")))?;
            job.set(field, &text)?;
        }
        if let Workload::InlineCsv { name, .. } = &mut job.workload {
            *name = csv_name.unwrap_or("inline").to_owned();
        }
        job.finish("job needs a workload: `network` or `topology_csv`")
    }

    /// Parses one `key=value`-pair manifest line, e.g.
    /// `network=resnet50 layer=Conv1 grid=2x2 dataflow=ws config.ArrayHeight=16`:
    /// each whitespace-separated token is one [`SimJob::set`].
    pub fn from_kv_line(line: &str) -> Result<SimJob, JobError> {
        let mut job = SimJob::default();
        for token in line.split_whitespace() {
            let (key, value) = token.split_once('=').ok_or_else(|| {
                JobError::bad_request(format!("manifest token `{token}` is not key=value"))
            })?;
            job.set(key, value)?;
        }
        job.finish("manifest line needs network=<name> (inline CSV is HTTP-only)")
    }

    /// The configuration the job simulates: [`SimJob::config`], its PE
    /// count checked, under a fixed dataflow and the bandwidth when given.
    pub fn effective_config(&self) -> Result<SimConfig, JobError> {
        self.config
            .check_array()
            .map_err(|e| JobError::bad_request(format!("config: {e}")))?;
        let mut config = self.config;
        if let Some(DataflowChoice::Fixed(dataflow)) = self.dataflow {
            config.dataflow = dataflow;
        }
        config.dram_bandwidth = self.bandwidth.or(config.dram_bandwidth);
        Ok(config)
    }

    /// Resolves the request into its canonical, executable form: the
    /// [`SimJob::effective_config`] and the workload, parsed, then
    /// layer-filtered and batched as asked.
    pub fn normalize(&self) -> Result<NormalizedJob, JobError> {
        let config = self.effective_config()?;
        let mut topology = match &self.workload {
            Workload::Builtin(name) => builtin_network(name)?,
            Workload::InlineCsv { name, csv } => parse_topology_csv(name, csv)
                .map_err(|e| JobError::bad_request(format!("topology parse error: {e}")))?,
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
            topology = networks::batched(&topology, batch.get())
                .map_err(|e| JobError::bad_request(e.to_string()))?;
        }
        Ok(NormalizedJob {
            config,
            topology,
            grid: self.grid.unwrap_or_else(PartitionGrid::monolithic),
            auto_dataflow: self.dataflow == Some(DataflowChoice::Auto),
        })
    }
}

fn either_network_or_csv() -> JobError {
    JobError::bad_request("give either `network` or `topology_csv`, not both")
}

/// Builds the topology for a built-in workload name: the shared
/// [`networks::by_name`] vocabulary (built-in networks plus the Table IV
/// layer tags like `TF0`), with server-flavored errors.
pub fn builtin_network(name: &str) -> Result<Topology, JobError> {
    networks::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = networks::BUILTIN.iter().map(|(n, _)| *n).collect();
        JobError::bad_request(format!(
            "unknown built-in workload `{name}` (try {}, or a Table IV layer tag like TF0)",
            names.join(", ")
        ))
    })
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
    /// The simulator the job runs on: the one place a job becomes a
    /// [`Simulator`], for the engine's workers and `scale-sim run` alike.
    pub fn simulator(&self) -> Simulator {
        let sim = Simulator::new(self.config).with_grid(self.grid);
        match self.auto_dataflow {
            true => sim.with_auto_dataflow(),
            false => sim,
        }
    }

    /// The content-addressed key naming this job's result: the
    /// FNV-1a/128 hash of its canonical job text.
    pub fn key(&self) -> ContentKey {
        ContentKey::from_content(self.canonical_job_text().as_bytes())
    }

    /// The text the key hashes. Every field a simulation reads appears via
    /// the simulator's own round-tripping serializers, so jobs that
    /// simulate identically serialize identically. The config is written
    /// with the default region offsets: layers are simulated at offset
    /// zero, and a job that sets no offset keeps the key it always had.
    /// The `auto` marker line appears only when set, for the same reason.
    fn canonical_job_text(&self) -> String {
        let config = SimConfig {
            offsets: RegionOffsets::default(),
            ..self.config
        };
        let mut text = format!(
            "config:\n{}\nworkload: {}\ngrid: {}x{}\ntopology:\n{}",
            config.to_config_string(),
            self.topology.name(),
            self.grid.rows(),
            self.grid.cols(),
            topology_to_csv(&self.topology),
        );
        if self.auto_dataflow {
            text.push_str("auto_dataflow: true\n");
        }
        text
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
    use scalesim::{ArrayShape, Dataflow};

    use super::*;

    /// `SimJob::builtin(network)` with each `(key, text)` set in order.
    fn job(network: &str, fields: &[(&str, &str)]) -> SimJob {
        let mut job = SimJob::builtin(network);
        for (key, text) in fields {
            job.set(key, text).unwrap();
        }
        job
    }

    #[test]
    fn builtin_job_normalizes_and_keys() {
        let job = SimJob::builtin("resnet50");
        let norm = job.normalize().unwrap();
        assert_eq!(norm.topology.name(), "resnet50");
        assert_eq!(norm.key(), job.normalize().unwrap().key());
    }

    #[test]
    fn config_key_order_is_irrelevant() {
        let a = job(
            "alexnet",
            &[("config.ArrayHeight", "16"), ("config.IfmapSramSz", "64")],
        );
        let b = job(
            "alexnet",
            &[("config.ifmapsramsz", "64"), ("config.arrayheight", "16")],
        );
        assert_eq!(a.normalize().unwrap().key(), b.normalize().unwrap().key());
    }

    #[test]
    fn dataflow_spellings_are_equivalent() {
        let a = job("alexnet", &[("dataflow", "ws")]);
        let b = job("alexnet", &[("dataflow", "Weight_Stationary")]);
        assert_eq!(a.normalize().unwrap().key(), b.normalize().unwrap().key());
    }

    #[test]
    fn auto_dataflow_normalizes_and_keys_separately() {
        let auto = job("alexnet", &[("dataflow", "Auto")]);
        let norm = auto.normalize().unwrap();
        assert!(norm.auto_dataflow);
        // `auto` must not collide with the dataflow it would select.
        let fixed = SimJob::builtin("alexnet").normalize().unwrap();
        assert!(!fixed.auto_dataflow);
        assert_ne!(norm.key(), fixed.key());
    }

    #[test]
    fn canonical_text_marks_auto_and_ignores_offsets() {
        let fixed = SimJob::builtin("TF1").normalize().unwrap();
        let auto = NormalizedJob {
            auto_dataflow: true,
            ..fixed.clone()
        };
        let moved = NormalizedJob {
            config: SimConfig {
                offsets: RegionOffsets::ZERO,
                ..fixed.config
            },
            ..fixed.clone()
        };
        let text = fixed.canonical_job_text();
        assert!(text.starts_with("config:\n"));
        assert!(auto.canonical_job_text().ends_with("auto_dataflow: true\n"));
        assert_ne!(auto.canonical_job_text(), text);
        assert_eq!(moved.canonical_job_text(), text);
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
        let b = job("alexnet", &[("grid", "2x2")])
            .normalize()
            .unwrap()
            .key();
        let c = SimJob::builtin("resnet18").normalize().unwrap().key();
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn layer_filter_selects_one_layer() {
        let full = SimJob::builtin("alexnet").normalize().unwrap();
        let first = full.topology.layers()[0].name().to_owned();
        let norm = job("alexnet", &[("layer", &first)]).normalize().unwrap();
        assert_eq!(norm.topology.len(), 1);
        assert_eq!(norm.topology.layers()[0].name(), first);

        let missing = job("alexnet", &[("layer", "no_such_layer")]);
        assert!(missing.normalize().is_err());
    }

    #[test]
    fn json_and_manifest_doors_read_the_same_job() {
        let json = Json::parse(
            r#"{"network": "resnet50", "layer": "Conv1", "grid": "4x2", "dataflow": "ws",
                "bandwidth": 32, "batch": 2,
                "config": {"ArrayHeight": 16, "IfmapSramSz": "64", "ArrayWidth": 8.0}}"#,
        )
        .unwrap();
        let kv = "network=resnet50 layer=Conv1 grid=4x2 dataflow=ws bandwidth=32 batch=2 \
                  config.ArrayHeight=16 config.IfmapSramSz=64 config.ArrayWidth=8";
        let want = SimJob {
            workload: Workload::Builtin("resnet50".into()),
            layer: Some("Conv1".into()),
            config: SimConfig {
                array: ArrayShape::new(16, 8),
                ifmap_sram_kb: 64,
                ..SimConfig::default()
            },
            grid: Some(PartitionGrid::new(4, 2)),
            dataflow: Some(DataflowChoice::Fixed(Dataflow::WeightStationary)),
            bandwidth: Some(32.0),
            batch: NonZeroU64::new(2),
        };
        assert_eq!(SimJob::from_json(&json).unwrap(), want);
        assert_eq!(SimJob::from_kv_line(kv).unwrap(), want);

        let inline = Json::parse(r#"{"topology_csv": "L0,8,8,3,3,4,8,1"}"#).unwrap();
        let job = SimJob::from_json(&inline).unwrap();
        assert_eq!(
            job.workload,
            Workload::InlineCsv {
                name: "inline".into(),
                csv: "L0,8,8,3,3,4,8,1".into()
            }
        );
        assert_eq!(job.grid, None);
        assert_eq!(job.normalize().unwrap().grid, PartitionGrid::monolithic());
    }

    #[test]
    fn a_repeated_job_field_is_an_error_in_both_doors() {
        for body in [
            r#"{"network": "TF0", "network": "TF1"}"#,
            r#"{"network": "TF0", "grid": "1x1", "grid": "2x2"}"#,
            r#"{"network": "TF0", "config": {"ArrayHeight": 8}, "config": {"ArrayWidth": 8}}"#,
            r#"{"topology_csv": "L0,8,8,3,3,4,8,1", "topology_csv": "L1,8,8,3,3,4,8,1"}"#,
        ] {
            let err = SimJob::from_json(&Json::parse(body).unwrap()).unwrap_err();
            assert!(err.to_string().contains("is given twice"), "{body}: {err}");
        }
        for line in [
            "network=TF0 network=TF1",
            "network=TF0 grid=1x1 grid=2x2",
            "network=TF0 dataflow=ws dataflow=os",
            "network=TF0 batch=1 batch=1",
        ] {
            let err = SimJob::from_kv_line(line).unwrap_err();
            assert!(err.to_string().contains("is given twice"), "{line}: {err}");
        }
        // A repeated override keeps the config file's rule: the last wins.
        let kv = SimJob::from_kv_line("network=TF0 config.ArrayHeight=8 config.arrayheight=16");
        let json =
            Json::parse(r#"{"network": "TF0", "config": {"ArrayHeight": 8, "arrayheight": 16}}"#);
        for job in [kv.unwrap(), SimJob::from_json(&json.unwrap()).unwrap()] {
            assert_eq!(job.normalize().unwrap().config.array.rows(), 16);
        }
    }

    #[test]
    fn a_smuggled_config_line_is_a_bad_request() {
        let body = r#"{"network": "TF0", "config": {"ArrayHeight": "8\nArrayWidth : 4"}}"#;
        let err = SimJob::from_json(&Json::parse(body).unwrap()).unwrap_err();
        assert!(matches!(err, JobError::BadRequest(_)), "{err}");
        assert!(err.to_string().contains("ArrayHeight"), "{err}");
        // `set` refuses it at every door, and a key that is a config-file
        // comment is no longer skipped.
        for (key, value) in [("ArrayHeight", "8\nArrayWidth : 4"), ("# x", "1")] {
            let err = SimJob::builtin("TF0")
                .set(&format!("config.{key}"), value)
                .unwrap_err();
            assert!(matches!(err, JobError::BadRequest(_)), "{err}");
        }
    }

    #[test]
    fn kv_line_parses() {
        let job = SimJob::from_kv_line(
            "network=resnet50 layer=Conv1 grid=2x2 dataflow=ws config.ArrayHeight=16",
        )
        .unwrap();
        assert_eq!(job.workload, Workload::Builtin("resnet50".into()));
        assert_eq!(job.layer.as_deref(), Some("Conv1"));
        assert_eq!(job.grid, Some(PartitionGrid::new(2, 2)));
        assert_eq!(job.config.array.rows(), 16);
        assert!(SimJob::from_kv_line("layer=Conv1").is_err());
        assert!(SimJob::from_kv_line("network=resnet50 bogus").is_err());
    }

    /// Each value error names its field once, so a door that puts its own
    /// name in front (the command line's flag) does not repeat it.
    #[test]
    fn set_words_each_value_error_once() {
        for (key, text, message) in [
            ("grid", "4", "grid `4` is not PRxPC with nonzero counts"),
            ("dataflow", "rs", "bad dataflow `rs` (want os/ws/is/auto)"),
            (
                "bandwidth",
                "-3",
                "parameter `DramBandwidth` must be nonzero",
            ),
            ("batch", "0", "batch `0` is not a positive integer"),
            ("batch", "x", "batch `x` is not a positive integer"),
            ("network", "", "empty `network`"),
            (
                "config.ArrayWidth",
                "0",
                "config.ArrayWidth: parameter `ArrayWidth` must be nonzero",
            ),
        ] {
            let err = SimJob::default().set(key, text).unwrap_err();
            assert_eq!(err, JobError::BadRequest(message.into()), "{key}={text}");
        }
    }

    #[test]
    fn a_job_without_a_workload_does_not_finish() {
        let err = SimJob::default().finish("no workload given").unwrap_err();
        assert_eq!(err, JobError::BadRequest("no workload given".into()));
        let mut named = SimJob::default();
        named.set("network", "TF1").unwrap();
        assert_eq!(named.clone().finish("unused").unwrap(), named);
        let inline = SimJob {
            workload: Workload::InlineCsv {
                name: "tiny".into(),
                csv: "L0,8,8,3,3,4,8,1".into(),
            },
            ..SimJob::default()
        };
        assert_eq!(inline.clone().finish("unused").unwrap(), inline);
    }

    #[test]
    fn effective_config_lays_dataflow_and_bandwidth_over_the_config() {
        let base = job(
            "TF1",
            &[("config.Dataflow", "os"), ("config.DramBandwidth", "8")],
        );
        let config = base.effective_config().unwrap();
        assert_eq!(config, base.config);
        assert_eq!(config.dataflow, Dataflow::OutputStationary);
        assert_eq!(config.dram_bandwidth, Some(8.0));

        let over = job(
            "TF1",
            &[
                ("config.Dataflow", "os"),
                ("config.DramBandwidth", "8"),
                ("dataflow", "is"),
                ("bandwidth", "32"),
            ],
        );
        let config = over.effective_config().unwrap();
        assert_eq!(config.dataflow, Dataflow::InputStationary);
        assert_eq!(config.dram_bandwidth, Some(32.0));
        assert_eq!(over.normalize().unwrap().config, config);

        // `auto` is no fixed dataflow: the config's stays as the label.
        let auto = job("TF1", &[("config.Dataflow", "ws"), ("dataflow", "auto")]);
        let config = auto.effective_config().unwrap();
        assert_eq!(config.dataflow, Dataflow::WeightStationary);
        assert_eq!(config.dram_bandwidth, None);
    }

    #[test]
    fn effective_config_refuses_an_array_whose_pe_count_overflows() {
        let rows = 1u64 << 32;
        let big = job(
            "TF1",
            &[
                ("config.ArrayHeight", &rows.to_string()),
                ("config.ArrayWidth", &rows.to_string()),
            ],
        );
        let err = big.effective_config().unwrap_err();
        assert!(matches!(err, JobError::BadRequest(_)), "{err}");
        assert!(err.to_string().starts_with("config: "), "{err}");
        assert_eq!(big.normalize().unwrap_err(), err);
    }

    #[test]
    fn a_normalized_job_runs_on_its_config_grid_and_dataflow_choice() {
        for (dataflow, auto) in [("os", false), ("auto", true)] {
            let norm = job("alexnet", &[("grid", "2x4"), ("dataflow", dataflow)])
                .normalize()
                .unwrap();
            assert_eq!(norm.auto_dataflow, auto);
            let sim = norm.simulator();
            assert_eq!(sim.config(), &norm.config);
            assert_eq!(sim.grid(), PartitionGrid::new(2, 4));
            // A fixed dataflow runs every layer on the job's config; `auto`
            // re-selects per layer as an auto-dataflow simulator does.
            let auto_sim = Simulator::new(norm.config).with_auto_dataflow();
            for layer in norm.topology.layers() {
                let want = match auto {
                    true => auto_sim.effective_config(layer),
                    false => norm.config,
                };
                assert_eq!(sim.effective_config(layer), want, "{}", layer.name());
            }
            let relabelled = norm
                .topology
                .layers()
                .iter()
                .any(|l| sim.effective_config(l).dataflow != norm.config.dataflow);
            assert_eq!(relabelled, auto, "{dataflow}");
        }
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
        assert!(SimJob::builtin("not_a_network").normalize().is_err());
        assert!(SimJob::builtin("alexnet").set("grid", "0x2").is_err());
    }

    #[test]
    fn a_grid_whose_partition_count_overflows_is_a_bad_request() {
        let json = Json::parse(r#"{"network": "TF1", "grid": "9223372036854775809x2"}"#).unwrap();
        let err = SimJob::from_json(&json).unwrap_err();
        assert!(matches!(err, JobError::BadRequest(_)), "{err}");
        assert!(err.to_string().contains("9223372036854775809x2"), "{err}");
        let err = SimJob::from_kv_line("network=TF1 grid=9223372036854775809x2").unwrap_err();
        assert!(matches!(err, JobError::BadRequest(_)), "{err}");
    }

    #[test]
    fn a_bad_inline_csv_is_a_topology_parse_error() {
        let json = Json::parse(r#"{"topology_csv": "L0,8,8"}"#).unwrap();
        let err = SimJob::from_json(&json).unwrap().normalize().unwrap_err();
        assert!(
            err.to_string().starts_with("topology parse error: "),
            "{err}"
        );
    }
}
