//! The hardware configuration (Table I of the paper) and its file format.
//!
//! SCALE-Sim reads an INI-style config file:
//!
//! ```text
//! [general]
//! run_name = my_run
//!
//! [architecture_presets]
//! ArrayHeight : 32
//! ArrayWidth : 32
//! IfmapSramSz : 512
//! FilterSramSz : 512
//! OfmapSramSz : 256
//! IfmapOffset : 0
//! FilterOffset : 10000000
//! OfmapOffset : 20000000
//! Dataflow : os
//! ```
//!
//! [`parse_config`] accepts that format (`:` or `=` separators, sections
//! and comments ignored, keys case-insensitive); [`SimConfig::to_config_string`]
//! writes it back.

use serde::{Deserialize, Serialize};

use scalesim_memory::{OperandBufferSpec, RegionOffsets};
use scalesim_systolic::ArrayShape;
use scalesim_topology::Dataflow;

use crate::error::ParseConfigError;

/// Complete hardware configuration of one simulated accelerator
/// (Table I of the paper, plus a word-size extension).
///
/// SRAM sizes are the *total* budget; when the simulator runs a partitioned
/// (scale-out) configuration the budget is divided evenly among partitions,
/// as in Sec. IV-A of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Shape of each systolic array (`ArrayHeight × ArrayWidth`).
    pub array: ArrayShape,
    /// Mapping dataflow.
    pub dataflow: Dataflow,
    /// IFMAP working-set SRAM in KB.
    pub ifmap_sram_kb: u64,
    /// Filter working-set SRAM in KB.
    pub filter_sram_kb: u64,
    /// OFMAP working-set SRAM in KB.
    pub ofmap_sram_kb: u64,
    /// Base addresses of the three operand regions.
    pub offsets: RegionOffsets,
    /// Bytes per data word (1 in the original tool's element-granular
    /// traces).
    pub word_bytes: u64,
    /// Available DRAM interface bandwidth in bytes/cycle. `None` (the
    /// default) reproduces SCALE-Sim's stall-free model, which *reports*
    /// the required bandwidth; `Some(b)` additionally runs the finite-
    /// bandwidth stall model and fills [`crate::LayerReport::stall`].
    pub dram_bandwidth: Option<f64>,
}

impl Default for SimConfig {
    /// The paper's experimental setup: a 32×32 OS array with 512 KB IFMAP,
    /// 512 KB filter and 256 KB OFMAP SRAM (Sec. IV-A), 1-byte words.
    fn default() -> Self {
        SimConfig {
            array: ArrayShape::square(32),
            dataflow: Dataflow::OutputStationary,
            ifmap_sram_kb: 512,
            filter_sram_kb: 512,
            ofmap_sram_kb: 256,
            offsets: RegionOffsets::default(),
            word_bytes: 1,
            dram_bandwidth: None,
        }
    }
}

impl SimConfig {
    /// Starts a builder initialized with the defaults.
    pub fn builder() -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig::default(),
        }
    }

    /// The IFMAP buffer spec, scaled down for `partitions` partitions.
    pub fn ifmap_buffer(&self, partitions: u64) -> OperandBufferSpec {
        scaled_spec(self.ifmap_sram_kb, self.word_bytes, partitions)
    }

    /// The filter buffer spec, scaled down for `partitions` partitions.
    pub fn filter_buffer(&self, partitions: u64) -> OperandBufferSpec {
        scaled_spec(self.filter_sram_kb, self.word_bytes, partitions)
    }

    /// The OFMAP buffer spec, scaled down for `partitions` partitions.
    pub fn ofmap_buffer(&self, partitions: u64) -> OperandBufferSpec {
        scaled_spec(self.ofmap_sram_kb, self.word_bytes, partitions)
    }

    /// Serializes to the SCALE-Sim config file format; the result parses
    /// back to an equal config via [`parse_config`].
    pub fn to_config_string(&self) -> String {
        format!(
            "[architecture_presets]\n\
             ArrayHeight : {}\n\
             ArrayWidth : {}\n\
             IfmapSramSz : {}\n\
             FilterSramSz : {}\n\
             OfmapSramSz : {}\n\
             IfmapOffset : {}\n\
             FilterOffset : {}\n\
             OfmapOffset : {}\n\
             WordBytes : {}\n\
             Dataflow : {}\n\
             {}",
            self.array.rows(),
            self.array.cols(),
            self.ifmap_sram_kb,
            self.filter_sram_kb,
            self.ofmap_sram_kb,
            self.offsets.ifmap,
            self.offsets.filter,
            self.offsets.ofmap,
            self.word_bytes,
            self.dataflow,
            match self.dram_bandwidth {
                Some(bw) => format!("DramBandwidth : {bw}\n"),
                None => String::new(),
            },
        )
    }
}

/// One partition's share of an SRAM of `kb` kilobytes. The byte count
/// saturates like [`OperandBufferSpec::from_kb`]: a size past `u64::MAX`
/// bytes is the unbounded buffer, not a buffer of the bytes left after
/// the product wraps.
fn scaled_spec(kb: u64, word_bytes: u64, partitions: u64) -> OperandBufferSpec {
    OperandBufferSpec {
        size_bytes: kb.saturating_mul(1024) / partitions.max(1),
        word_bytes,
    }
}

/// Incremental constructor for [`SimConfig`].
///
/// ```
/// use scalesim::{ArrayShape, Dataflow, SimConfig};
///
/// let config = SimConfig::builder()
///     .array(ArrayShape::new(128, 128))
///     .dataflow(Dataflow::WeightStationary)
///     .sram_kb(1024, 1024, 512)
///     .build();
/// assert_eq!(config.array.macs(), 16384);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
}

impl SimConfigBuilder {
    /// Sets the array shape.
    pub fn array(mut self, array: ArrayShape) -> Self {
        self.config.array = array;
        self
    }

    /// Sets the dataflow.
    pub fn dataflow(mut self, dataflow: Dataflow) -> Self {
        self.config.dataflow = dataflow;
        self
    }

    /// Sets the three SRAM budgets in KB (ifmap, filter, ofmap).
    pub fn sram_kb(mut self, ifmap: u64, filter: u64, ofmap: u64) -> Self {
        self.config.ifmap_sram_kb = ifmap;
        self.config.filter_sram_kb = filter;
        self.config.ofmap_sram_kb = ofmap;
        self
    }

    /// Sets the operand region offsets.
    pub fn offsets(mut self, offsets: RegionOffsets) -> Self {
        self.config.offsets = offsets;
        self
    }

    /// Sets the word size in bytes.
    pub fn word_bytes(mut self, bytes: u64) -> Self {
        self.config.word_bytes = bytes;
        self
    }

    /// Constrains the DRAM interface to `bytes_per_cycle`, enabling the
    /// stall model.
    pub fn dram_bandwidth(mut self, bytes_per_cycle: f64) -> Self {
        self.config.dram_bandwidth = Some(bytes_per_cycle);
        self
    }

    /// Finishes the configuration.
    pub fn build(self) -> SimConfig {
        self.config
    }
}

/// Parses the SCALE-Sim configuration file format.
///
/// Sections (`[...]`), blank lines and comments (`#`, `;`, `//`) are
/// ignored. Separators may be `:` or `=`. Keys are matched
/// case-insensitively against Table I (`ArrayHeight`, `ArrayWidth`,
/// `IfmapSramSz`, `FilterSramSz`, `OfmapSramSz`, `IfmapOffset`,
/// `FilterOffset`, `OfmapOffset`, `Dataflow`), plus the extensions
/// `WordBytes`, and the original file keys `run_name` / `topology` (parsed
/// and ignored here — the CLI consumes them).
///
/// # Errors
///
/// Returns [`ParseConfigError`] on malformed lines, non-numeric values,
/// unknown keys, invalid dataflow names, or zero array/word dimensions.
///
/// ```
/// use scalesim::parse_config;
///
/// let cfg = parse_config("ArrayHeight: 16\nArrayWidth = 64\nDataflow: ws\n")?;
/// assert_eq!(cfg.array.rows(), 16);
/// assert_eq!(cfg.array.cols(), 64);
/// # Ok::<(), scalesim::ParseConfigError>(())
/// ```
pub fn parse_config(text: &str) -> Result<SimConfig, ParseConfigError> {
    let defaults = SimConfig::default();
    let mut rows = defaults.array.rows();
    let mut cols = defaults.array.cols();
    let mut config = defaults;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty()
            || line.starts_with('#')
            || line.starts_with(';')
            || line.starts_with("//")
            || (line.starts_with('[') && line.ends_with(']'))
        {
            continue;
        }
        let (key, value) = line
            .split_once([':', '='])
            .map(|(k, v)| (k.trim(), v.trim()))
            .ok_or_else(|| ParseConfigError::Malformed {
                line: line_no,
                text: line.to_owned(),
            })?;
        let lower = key.to_ascii_lowercase();
        let num = |key: &str| -> Result<u64, ParseConfigError> {
            value
                .parse::<u64>()
                .map_err(|_| ParseConfigError::InvalidNumber {
                    line: line_no,
                    key: key.to_owned(),
                    text: value.to_owned(),
                })
        };
        match lower.as_str() {
            "arrayheight" => rows = num(key)?,
            "arraywidth" => cols = num(key)?,
            "ifmapsramsz" => config.ifmap_sram_kb = num(key)?,
            "filtersramsz" => config.filter_sram_kb = num(key)?,
            "ofmapsramsz" => config.ofmap_sram_kb = num(key)?,
            "ifmapoffset" => config.offsets.ifmap = num(key)?,
            "filteroffset" => config.offsets.filter = num(key)?,
            "ofmapoffset" => config.offsets.ofmap = num(key)?,
            "wordbytes" => config.word_bytes = num(key)?,
            "drambandwidth" => {
                let bw: f64 = value.parse().map_err(|_| ParseConfigError::InvalidNumber {
                    line: line_no,
                    key: key.to_owned(),
                    text: value.to_owned(),
                })?;
                if !(bw.is_finite() && bw > 0.0) {
                    return Err(ParseConfigError::ZeroParameter {
                        key: "DramBandwidth",
                    });
                }
                config.dram_bandwidth = Some(bw);
            }
            "dataflow" => {
                config.dataflow = value
                    .parse()
                    .map_err(|_| ParseConfigError::InvalidDataflow {
                        line: line_no,
                        text: value.to_owned(),
                    })?;
            }
            // Keys present in original config files but consumed elsewhere.
            "run_name" | "runname" | "topology" => {}
            _ => {
                return Err(ParseConfigError::UnknownKey {
                    line: line_no,
                    key: key.to_owned(),
                })
            }
        }
    }

    if rows == 0 {
        return Err(ParseConfigError::ZeroParameter { key: "ArrayHeight" });
    }
    if cols == 0 {
        return Err(ParseConfigError::ZeroParameter { key: "ArrayWidth" });
    }
    if rows.checked_mul(cols).is_none() {
        return Err(ParseConfigError::ArrayTooLarge { rows, cols });
    }
    if config.word_bytes == 0 {
        return Err(ParseConfigError::ZeroParameter { key: "WordBytes" });
    }
    config.array = ArrayShape::new(rows, cols);
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_array_whose_pe_count_overflows_is_rejected() {
        let parse = |rows: u64, cols: u64| {
            parse_config(&format!("ArrayHeight : {rows}\nArrayWidth : {cols}\n"))
        };
        for (rows, cols) in [(1 << 32, 1 << 32), ((1 << 32) + 1, 1 << 32), (u64::MAX, 2)] {
            let err = parse(rows, cols).unwrap_err();
            assert_eq!(err, ParseConfigError::ArrayTooLarge { rows, cols });
            assert!(
                err.to_string().contains(&format!("{rows} x {cols}")),
                "{err}"
            );
        }
        let largest = parse(1 << 32, (1 << 32) - 1).unwrap();
        assert_eq!(largest.array.macs(), u64::MAX - (1 << 32) + 1);
    }

    #[test]
    fn default_matches_paper_setup() {
        let c = SimConfig::default();
        assert_eq!(c.array, ArrayShape::square(32));
        assert_eq!(c.dataflow, Dataflow::OutputStationary);
        assert_eq!(
            (c.ifmap_sram_kb, c.filter_sram_kb, c.ofmap_sram_kb),
            (512, 512, 256)
        );
    }

    #[test]
    fn config_round_trips_through_file_format() {
        let original = SimConfig::builder()
            .array(ArrayShape::new(8, 256))
            .dataflow(Dataflow::InputStationary)
            .sram_kb(64, 32, 16)
            .word_bytes(2)
            .build();
        let parsed = parse_config(&original.to_config_string()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn bandwidth_round_trips_and_validates() {
        let original = SimConfig::builder().dram_bandwidth(16.5).build();
        let parsed = parse_config(&original.to_config_string()).unwrap();
        assert_eq!(parsed.dram_bandwidth, Some(16.5));
        assert!(matches!(
            parse_config("DramBandwidth: 0\n"),
            Err(ParseConfigError::ZeroParameter { .. })
        ));
        assert!(parse_config("DramBandwidth: fast\n").is_err());
    }

    #[test]
    fn parser_tolerates_sections_comments_and_separators() {
        let text = "\
            [general]\n\
            run_name = test\n\
            # a comment\n\
            ; another\n\
            // and another\n\
            [architecture_presets]\n\
            ArrayHeight : 16\n\
            arraywidth = 8\n\
            Dataflow: WS\n";
        let c = parse_config(text).unwrap();
        assert_eq!(c.array, ArrayShape::new(16, 8));
        assert_eq!(c.dataflow, Dataflow::WeightStationary);
        // Unspecified parameters keep their defaults.
        assert_eq!(c.ifmap_sram_kb, 512);
    }

    #[test]
    fn parser_rejects_bad_input() {
        assert!(matches!(
            parse_config("ArrayHeight 32\n"),
            Err(ParseConfigError::Malformed { line: 1, .. })
        ));
        assert!(matches!(
            parse_config("ArrayHeight: many\n"),
            Err(ParseConfigError::InvalidNumber { .. })
        ));
        assert!(matches!(
            parse_config("Dataflow: rs\n"),
            Err(ParseConfigError::InvalidDataflow { .. })
        ));
        assert!(matches!(
            parse_config("Bogus: 3\n"),
            Err(ParseConfigError::UnknownKey { .. })
        ));
        assert!(matches!(
            parse_config("ArrayHeight: 0\n"),
            Err(ParseConfigError::ZeroParameter { key: "ArrayHeight" })
        ));
    }

    #[test]
    fn buffer_specs_divide_across_partitions() {
        let c = SimConfig::default();
        assert_eq!(c.ifmap_buffer(1).size_bytes, 512 * 1024);
        assert_eq!(c.ifmap_buffer(4).size_bytes, 128 * 1024);
        assert_eq!(c.ofmap_buffer(2).size_bytes, 128 * 1024);
        // Zero partitions clamps rather than dividing by zero.
        assert_eq!(c.filter_buffer(0).size_bytes, 512 * 1024);
    }

    #[test]
    fn an_enormous_sram_is_unbounded_not_empty() {
        // `IfmapSramSz = 18014398509481984` parses; times 1024 it is 2^64
        // bytes, which used to wrap to a buffer of none.
        let c = parse_config("IfmapSramSz : 18014398509481984\n").unwrap();
        assert_eq!(c.ifmap_sram_kb, 1 << 54);
        assert_eq!(c.ifmap_buffer(1).size_bytes, u64::MAX);
        assert_eq!(c.ifmap_buffer(4).size_bytes, u64::MAX / 4);
        let c = SimConfig::builder().sram_kb(u64::MAX, 512, 256).build();
        assert_eq!(c.ifmap_buffer(1).size_bytes, u64::MAX);
    }

    #[test]
    fn builder_chains() {
        let c = SimConfig::builder()
            .array(ArrayShape::new(4, 4))
            .offsets(RegionOffsets {
                ifmap: 1,
                filter: 2,
                ofmap: 3,
            })
            .build();
        assert_eq!(c.offsets.filter, 2);
    }
}
