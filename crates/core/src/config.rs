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
//! and comments ignored), reading each value with [`SimConfig::set`];
//! [`SimConfig::to_config_string`] writes it back.

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

    /// Sets Table I parameter `key` (any of [`parse_config`]'s, matched
    /// case-insensitively; key and value trimmed) from its text: the one
    /// place a key is matched and a value checked, for config files, plan
    /// and job overrides and the CLI's `-d`/`-b` alike.
    ///
    /// # Errors
    ///
    /// [`ParseConfigError`] without a line number: a line break in the key
    /// or value or `:`/`=` in the key is `Malformed`; unknown keys, bad
    /// numbers or dataflows and zero dimensions are rejected too.
    ///
    /// ```
    /// use scalesim::SimConfig;
    ///
    /// let mut cfg = SimConfig::default();
    /// cfg.set("arrayheight", "16")?;
    /// assert_eq!(cfg.array.rows(), 16);
    /// assert!(cfg.set("ArrayHeight", "8\nArrayWidth : 4").is_err());
    /// # Ok::<(), scalesim::ParseConfigError>(())
    /// ```
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ParseConfigError> {
        self.set_at(0, key, value)
    }

    /// [`SimConfig::set`] for a value on 1-based file line `line` (0: none).
    fn set_at(&mut self, line: usize, key: &str, value: &str) -> Result<(), ParseConfigError> {
        use ParseConfigError::*;
        if [key, value].iter().any(|s| s.contains(['\n', '\r'])) || key.contains([':', '=']) {
            let text = format!("{key} : {value}").escape_debug().to_string();
            return Err(Malformed { line, text });
        }
        let (key, value) = (key.trim(), value.trim());
        let invalid = || InvalidNumber {
            line,
            key: key.to_owned(),
            text: value.to_owned(),
        };
        let num = || value.parse::<u64>().map_err(|_| invalid());
        let zero = |key| ZeroParameter { key };
        let nonzero = |key| match num()? {
            0 => Err(zero(key)),
            n => Ok(n),
        };
        let (rows, cols) = (self.array.rows(), self.array.cols());
        match key.to_ascii_lowercase().as_str() {
            "arrayheight" => self.array = ArrayShape::new(nonzero("ArrayHeight")?, cols),
            "arraywidth" => self.array = ArrayShape::new(rows, nonzero("ArrayWidth")?),
            "ifmapsramsz" => self.ifmap_sram_kb = num()?,
            "filtersramsz" => self.filter_sram_kb = num()?,
            "ofmapsramsz" => self.ofmap_sram_kb = num()?,
            "ifmapoffset" => self.offsets.ifmap = num()?,
            "filteroffset" => self.offsets.filter = num()?,
            "ofmapoffset" => self.offsets.ofmap = num()?,
            "wordbytes" => self.word_bytes = nonzero("WordBytes")?,
            "drambandwidth" => match value.parse::<f64>().map_err(|_| invalid())? {
                bw if bw.is_finite() && bw > 0.0 => self.dram_bandwidth = Some(bw),
                _ => return Err(zero("DramBandwidth")),
            },
            "dataflow" => {
                let text = value.to_owned();
                self.dataflow = value.parse().map_err(|_| InvalidDataflow { line, text })?;
            }
            // Keys present in original config files but consumed elsewhere.
            "run_name" | "runname" | "topology" => {}
            _ => {
                return Err(UnknownKey {
                    line,
                    key: key.to_owned(),
                })
            }
        }
        Ok(())
    }

    /// [`ParseConfigError::ArrayTooLarge`] unless `ArrayHeight × ArrayWidth`
    /// fits in 64 bits: what no single [`SimConfig::set`] decides, asked
    /// once a door's keys are in (a file may raise one dimension first).
    pub fn check_array(&self) -> Result<(), ParseConfigError> {
        let (rows, cols) = (self.array.rows(), self.array.cols());
        rows.checked_mul(cols)
            .map(drop)
            .ok_or(ParseConfigError::ArrayTooLarge { rows, cols })
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

/// Parses the SCALE-Sim configuration file format: the line grammar
/// around [`SimConfig::set`]. Sections (`[...]`), blank lines and comments
/// (`#`, `;`, `//`) are ignored; separators may be `:` or `=`. Keys are
/// Table I's (`ArrayHeight`, `ArrayWidth`, `IfmapSramSz`, `FilterSramSz`,
/// `OfmapSramSz`, `IfmapOffset`, `FilterOffset`, `OfmapOffset`,
/// `Dataflow`), the extensions `WordBytes` and `DramBandwidth`, and the
/// original file keys `run_name` / `topology` (ignored here — the CLI
/// consumes them). A later line replaces an earlier one's value; every
/// value must be valid.
///
/// # Errors
///
/// [`ParseConfigError`] on malformed lines and on what [`SimConfig::set`]
/// (at its line) or [`SimConfig::check_array`] rejects.
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
    let mut config = SimConfig::default();
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
        let (key, value) =
            line.split_once([':', '='])
                .ok_or_else(|| ParseConfigError::Malformed {
                    line: line_no,
                    text: line.to_owned(),
                })?;
        config.set_at(line_no, key, value)?;
    }
    config.check_array()?;
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
    fn set_rejects_a_smuggled_line_and_a_separator_in_a_key() {
        let mut c = SimConfig::default();
        for (key, value) in [
            ("ArrayHeight", "8\nArrayWidth : 4"),
            ("ArrayHeight", "8\n"),
            ("run_name", "x\r\nArrayWidth = 4"),
            ("ArrayHeight\nArrayWidth", "4"),
            ("ArrayWidth : 4 #", "8"),
            ("run_name = x", "y"),
        ] {
            let err = c.set(key, value).unwrap_err();
            assert!(
                matches!(err, ParseConfigError::Malformed { line: 0, .. }),
                "{key:?} = {value:?}: {err:?}"
            );
            assert!(!err.to_string().contains('\n'), "{err}");
        }
        // A comment is no key, and a rejected value changes nothing.
        assert!(matches!(
            c.set("# x", "1"),
            Err(ParseConfigError::UnknownKey { .. })
        ));
        assert_eq!(c, SimConfig::default());
    }

    #[test]
    fn set_is_the_file_grammar_without_lines() {
        let mut c = SimConfig::default();
        c.set(" arrayHEIGHT ", " 16 ").unwrap();
        c.set("run_name", "anything: at all").unwrap();
        c.set("DramBandwidth", "12.5").unwrap();
        assert_eq!(
            c,
            parse_config("ArrayHeight = 16\nDramBandwidth : 12.5\n").unwrap()
        );
        let err = c.set("ArrayHeight", "many").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parameter `ArrayHeight` is not a number: `many`"
        );
        assert_eq!(
            parse_config("\nArrayHeight: many\n")
                .unwrap_err()
                .to_string(),
            "line 2: parameter `ArrayHeight` is not a number: `many`"
        );
        // Every line's value is checked, even one a later line replaces.
        assert_eq!(
            parse_config("ArrayHeight: 0\nArrayHeight: 8\n"),
            Err(ParseConfigError::ZeroParameter { key: "ArrayHeight" })
        );
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
