//! The topology CSV file format (Table II of the paper).
//!
//! Each row lists: `Layer name, IFMAP Height, IFMAP Width, Filter Height,
//! Filter Width, Channels, Num Filter, Strides`. A header row is detected and
//! skipped; trailing commas (present in the original SCALE-Sim files) are
//! tolerated. As an extension, a 4-column row `name, M, K, N` describes a raw
//! GEMM layer (the format SCALE-Sim later adopted for language models).

use crate::{ConvLayerBuilder, GemmShape, Layer, ParseTopologyError, Topology};

const CONV_COLUMNS: [&str; 8] = [
    "Layer name",
    "IFMAP Height",
    "IFMAP Width",
    "Filter Height",
    "Filter Width",
    "Channels",
    "Num Filter",
    "Strides",
];

/// Parses a topology file's contents.
///
/// ```
/// use scalesim_topology::parse_topology_csv;
///
/// let text = "\
/// Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,
/// Conv1,230,230,7,7,3,64,2,
/// TF0,31999,84,1024
/// ";
/// let topo = parse_topology_csv("mixed", text)?;
/// assert_eq!(topo.len(), 2);
/// assert_eq!(topo.layers()[1].shape().n, 1024);
/// # Ok::<(), scalesim_topology::ParseTopologyError>(())
/// ```
///
/// # Errors
///
/// Returns [`ParseTopologyError`] when a row is malformed, a field is not a
/// number, a layer fails validation, or the file contains no layers.
pub fn parse_topology_csv(name: &str, text: &str) -> Result<Topology, ParseTopologyError> {
    let mut topo = Topology::new(name);
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split(',').map(str::trim).collect();
        // Drop empty trailing fields caused by trailing commas.
        let fields: Vec<&str> = {
            let mut f = fields;
            while f.last().is_some_and(|s| s.is_empty()) {
                f.pop();
            }
            f
        };
        if fields.is_empty() {
            continue;
        }
        // Header detection: the second field of a data row is numeric.
        if fields.len() >= 2 && fields[1].parse::<u64>().is_err() && topo.is_empty() {
            continue;
        }
        topo.push(parse_row(line_no, &fields)?);
    }
    if topo.is_empty() {
        return Err(ParseTopologyError::Empty);
    }
    Ok(topo)
}

fn parse_row(line: usize, fields: &[&str]) -> Result<Layer, ParseTopologyError> {
    match fields.len() {
        4 => parse_gemm_row(line, fields),
        8.. => parse_conv_row(line, fields),
        n => {
            // Report the first column that is missing from the conv format.
            let column = if n == 0 {
                CONV_COLUMNS[0]
            } else {
                CONV_COLUMNS[n]
            };
            Err(ParseTopologyError::MissingColumn { line, column })
        }
    }
}

fn parse_num(line: usize, column: &'static str, text: &str) -> Result<u64, ParseTopologyError> {
    text.parse::<u64>()
        .map_err(|_| ParseTopologyError::InvalidNumber {
            line,
            column,
            text: text.to_owned(),
        })
}

fn parse_conv_row(line: usize, fields: &[&str]) -> Result<Layer, ParseTopologyError> {
    let name = fields[0];
    let nums: Vec<u64> = fields[1..8]
        .iter()
        .zip(&CONV_COLUMNS[1..8])
        .map(|(text, col)| parse_num(line, col, text))
        .collect::<Result<_, _>>()?;
    let layer = ConvLayerBuilder::new(name)
        .ifmap(nums[0], nums[1])
        .filter(nums[2], nums[3])
        .channels(nums[4])
        .num_filters(nums[5])
        .stride(nums[6])
        .build()
        .map_err(|source| ParseTopologyError::InvalidLayer { line, source })?;
    Ok(Layer::Conv(layer))
}

fn parse_gemm_row(line: usize, fields: &[&str]) -> Result<Layer, ParseTopologyError> {
    let name = fields[0];
    let m = parse_num(line, "M", fields[1])?;
    let k = parse_num(line, "K", fields[2])?;
    let n = parse_num(line, "N", fields[3])?;
    let source = if m == 0 || k == 0 || n == 0 {
        crate::ValidateLayerError::ZeroDimension { field: "gemm dim" }
    } else if (GemmShape { m, k, n }).checked_macs().is_none() {
        crate::ValidateLayerError::MacsOverflow
    } else {
        return Ok(Layer::gemm(name, m, k, n));
    };
    Err(ParseTopologyError::InvalidLayer { line, source })
}

/// Serializes a topology back to the Table II CSV format.
///
/// Conv layers are emitted as 8-column rows (with the trailing comma the
/// original tool writes); GEMM layers as 4-column rows. The output parses
/// back to an equal topology via [`parse_topology_csv`].
pub fn topology_to_csv(topology: &Topology) -> String {
    let mut out = String::new();
    out.push_str(&CONV_COLUMNS.join(", "));
    out.push_str(",\n");
    for layer in topology {
        match layer {
            Layer::Conv(c) => {
                out.push_str(&format!(
                    "{},{},{},{},{},{},{},{},\n",
                    c.name(),
                    c.ifmap_h(),
                    c.ifmap_w(),
                    c.filter_h(),
                    c.filter_w(),
                    c.channels(),
                    c.num_filters(),
                    c.stride_h(),
                ));
            }
            Layer::Gemm { name, shape } => {
                out.push_str(&format!("{},{},{},{}\n", name, shape.m, shape.k, shape.n));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::networks;

    #[test]
    fn parses_conv_rows_with_header_and_trailing_commas() {
        let text = "Layer name, IFMAP Height, IFMAP Width, Filter Height, Filter Width, Channels, Num Filter, Strides,\n\
                    Conv1,230,230,7,7,3,64,2,\n";
        let t = parse_topology_csv("net", text).unwrap();
        assert_eq!(t.len(), 1);
        let c = t.layers()[0].as_conv().unwrap();
        assert_eq!(c.num_filters(), 64);
        assert_eq!(c.stride_h(), 2);
    }

    #[test]
    fn parses_gemm_rows() {
        let t = parse_topology_csv("lm", "TF0,31999,84,1024\n").unwrap();
        assert_eq!(t.layers()[0].shape().m, 31999);
    }

    #[test]
    fn skips_blank_and_comment_lines() {
        let t = parse_topology_csv("n", "\n# comment\nA,1,1,1\n").unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_file_is_an_error() {
        assert_eq!(
            parse_topology_csv("n", "# nothing\n").unwrap_err(),
            ParseTopologyError::Empty
        );
    }

    #[test]
    fn reports_missing_column() {
        let err = parse_topology_csv("n", "Conv1,1,1,1,1,1\n").unwrap_err();
        match err {
            ParseTopologyError::MissingColumn { line: 1, column } => {
                assert_eq!(column, "Num Filter");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn reports_bad_number_with_location() {
        let err = parse_topology_csv("n", "Conv1,230,ab,7,7,3,64,2\n").unwrap_err();
        match err {
            ParseTopologyError::InvalidNumber { line, column, text } => {
                assert_eq!(line, 1);
                assert_eq!(column, "IFMAP Width");
                assert_eq!(text, "ab");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn reports_invalid_layer() {
        let err = parse_topology_csv("n", "Conv1,2,2,7,7,3,64,2\n").unwrap_err();
        assert!(matches!(
            err,
            ParseTopologyError::InvalidLayer { line: 1, .. }
        ));
    }

    #[test]
    fn zero_gemm_dim_rejected() {
        assert!(parse_topology_csv("n", "G,0,1,1\n").is_err());
    }

    #[test]
    fn a_layer_whose_mac_count_overflows_is_rejected_with_its_line() {
        // 32 x 2^63 x 32 wrapped to 0 MACs; the conv row has 2^80 of them.
        for (row, kind) in [
            ("Big,32,9223372036854775808,32", "gemm"),
            ("Big,32,18446744073709551600,32", "gemm"),
            ("Wide,8,8,3,3,1099511627776,1099511627776,1", "conv"),
        ] {
            let err = parse_topology_csv("n", &format!("A,1,1,1\n{row}\n")).unwrap_err();
            assert_eq!(
                err,
                ParseTopologyError::InvalidLayer {
                    line: 2,
                    source: crate::ValidateLayerError::MacsOverflow,
                },
                "{kind}"
            );
        }
        // (2^32 - 1)(2^32 + 1) = u64::MAX still parses.
        let edge = parse_topology_csv("n", "E,1,4294967295,4294967297\n").unwrap();
        assert_eq!(edge.layers()[0].macs(), u64::MAX);
    }

    #[test]
    fn round_trip_resnet50() {
        let original = networks::resnet50();
        let text = topology_to_csv(&original);
        let parsed = parse_topology_csv(original.name(), &text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn round_trip_language_models() {
        let original = networks::language_models();
        let text = topology_to_csv(&original);
        let parsed = parse_topology_csv(original.name(), &text).unwrap();
        assert_eq!(parsed, original);
    }
}
