//! Error types for the facade.

use std::error::Error;
use std::fmt;

/// Errors produced while parsing a SCALE-Sim configuration file or
/// setting one of its parameters ([`crate::SimConfig::set`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseConfigError {
    /// A line was not `key = value` / `key : value`.
    Malformed {
        /// 1-based line number; 0 when the value came from no file line.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A numeric parameter failed to parse.
    InvalidNumber {
        /// 1-based line number; 0 when the value came from no file line.
        line: usize,
        /// Parameter name.
        key: String,
        /// The rejected text.
        text: String,
    },
    /// The `Dataflow` parameter was not `os`, `ws` or `is`.
    InvalidDataflow {
        /// 1-based line number; 0 when the value came from no file line.
        line: usize,
        /// The rejected text.
        text: String,
    },
    /// An unrecognized parameter name.
    UnknownKey {
        /// 1-based line number; 0 when the value came from no file line.
        line: usize,
        /// The unknown parameter name.
        key: String,
    },
    /// A parameter that must be nonzero was zero.
    ZeroParameter {
        /// Parameter name.
        key: &'static str,
    },
    /// `ArrayHeight × ArrayWidth`, the array's PE count, does not fit in
    /// 64 bits.
    ArrayTooLarge {
        /// `ArrayHeight`.
        rows: u64,
        /// `ArrayWidth`.
        cols: u64,
    },
}

impl fmt::Display for ParseConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ParseConfigError::*;
        if let Malformed { line, .. }
        | InvalidNumber { line, .. }
        | InvalidDataflow { line, .. }
        | UnknownKey { line, .. } = self
        {
            if *line > 0 {
                write!(f, "line {line}: ")?;
            }
        }
        match self {
            Malformed { text, .. } => write!(f, "expected `key = value`, got `{text}`"),
            InvalidNumber { key, text, .. } => {
                write!(f, "parameter `{key}` is not a number: `{text}`")
            }
            InvalidDataflow { text, .. } => {
                write!(f, "dataflow must be `os`, `ws` or `is`, got `{text}`")
            }
            UnknownKey { key, .. } => write!(f, "unknown parameter `{key}`"),
            ZeroParameter { key } => write!(f, "parameter `{key}` must be nonzero"),
            ArrayTooLarge { rows, cols } => write!(
                f,
                "array of {rows} x {cols} PEs: `ArrayHeight` x `ArrayWidth` overflows 64 bits"
            ),
        }
    }
}

impl Error for ParseConfigError {}

/// An operand region that does not fit in the 64-bit address space: the
/// configured offset plus the operand's element count passes `u64::MAX`,
/// so the addresses a trace prints would wrap.
///
/// Simulation never meets it: traffic is a function of address order,
/// equality and adjacency only, so layers are simulated at offset zero
/// and the offsets are applied where addresses are printed. The trace
/// writers of [`crate::Simulator`] return it, inside an
/// [`std::io::Error`] of kind `InvalidInput`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionOverflowError {
    /// The layer whose traces were asked for.
    pub layer: String,
    /// The configuration key of the offset: `IfmapOffset`, `FilterOffset`
    /// or `OfmapOffset`.
    pub key: &'static str,
    /// The configured offset.
    pub offset: u64,
    /// Distinct addresses of the operand.
    pub elements: u64,
}

impl fmt::Display for RegionOverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} plus {} elements passes the end of the 64-bit address space",
            self.key, self.offset, self.elements
        )
    }
}

impl Error for RegionOverflowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_all_variants() {
        let variants: Vec<ParseConfigError> = vec![
            ParseConfigError::Malformed {
                line: 1,
                text: "x".into(),
            },
            ParseConfigError::InvalidNumber {
                line: 2,
                key: "ArrayHeight".into(),
                text: "abc".into(),
            },
            ParseConfigError::InvalidDataflow {
                line: 3,
                text: "rs".into(),
            },
            ParseConfigError::UnknownKey {
                line: 4,
                key: "Bogus".into(),
            },
            ParseConfigError::ZeroParameter { key: "ArrayWidth" },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParseConfigError>();
    }
}
