//! Error types for workload parsing and validation.

use std::error::Error;
use std::fmt;

/// Reasons a layer description can be rejected.
///
/// Returned by [`crate::ConvLayer::validate`] and by the topology CSV parser
/// (wrapped in [`ParseTopologyError::InvalidLayer`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateLayerError {
    /// A dimension that must be at least 1 was zero.
    ZeroDimension {
        /// Name of the offending field (e.g. `"ifmap_h"`).
        field: &'static str,
    },
    /// The filter does not fit inside the (already padded) input feature map.
    FilterLargerThanIfmap {
        /// Filter extent along the offending axis.
        filter: u64,
        /// Ifmap extent along the offending axis.
        ifmap: u64,
        /// `"height"` or `"width"`.
        axis: &'static str,
    },
    /// The layer's multiply-accumulate count, `M·K·N`, does not fit a
    /// `u64`; unchecked, it wrapped to a small layer.
    MacsOverflow,
}

impl fmt::Display for ValidateLayerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateLayerError::ZeroDimension { field } => {
                write!(f, "layer dimension `{field}` must be at least 1")
            }
            ValidateLayerError::FilterLargerThanIfmap {
                filter,
                ifmap,
                axis,
            } => write!(f, "filter {axis} ({filter}) exceeds ifmap {axis} ({ifmap})"),
            ValidateLayerError::MacsOverflow => {
                write!(f, "its MAC count M x K x N does not fit in 64 bits")
            }
        }
    }
}

impl Error for ValidateLayerError {}

/// Errors produced while parsing a topology CSV file (Table II format).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTopologyError {
    /// A row had fewer columns than the format requires.
    MissingColumn {
        /// 1-based line number of the offending row.
        line: usize,
        /// Name of the missing column.
        column: &'static str,
    },
    /// A numeric field failed to parse.
    InvalidNumber {
        /// 1-based line number of the offending row.
        line: usize,
        /// Name of the column that failed to parse.
        column: &'static str,
        /// The raw text that was rejected.
        text: String,
    },
    /// The row parsed but described an invalid layer.
    InvalidLayer {
        /// 1-based line number of the offending row.
        line: usize,
        /// The underlying validation failure.
        source: ValidateLayerError,
    },
    /// The file contained no layer rows at all.
    Empty,
}

impl fmt::Display for ParseTopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTopologyError::MissingColumn { line, column } => {
                write!(f, "line {line}: missing column `{column}`")
            }
            ParseTopologyError::InvalidNumber { line, column, text } => {
                write!(
                    f,
                    "line {line}: column `{column}` is not a number: `{text}`"
                )
            }
            ParseTopologyError::InvalidLayer { line, source } => {
                write!(f, "line {line}: invalid layer: {source}")
            }
            ParseTopologyError::Empty => write!(f, "topology file contains no layers"),
        }
    }
}

impl Error for ParseTopologyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseTopologyError::InvalidLayer { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A batched layer whose MAC count, `M × batch × K × N`, does not fit a
/// `u64`. Returned by [`crate::networks::batched`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOverflowError {
    /// The layer whose rows overflow.
    pub layer: String,
    /// Its GEMM row count `M` before batching.
    pub m: u64,
    /// The batch size.
    pub batch: u64,
}

impl fmt::Display for BatchOverflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch {} overflows layer `{}`: its MAC count, M = {} times the batch times K x N, \
             does not fit in 64 bits",
            self.batch, self.layer, self.m
        )
    }
}

impl Error for BatchOverflowError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_zero_dimension() {
        let err = ValidateLayerError::ZeroDimension { field: "channels" };
        assert_eq!(
            err.to_string(),
            "layer dimension `channels` must be at least 1"
        );
    }

    #[test]
    fn display_filter_too_large() {
        let err = ValidateLayerError::FilterLargerThanIfmap {
            filter: 7,
            ifmap: 5,
            axis: "height",
        };
        assert_eq!(
            err.to_string(),
            "filter height (7) exceeds ifmap height (5)"
        );
    }

    #[test]
    fn display_macs_overflow() {
        let err = ParseTopologyError::InvalidLayer {
            line: 2,
            source: ValidateLayerError::MacsOverflow,
        };
        assert_eq!(
            err.to_string(),
            "line 2: invalid layer: its MAC count M x K x N does not fit in 64 bits"
        );
    }

    #[test]
    fn parse_error_source_chains_to_validation() {
        let err = ParseTopologyError::InvalidLayer {
            line: 3,
            source: ValidateLayerError::ZeroDimension { field: "ifmap_h" },
        };
        assert!(err.source().is_some());
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ValidateLayerError>();
        assert_send_sync::<ParseTopologyError>();
    }
}
