//! The physical MAC array.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Shape of a systolic MAC array: `rows × cols` processing elements.
///
/// Corresponds to the `ArrayHeight` / `ArrayWidth` parameters of Table I.
///
/// ```
/// use scalesim_systolic::ArrayShape;
///
/// let tpu_like = ArrayShape::new(256, 256);
/// assert_eq!(tpu_like.macs(), 65_536);
/// assert_eq!(tpu_like.to_string(), "256x256");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArrayShape {
    rows: u64,
    cols: u64,
}

impl ArrayShape {
    /// Creates an array shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: u64, cols: u64) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        ArrayShape { rows, cols }
    }

    /// A square `n × n` array.
    pub fn square(n: u64) -> Self {
        ArrayShape::new(n, n)
    }

    /// Number of PE rows (`R`).
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Number of PE columns (`C`).
    pub fn cols(&self) -> u64 {
        self.cols
    }

    /// Total MAC units (`R · C`), saturating at `u64::MAX`: a count too
    /// large to hold still bounds every product it enters from below,
    /// where the unchecked product wrapped (`2^32 × 2^32` was 0 MACs).
    pub fn macs(&self) -> u64 {
        self.rows.saturating_mul(self.cols)
    }

    /// The transposed shape (`C × R`).
    pub fn transposed(&self) -> ArrayShape {
        ArrayShape {
            rows: self.cols,
            cols: self.rows,
        }
    }
}

impl fmt::Display for ArrayShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pe_count_saturates_instead_of_wrapping() {
        // 2^32 x 2^32 wrapped to 0 PEs, and 2^32 + 1 x 2^32 to 2^32.
        assert_eq!(ArrayShape::new(1 << 32, 1 << 32).macs(), u64::MAX);
        assert_eq!(ArrayShape::new((1 << 32) + 1, 1 << 32).macs(), u64::MAX);
        assert_eq!(
            ArrayShape::new(1 << 32, (1 << 32) - 1).macs(),
            u64::MAX - (1 << 32) + 1
        );
    }

    #[test]
    fn accessors_and_macs() {
        let a = ArrayShape::new(8, 32);
        assert_eq!(a.rows(), 8);
        assert_eq!(a.cols(), 32);
        assert_eq!(a.macs(), 256);
    }

    #[test]
    fn square_and_transpose() {
        assert_eq!(ArrayShape::square(16), ArrayShape::new(16, 16));
        assert_eq!(ArrayShape::new(8, 32).transposed(), ArrayShape::new(32, 8));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_rows_panics() {
        let _ = ArrayShape::new(0, 4);
    }

    #[test]
    fn display_format() {
        assert_eq!(ArrayShape::new(128, 64).to_string(), "128x64");
    }
}
