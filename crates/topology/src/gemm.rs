//! GEMM shapes and the spatio-temporal projection of Table III.

use serde::{Deserialize, Serialize};

use crate::Dataflow;

/// The dense matrix-multiplication underlying a DNN layer.
///
/// Every dense layer the paper considers generalizes to multiplying an
/// `M × K` operand by a `K × N` operand (Section III-A). For a convolution:
/// `M` is the number of OFMAP pixels per filter, `K` the convolution window
/// size (`filter_h · filter_w · channels`) and `N` the number of filters. For
/// fully-connected / language-model layers the matrices are used directly
/// (Table IV lists them already projected for the OS dataflow, i.e. as
/// `(S_R, T, S_C) = (M, K, N)`).
///
/// ```
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let tf0 = GemmShape::new(31999, 84, 1024); // Transformer layer TF0
/// assert_eq!(tf0.macs(), 31999 * 84 * 1024);
/// let os = tf0.project(Dataflow::OutputStationary);
/// assert_eq!((os.spatial_rows, os.temporal, os.spatial_cols), (31999, 84, 1024));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GemmShape {
    /// Rows of the first operand (OFMAP pixels per filter for a conv).
    pub m: u64,
    /// Contraction dimension (convolution window size for a conv).
    pub k: u64,
    /// Columns of the second operand (number of filters for a conv).
    pub n: u64,
}

impl GemmShape {
    /// Creates a GEMM shape for an `m × k` by `k × n` product.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero — a degenerate matrix product has no
    /// meaningful mapping onto a systolic array.
    pub fn new(m: u64, k: u64, n: u64) -> Self {
        assert!(m > 0 && k > 0 && n > 0, "GEMM dimensions must be nonzero");
        GemmShape { m, k, n }
    }

    /// Total multiply-accumulate operations in this product, saturating at
    /// `u64::MAX`; input boundaries reject a layer whose count does not fit.
    pub fn macs(&self) -> u64 {
        self.checked_macs().unwrap_or(u64::MAX)
    }

    /// `M·K·N`, or `None` when it overflows a `u64`.
    pub fn checked_macs(&self) -> Option<u64> {
        self.m.checked_mul(self.k)?.checked_mul(self.n)
    }

    /// Projects the GEMM onto array rows / columns / time for `dataflow`.
    ///
    /// This is Table III of the paper:
    ///
    /// | Dataflow | `S_R` | `S_C` | `T` |
    /// |---|---|---|---|
    /// | OS | `N_ofmap` (= m) | `N_filter` (= n) | `W_conv` (= k) |
    /// | WS | `W_conv` (= k)  | `N_filter` (= n) | `N_ofmap` (= m) |
    /// | IS | `W_conv` (= k)  | `N_ofmap` (= m)  | `N_filter` (= n) |
    pub fn project(&self, dataflow: Dataflow) -> MappedDims {
        let (sr, sc, t) = match dataflow {
            Dataflow::OutputStationary => (self.m, self.n, self.k),
            Dataflow::WeightStationary => (self.k, self.n, self.m),
            Dataflow::InputStationary => (self.k, self.m, self.n),
        };
        MappedDims {
            spatial_rows: sr,
            spatial_cols: sc,
            temporal: t,
            dataflow,
        }
    }
}

/// A GEMM projected onto the systolic array's spatio-temporal dimensions.
///
/// Produced by [`GemmShape::project`]; consumed by the trace engines and the
/// analytical runtime model. `spatial_rows` elements want to map along array
/// rows, `spatial_cols` along columns, and `temporal` unrolls over cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MappedDims {
    /// `S_R`: extent mapped across array rows.
    pub spatial_rows: u64,
    /// `S_C`: extent mapped across array columns.
    pub spatial_cols: u64,
    /// `T`: extent unrolled in time.
    pub temporal: u64,
    /// The dataflow this projection was made for.
    pub dataflow: Dataflow,
}

impl MappedDims {
    /// The GEMM this projection was made from: the inverse of
    /// [`GemmShape::project`].
    pub fn gemm(&self) -> GemmShape {
        let (sr, sc, t) = (self.spatial_rows, self.spatial_cols, self.temporal);
        let (m, k, n) = match self.dataflow {
            Dataflow::OutputStationary => (sr, t, sc),
            Dataflow::WeightStationary => (t, sr, sc),
            Dataflow::InputStationary => (sc, sr, t),
        };
        GemmShape { m, k, n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_matches_table_iii() {
        let g = GemmShape::new(10, 20, 30);
        let os = g.project(Dataflow::OutputStationary);
        assert_eq!(
            (os.spatial_rows, os.spatial_cols, os.temporal),
            (10, 30, 20)
        );
        let ws = g.project(Dataflow::WeightStationary);
        assert_eq!(
            (ws.spatial_rows, ws.spatial_cols, ws.temporal),
            (20, 30, 10)
        );
        let is = g.project(Dataflow::InputStationary);
        assert_eq!(
            (is.spatial_rows, is.spatial_cols, is.temporal),
            (20, 10, 30)
        );
    }

    #[test]
    fn unprojecting_inverts_every_projection() {
        let g = GemmShape::new(10, 20, 30);
        for df in Dataflow::ALL {
            assert_eq!(g.project(df).gemm(), g, "{df:?}");
        }
    }

    /// Table III only reassigns M, K and N to rows, columns and time: each
    /// projection keeps the MAC count.
    #[test]
    fn projection_keeps_the_mac_count() {
        for g in [GemmShape::new(7, 11, 13), GemmShape::new(1, 64, 3)] {
            for df in Dataflow::ALL {
                let dims = g.project(df);
                let macs = dims.spatial_rows * dims.spatial_cols * dims.temporal;
                assert_eq!(macs, g.macs(), "{df:?}");
            }
        }
    }

    #[test]
    fn mac_counts_that_overflow_are_caught_or_saturate() {
        let fits = GemmShape::new(1 << 20, 1 << 22, 1 << 21);
        assert_eq!(fits.checked_macs(), Some(1 << 63));
        assert_eq!(fits.macs(), 1 << 63);
        // 32 x 2^63 x 32 wrapped to 0 MACs.
        let wraps = GemmShape::new(32, 1 << 63, 32);
        assert_eq!(wraps.checked_macs(), None);
        assert_eq!(wraps.macs(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dimension_panics() {
        let _ = GemmShape::new(0, 1, 1);
    }
}
