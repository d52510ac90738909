//! Layer descriptions: convolutions (Table II rows) and raw GEMMs (Table IV).

use serde::{Deserialize, Serialize};

use crate::{GemmShape, ValidateLayerError};

/// One convolution layer, as described by a row of a topology file.
///
/// Field semantics follow Table II of the paper. The IFMAP dimensions are
/// the *padded* input extents (SCALE-Sim topology files bake padding into the
/// IFMAP size), so the OFMAP extent along an axis is
/// `(ifmap − filter) / stride + 1` with flooring division.
///
/// Fully-connected layers are expressed as convolutions whose filter covers
/// the whole IFMAP (the paper's convention): a 2048→1000 FC layer is
/// `1×1` IFMAP, `1×1` filter, 2048 channels, 1000 filters.
///
/// Construct with [`ConvLayer::new`] for the common square-stride case or
/// with [`ConvLayerBuilder`] when per-axis strides are needed.
///
/// ```
/// use scalesim_topology::ConvLayer;
///
/// let conv1 = ConvLayer::new("Conv1", 230, 230, 7, 7, 3, 64, 2)?;
/// assert_eq!(conv1.ofmap_h(), 112);
/// assert_eq!(conv1.window_size(), 7 * 7 * 3);
/// # Ok::<(), scalesim_topology::ValidateLayerError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvLayer {
    name: String,
    ifmap_h: u64,
    ifmap_w: u64,
    filter_h: u64,
    filter_w: u64,
    channels: u64,
    num_filters: u64,
    stride_h: u64,
    stride_w: u64,
}

impl ConvLayer {
    /// Creates a convolution layer with equal strides along both axes.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateLayerError`] if any dimension is zero, the filter
    /// does not fit inside the IFMAP or the MAC count overflows a `u64`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        ifmap_h: u64,
        ifmap_w: u64,
        filter_h: u64,
        filter_w: u64,
        channels: u64,
        num_filters: u64,
        stride: u64,
    ) -> Result<Self, ValidateLayerError> {
        ConvLayerBuilder::new(name)
            .ifmap(ifmap_h, ifmap_w)
            .filter(filter_h, filter_w)
            .channels(channels)
            .num_filters(num_filters)
            .stride(stride)
            .build()
    }

    /// User-defined layer tag.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Padded IFMAP height.
    pub fn ifmap_h(&self) -> u64 {
        self.ifmap_h
    }

    /// Padded IFMAP width.
    pub fn ifmap_w(&self) -> u64 {
        self.ifmap_w
    }

    /// Filter height.
    pub fn filter_h(&self) -> u64 {
        self.filter_h
    }

    /// Filter width.
    pub fn filter_w(&self) -> u64 {
        self.filter_w
    }

    /// Input channels.
    pub fn channels(&self) -> u64 {
        self.channels
    }

    /// Number of filters (= OFMAP channels).
    pub fn num_filters(&self) -> u64 {
        self.num_filters
    }

    /// Stride along the height axis.
    pub fn stride_h(&self) -> u64 {
        self.stride_h
    }

    /// Stride along the width axis.
    pub fn stride_w(&self) -> u64 {
        self.stride_w
    }

    /// OFMAP height: `(ifmap_h − filter_h) / stride_h + 1`.
    pub fn ofmap_h(&self) -> u64 {
        (self.ifmap_h - self.filter_h) / self.stride_h + 1
    }

    /// OFMAP width: `(ifmap_w − filter_w) / stride_w + 1`.
    pub fn ofmap_w(&self) -> u64 {
        (self.ifmap_w - self.filter_w) / self.stride_w + 1
    }

    /// Number of OFMAP pixels generated per filter (`N_ofmap` in Table III).
    pub fn ofmap_pixels(&self) -> u64 {
        self.ofmap_h() * self.ofmap_w()
    }

    /// Convolution window size (`W_conv` in Table III):
    /// `filter_h · filter_w · channels` partial sums per output pixel.
    pub fn window_size(&self) -> u64 {
        self.filter_h * self.filter_w * self.channels
    }

    /// Total IFMAP elements (`ifmap_h · ifmap_w · channels`).
    pub fn ifmap_elems(&self) -> u64 {
        self.ifmap_h * self.ifmap_w * self.channels
    }

    /// Total multiply-accumulate operations for this layer.
    pub fn macs(&self) -> u64 {
        self.ofmap_pixels() * self.window_size() * self.num_filters
    }

    /// Whether the layer is a fully-connected layer in the paper's encoding
    /// (filter extents equal the IFMAP extents, so one output pixel per
    /// filter).
    pub fn is_fully_connected(&self) -> bool {
        self.filter_h == self.ifmap_h && self.filter_w == self.ifmap_w
    }

    /// The GEMM this convolution lowers to (Section III-A):
    /// `M = N_ofmap`, `K = W_conv`, `N = N_filter`.
    pub fn shape(&self) -> GemmShape {
        GemmShape::new(self.ofmap_pixels(), self.window_size(), self.num_filters)
    }

    /// Re-validates the invariants (used by deserialization paths).
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, if any.
    pub fn validate(&self) -> Result<(), ValidateLayerError> {
        validate_fields(
            self.ifmap_h,
            self.ifmap_w,
            self.filter_h,
            self.filter_w,
            self.channels,
            self.num_filters,
            self.stride_h,
            self.stride_w,
        )
    }
}

#[allow(clippy::too_many_arguments)]
fn validate_fields(
    ifmap_h: u64,
    ifmap_w: u64,
    filter_h: u64,
    filter_w: u64,
    channels: u64,
    num_filters: u64,
    stride_h: u64,
    stride_w: u64,
) -> Result<(), ValidateLayerError> {
    let nonzero = [
        (ifmap_h, "ifmap_h"),
        (ifmap_w, "ifmap_w"),
        (filter_h, "filter_h"),
        (filter_w, "filter_w"),
        (channels, "channels"),
        (num_filters, "num_filters"),
        (stride_h, "stride_h"),
        (stride_w, "stride_w"),
    ];
    for (value, field) in nonzero {
        if value == 0 {
            return Err(ValidateLayerError::ZeroDimension { field });
        }
    }
    if filter_h > ifmap_h {
        return Err(ValidateLayerError::FilterLargerThanIfmap {
            filter: filter_h,
            ifmap: ifmap_h,
            axis: "height",
        });
    }
    if filter_w > ifmap_w {
        return Err(ValidateLayerError::FilterLargerThanIfmap {
            filter: filter_w,
            ifmap: ifmap_w,
            axis: "width",
        });
    }
    // `M·K·N`: every factor is at least 1, so when the product fits, so
    // does every partial product the layer's accessors form.
    let ofmap = |ifmap: u64, filter: u64, stride: u64| (ifmap - filter) / stride + 1;
    [
        ofmap(ifmap_w, filter_w, stride_w),
        filter_h,
        filter_w,
        channels,
        num_filters,
    ]
    .into_iter()
    .try_fold(ofmap(ifmap_h, filter_h, stride_h), u64::checked_mul)
    .map(drop)
    .ok_or(ValidateLayerError::MacsOverflow)
}

/// Incremental constructor for [`ConvLayer`].
///
/// ```
/// use scalesim_topology::ConvLayerBuilder;
///
/// let layer = ConvLayerBuilder::new("CB2a_2")
///     .ifmap(58, 58)
///     .filter(3, 3)
///     .channels(64)
///     .num_filters(64)
///     .strides(1, 1)
///     .build()?;
/// assert_eq!(layer.ofmap_pixels(), 56 * 56);
/// # Ok::<(), scalesim_topology::ValidateLayerError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConvLayerBuilder {
    name: String,
    ifmap_h: u64,
    ifmap_w: u64,
    filter_h: u64,
    filter_w: u64,
    channels: u64,
    num_filters: u64,
    stride_h: u64,
    stride_w: u64,
}

impl ConvLayerBuilder {
    /// Starts a builder for a layer called `name`.
    ///
    /// All dimensions default to 1, so a plain `build()` yields a valid
    /// (degenerate 1×1) layer.
    pub fn new(name: impl Into<String>) -> Self {
        ConvLayerBuilder {
            name: name.into(),
            ifmap_h: 1,
            ifmap_w: 1,
            filter_h: 1,
            filter_w: 1,
            channels: 1,
            num_filters: 1,
            stride_h: 1,
            stride_w: 1,
        }
    }

    /// Sets the padded IFMAP extents.
    pub fn ifmap(mut self, h: u64, w: u64) -> Self {
        self.ifmap_h = h;
        self.ifmap_w = w;
        self
    }

    /// Sets the filter extents.
    pub fn filter(mut self, h: u64, w: u64) -> Self {
        self.filter_h = h;
        self.filter_w = w;
        self
    }

    /// Sets the input channel count.
    pub fn channels(mut self, c: u64) -> Self {
        self.channels = c;
        self
    }

    /// Sets the number of filters (OFMAP channels).
    pub fn num_filters(mut self, n: u64) -> Self {
        self.num_filters = n;
        self
    }

    /// Sets equal strides along both axes.
    pub fn stride(self, s: u64) -> Self {
        self.strides(s, s)
    }

    /// Sets per-axis strides.
    pub fn strides(mut self, h: u64, w: u64) -> Self {
        self.stride_h = h;
        self.stride_w = w;
        self
    }

    /// Validates and builds the layer.
    ///
    /// # Errors
    ///
    /// Returns [`ValidateLayerError`] if any dimension is zero, the filter
    /// exceeds the IFMAP extents or the MAC count overflows a `u64`.
    pub fn build(self) -> Result<ConvLayer, ValidateLayerError> {
        validate_fields(
            self.ifmap_h,
            self.ifmap_w,
            self.filter_h,
            self.filter_w,
            self.channels,
            self.num_filters,
            self.stride_h,
            self.stride_w,
        )?;
        Ok(ConvLayer {
            name: self.name,
            ifmap_h: self.ifmap_h,
            ifmap_w: self.ifmap_w,
            filter_h: self.filter_h,
            filter_w: self.filter_w,
            channels: self.channels,
            num_filters: self.num_filters,
            stride_h: self.stride_h,
            stride_w: self.stride_w,
        })
    }
}

/// A workload layer: either a convolution or a raw GEMM.
///
/// The paper's CNN workloads (ResNet-50 etc.) are [`Layer::Conv`]; the
/// language-model layers of Table IV are [`Layer::Gemm`], given directly as
/// matrix dimensions.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// A convolution (or FC-as-convolution) layer.
    Conv(ConvLayer),
    /// A named raw matrix multiplication.
    Gemm {
        /// User-defined layer tag.
        name: String,
        /// Matrix dimensions.
        shape: GemmShape,
    },
}

impl Layer {
    /// Creates a named GEMM layer from `(m, k, n)` dimensions.
    ///
    /// Table IV lists language-model layers as `(S_R, T, S_C)`, which is
    /// exactly `(m, k, n)` — the OS-dataflow projection is the identity.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero (see [`GemmShape::new`]).
    pub fn gemm(name: impl Into<String>, m: u64, k: u64, n: u64) -> Self {
        Layer::Gemm {
            name: name.into(),
            shape: GemmShape::new(m, k, n),
        }
    }

    /// The layer's user-defined tag.
    pub fn name(&self) -> &str {
        match self {
            Layer::Conv(c) => c.name(),
            Layer::Gemm { name, .. } => name,
        }
    }

    /// The GEMM this layer lowers to.
    pub fn shape(&self) -> GemmShape {
        match self {
            Layer::Conv(c) => c.shape(),
            Layer::Gemm { shape, .. } => *shape,
        }
    }

    /// The convolution description, if this is a conv layer.
    pub fn as_conv(&self) -> Option<&ConvLayer> {
        match self {
            Layer::Conv(c) => Some(c),
            Layer::Gemm { .. } => None,
        }
    }

    /// Total multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        self.shape().macs()
    }
}

impl From<ConvLayer> for Layer {
    fn from(c: ConvLayer) -> Self {
        Layer::Conv(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataflow;

    fn sample() -> ConvLayer {
        ConvLayer::new("t", 8, 8, 3, 3, 4, 16, 1).unwrap()
    }

    #[test]
    fn ofmap_dims_floor_division() {
        // (230 - 7) / 2 + 1 = 112 with flooring.
        let l = ConvLayer::new("conv1", 230, 230, 7, 7, 3, 64, 2).unwrap();
        assert_eq!(l.ofmap_h(), 112);
        assert_eq!(l.ofmap_w(), 112);
    }

    #[test]
    fn derived_quantities() {
        let l = sample();
        assert_eq!(l.ofmap_h(), 6);
        assert_eq!(l.ofmap_pixels(), 36);
        assert_eq!(l.window_size(), 36);
        assert_eq!(l.macs(), 36 * 36 * 16);
        assert_eq!(l.ifmap_elems(), 8 * 8 * 4);
    }

    #[test]
    fn fc_layer_detection() {
        let fc = ConvLayer::new("fc", 1, 1, 1, 1, 2048, 1000, 1).unwrap();
        assert!(fc.is_fully_connected());
        assert_eq!(fc.ofmap_pixels(), 1);
        assert_eq!(fc.shape(), GemmShape::new(1, 2048, 1000));
        assert!(!sample().is_fully_connected());
    }

    #[test]
    fn gemm_lowering_matches_table_iii_via_projection() {
        let l = sample();
        let os = l.shape().project(Dataflow::OutputStationary);
        assert_eq!(os.spatial_rows, l.ofmap_pixels());
        assert_eq!(os.spatial_cols, l.num_filters());
        assert_eq!(os.temporal, l.window_size());
    }

    #[test]
    fn validation_rejects_zero_and_oversized() {
        assert!(ConvLayer::new("z", 8, 8, 3, 3, 0, 16, 1).is_err());
        assert!(ConvLayer::new("f", 2, 8, 3, 3, 4, 16, 1).is_err());
        assert!(ConvLayer::new("s", 8, 8, 3, 3, 4, 16, 0).is_err());
    }

    #[test]
    fn validation_rejects_a_mac_count_that_overflows() {
        let overflow = Err(ValidateLayerError::MacsOverflow);
        // 36 OFMAP pixels x a 9-by-2^40 window x 2^40 filters.
        assert_eq!(
            ConvLayer::new("w", 8, 8, 3, 3, 1 << 40, 1 << 40, 1),
            overflow
        );
        // The OFMAP alone has 2^66 pixels.
        assert_eq!(
            ConvLayer::new("p", 1 << 33, 1 << 33, 1, 1, 1, 1, 1),
            overflow
        );
        // (2^32 - 1)(2^32 + 1) = u64::MAX still builds.
        let edge = ConvLayer::new("e", 1, 1, 1, 1, u32::MAX.into(), (1 << 32) + 1, 1).unwrap();
        assert_eq!(edge.macs(), u64::MAX);
        assert_eq!(edge.shape().checked_macs(), Some(u64::MAX));
    }

    #[test]
    fn builder_defaults_are_valid() {
        let l = ConvLayerBuilder::new("unit").build().unwrap();
        assert_eq!(l.macs(), 1);
        assert!(l.is_fully_connected());
    }

    #[test]
    fn per_axis_strides() {
        let l = ConvLayerBuilder::new("aniso")
            .ifmap(16, 16)
            .filter(3, 3)
            .channels(1)
            .num_filters(1)
            .strides(2, 1)
            .build()
            .unwrap();
        assert_eq!(l.ofmap_h(), 7);
        assert_eq!(l.ofmap_w(), 14);
    }

    #[test]
    fn layer_enum_accessors() {
        let conv: Layer = sample().into();
        assert_eq!(conv.name(), "t");
        assert!(conv.as_conv().is_some());

        let gemm = Layer::gemm("TF0", 31999, 84, 1024);
        assert_eq!(gemm.name(), "TF0");
        assert!(gemm.as_conv().is_none());
        assert_eq!(gemm.macs(), 31999 * 84 * 1024);
    }
}
