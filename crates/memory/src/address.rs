//! Operand address maps.
//!
//! The trace engines work in GEMM coordinates: operand *A* is the `M × K`
//! matrix (the rearranged IFMAP for a convolution), operand *B* the `K × N`
//! matrix (the unrolled filters), and *O* the `M × N` output. An
//! [`AddressMap`] translates these coordinates into the flat element
//! addresses that appear in the SRAM/DRAM traces (the simulator's address
//! space is in *elements*; a word-size multiplier is applied at the DRAM
//! reporting layer).
//!
//! Two concrete maps exist:
//!
//! * [`GemmAddressMap`] — row-major dense matrices; every `A` element has a
//!   unique address (no reuse between rows).
//! * [`ConvAddressMap`] — convolution addressing where adjacent convolution
//!   windows *share* IFMAP addresses when the stride is smaller than the
//!   filter (the reuse pattern Section II-A of the paper describes). This is
//!   what makes the DRAM model see convolution reuse.

use serde::{Deserialize, Serialize};

use scalesim_topology::ConvLayer;

use crate::runs::AddrRuns;

/// Base offsets for the three operand regions, mirroring the
/// `IfmapOffset` / `FilterOffset` / `OfmapOffset` parameters of Table I.
///
/// The defaults match the original tool's defaults: disjoint 16 M-element
/// regions so traces from different operands never alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RegionOffsets {
    /// Base address for IFMAP / operand-A elements.
    pub ifmap: u64,
    /// Base address for filter / operand-B elements.
    pub filter: u64,
    /// Base address for OFMAP / output elements.
    pub ofmap: u64,
}

impl RegionOffsets {
    /// Every region at address zero.
    pub const ZERO: RegionOffsets = RegionOffsets {
        ifmap: 0,
        filter: 0,
        ofmap: 0,
    };
}

impl Default for RegionOffsets {
    fn default() -> Self {
        RegionOffsets {
            ifmap: 0,
            filter: 10_000_000,
            ofmap: 20_000_000,
        }
    }
}

/// Translates GEMM coordinates into flat element addresses.
///
/// Implementations must be pure: the same coordinate always yields the same
/// address, and distinct coordinates of `B` and `O` yield distinct addresses.
/// `A` addresses *may* collide across coordinates — that is exactly how
/// convolution window overlap (data reuse) is expressed.
pub trait AddressMap {
    /// Address of `A[m][k]` — the IFMAP element feeding row `m`'s `k`-th
    /// partial product.
    fn a(&self, m: u64, k: u64) -> u64;

    /// Address of `B[k][n]` — element `k` of filter `n`.
    fn b(&self, k: u64, n: u64) -> u64;

    /// Address of `O[m][n]` — output pixel `m` of filter `n`.
    fn o(&self, m: u64, n: u64) -> u64;

    /// Number of *distinct* addresses behind operand A (total IFMAP
    /// elements). Used for reuse accounting.
    fn a_unique(&self) -> u64;

    /// Number of distinct addresses behind operand B.
    fn b_unique(&self) -> u64;

    /// Number of distinct output addresses.
    fn o_unique(&self) -> u64;

    /// Appends the addresses of `A[m][k0..k0+len]` to `out` as maximal
    /// contiguous runs, in `k` order — the run-compressed equivalent of
    /// calling [`AddressMap::a`] for each `k`.
    ///
    /// The default implementation is element-wise (correct for any map);
    /// the concrete maps override it with closed-form runs: a GEMM row is
    /// one run, a convolution window row is one run per filter row.
    fn a_span(&self, m: u64, k0: u64, len: u64, out: &mut AddrRuns) {
        for k in k0..k0 + len {
            out.push(self.a(m, k), 1);
        }
    }

    /// The *phase* of the rectangle `A[m0..m0+m_len][k0..k0+k_len]`: a
    /// label such that two rectangles of equal lengths and equal phase
    /// hold the same operand-A addresses up to one constant. Precisely, if
    /// `a_phase(m0, m_len, k0, k_len) == a_phase(m1, m_len, k1, k_len)`
    /// there is one integer `d = a(m1, k1) − a(m0, k0)` with
    /// `a(m1 + i, k1 + j) = a(m0 + i, k0 + j) + d` for every `i < m_len`,
    /// `j < k_len`. Both rectangles must lie inside the matrix.
    ///
    /// Two consumers rest on it. Scale-out simulates one tile per *class*
    /// (`Simulator::run_layer`), keyed on the tile's rectangle
    /// `[m_off, m_off + m_len) × [0, K)`; the run-granular demand generator
    /// (`scalesim_systolic::fold_demand_runs`)
    /// generates each fold row's or fold's A stream once per class of its
    /// rectangle and emits the other members shifted. Both read a map
    /// through [`AddressMap::a_span`] alone, and everything downstream of
    /// it — the first-use dedup of the A stream, run coalescing, the FIFO
    /// operand buffers — sees addresses only through their order, equality
    /// and adjacency, which adding a constant to every address preserves.
    ///
    /// The default is `(m0, k0)`: equal phases are then equal rectangles
    /// and `d = 0`, which is true of any map and merges nothing. An
    /// implementation may return anything coarser that it can prove; it
    /// must not key on the addresses a particular stream happens to touch.
    fn a_phase(&self, m0: u64, m_len: u64, k0: u64, k_len: u64) -> (u64, u64) {
        let _ = (m_len, k_len);
        (m0, k0)
    }
}

/// Row-major addressing for a dense GEMM (language-model layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmAddressMap {
    m: u64,
    k: u64,
    n: u64,
    offsets: RegionOffsets,
}

impl GemmAddressMap {
    /// Creates a map for an `m × k` by `k × n` product with the given region
    /// offsets.
    pub fn new(m: u64, k: u64, n: u64, offsets: RegionOffsets) -> Self {
        GemmAddressMap { m, k, n, offsets }
    }

    /// Creates a map from a [`scalesim_topology::GemmShape`].
    pub fn from_shape(shape: scalesim_topology::GemmShape, offsets: RegionOffsets) -> Self {
        GemmAddressMap::new(shape.m, shape.k, shape.n, offsets)
    }
}

impl AddressMap for GemmAddressMap {
    fn a(&self, m: u64, k: u64) -> u64 {
        debug_assert!(m < self.m && k < self.k);
        self.offsets.ifmap + m * self.k + k
    }

    fn b(&self, k: u64, n: u64) -> u64 {
        debug_assert!(k < self.k && n < self.n);
        self.offsets.filter + k * self.n + n
    }

    fn o(&self, m: u64, n: u64) -> u64 {
        debug_assert!(m < self.m && n < self.n);
        self.offsets.ofmap + m * self.n + n
    }

    fn a_unique(&self) -> u64 {
        self.m * self.k
    }

    fn b_unique(&self) -> u64 {
        self.k * self.n
    }

    fn o_unique(&self) -> u64 {
        self.m * self.n
    }

    fn a_span(&self, m: u64, k0: u64, len: u64, out: &mut AddrRuns) {
        debug_assert!(m < self.m && k0 + len <= self.k);
        out.push(self.offsets.ifmap + m * self.k + k0, len);
    }

    /// One phase for every rectangle: `a` is linear in `m` and in `k`, so
    /// `a(m1 + i, k1 + j) − a(m0 + i, k0 + j) = (m1 − m0)·K + (k1 − k0)`
    /// whatever `(i, j)` is.
    fn a_phase(&self, _m0: u64, _m_len: u64, _k0: u64, _k_len: u64) -> (u64, u64) {
        (0, 0)
    }
}

/// Convolution addressing with overlapping-window IFMAP reuse.
///
/// IFMAP elements are stored channel-minor (`(h · W + w) · C + c`), filters
/// filter-major, outputs pixel-major — matching the original tool's layouts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConvAddressMap {
    ifmap_w: u64,
    filter_w: u64,
    channels: u64,
    stride_h: u64,
    stride_w: u64,
    ofmap_w: u64,
    window: u64,
    num_filters: u64,
    ifmap_elems: u64,
    ofmap_pixels: u64,
    offsets: RegionOffsets,
}

impl ConvAddressMap {
    /// Creates a map for `layer` with the given region offsets.
    pub fn new(layer: &ConvLayer, offsets: RegionOffsets) -> Self {
        ConvAddressMap {
            ifmap_w: layer.ifmap_w(),
            filter_w: layer.filter_w(),
            channels: layer.channels(),
            stride_h: layer.stride_h(),
            stride_w: layer.stride_w(),
            ofmap_w: layer.ofmap_w(),
            window: layer.window_size(),
            num_filters: layer.num_filters(),
            ifmap_elems: layer.ifmap_elems(),
            ofmap_pixels: layer.ofmap_pixels(),
            offsets,
        }
    }
}

impl AddressMap for ConvAddressMap {
    fn a(&self, m: u64, k: u64) -> u64 {
        // Output pixel m at (oh, ow); window element k at (kh, kw, c).
        let oh = m / self.ofmap_w;
        let ow = m % self.ofmap_w;
        let row_elems = self.filter_w * self.channels;
        let kh = k / row_elems;
        let rem = k % row_elems;
        let kw = rem / self.channels;
        let c = rem % self.channels;
        let ih = oh * self.stride_h + kh;
        let iw = ow * self.stride_w + kw;
        self.offsets.ifmap + (ih * self.ifmap_w + iw) * self.channels + c
    }

    fn b(&self, k: u64, n: u64) -> u64 {
        debug_assert!(k < self.window && n < self.num_filters);
        self.offsets.filter + n * self.window + k
    }

    fn o(&self, m: u64, n: u64) -> u64 {
        debug_assert!(m < self.ofmap_pixels && n < self.num_filters);
        self.offsets.ofmap + m * self.num_filters + n
    }

    fn a_unique(&self) -> u64 {
        self.ifmap_elems
    }

    fn b_unique(&self) -> u64 {
        self.window * self.num_filters
    }

    fn o_unique(&self) -> u64 {
        self.ofmap_pixels * self.num_filters
    }

    fn a_span(&self, m: u64, k0: u64, len: u64, out: &mut AddrRuns) {
        // Within one filter row (fixed kh) the address is linear in k:
        // a = ifmap + (ih·W + ow·s)·C + (k − kh·row_elems), so a span only
        // breaks at filter-row boundaries.
        let oh = m / self.ofmap_w;
        let ow = m % self.ofmap_w;
        let row_elems = self.filter_w * self.channels;
        let end = k0 + len;
        let mut k = k0;
        while k < end {
            let kh = k / row_elems;
            let row_end = (kh + 1) * row_elems;
            let take = row_end.min(end) - k;
            let ih = oh * self.stride_h + kh;
            let row_base = (ih * self.ifmap_w + ow * self.stride_w) * self.channels;
            out.push(self.offsets.ifmap + row_base + (k - kh * row_elems), take);
            k += take;
        }
    }

    /// The phases of the rectangle along `m` and along `k`, each the
    /// `separable_phase` of its interval.
    ///
    /// The address is separable, `a(m, k) = f(m) + g(k)`. With
    /// `oh = ⌊m / W_o⌋`, `ow = m mod W_o` the output pixel,
    /// `f(m) = (oh·stride_h·W_i + ow·stride_w)·C
    ///       = stride_w·C·m + (stride_h·W_i − stride_w·W_o)·C·⌊m / W_o⌋`.
    /// With `kh = ⌊k / (filter_w·C)⌋` the filter row,
    /// `g(k) = kh·W_i·C + (k mod filter_w·C)
    ///       = k + (W_i − filter_w)·C·⌊k / (filter_w·C)⌋`.
    /// Each is `α·x + β·⌊x / P⌋`: linear when `β = 0`
    /// (`stride_h·W_i = stride_w·W_o` for `f`; `W_i = filter_w`, or one
    /// filter row, for `g`), affine inside one period, `P`-periodic in its
    /// steps otherwise — which is what `separable_phase` keys. Two
    /// rectangles whose `f`-parts differ by one constant and whose
    /// `g`-parts differ by one constant differ by their sum.
    fn a_phase(&self, m0: u64, m_len: u64, k0: u64, k_len: u64) -> (u64, u64) {
        let row_elems = self.filter_w * self.channels;
        let f_linear = self.stride_h * self.ifmap_w == self.stride_w * self.ofmap_w;
        let g_linear = self.ifmap_w == self.filter_w || self.window == row_elems;
        (
            separable_phase(m0, m_len, self.ofmap_w, f_linear),
            separable_phase(k0, k_len, row_elems, g_linear),
        )
    }
}

/// The phase of the interval `[x0, x0 + len)` under a function of the
/// form `h(x) = α·x + β·⌊x / period⌋`, for [`AddressMap::a_phase`]:
/// two intervals of length `len` with equal phase differ by one constant
/// `h(x1 + i) − h(x0 + i)` at every `i < len`.
///
/// * `linear` (`β = 0`): one phase, `0`.
/// * An interval inside one period (`x0 mod period + len ≤ period`):
///   `⌊(x0 + i) / period⌋` is constant on it, so `h` is affine there with
///   slope `α`, and every such interval is one phase, `period`.
/// * Otherwise the phase is `x0 mod period`: the step of `⌊x / period⌋`
///   falls at the same `i` in two intervals with the same residue, so the
///   difference of the steps is constant; and two intervals with different
///   residues, at least one of which steps, step at different `i`.
///
/// `period` must be positive.
fn separable_phase(x0: u64, len: u64, period: u64, linear: bool) -> u64 {
    let residue = x0 % period;
    if linear {
        0
    } else if len <= period - residue {
        period
    } else {
        residue
    }
}

/// A window into another map: shifts GEMM coordinates by an output-space
/// offset `(m_off, n_off)`.
///
/// Scale-out partitions each own a tile of the output space but address the
/// *same* underlying tensors; wrapping the layer's map in a `SubGemmMap`
/// gives a partition its view without duplicating address logic. The
/// contraction dimension is never partitioned (each partition computes
/// complete outputs), so `k` passes through unchanged.
///
/// The `*_unique` methods report the underlying map's totals (an upper
/// bound for the partition) — they describe the tensors, not the tile.
#[derive(Debug, Clone, Copy)]
pub struct SubGemmMap<'a, M: ?Sized> {
    inner: &'a M,
    m_off: u64,
    n_off: u64,
}

impl<'a, M: AddressMap + ?Sized> SubGemmMap<'a, M> {
    /// Wraps `inner`, offsetting output rows by `m_off` and output columns
    /// by `n_off`.
    pub fn new(inner: &'a M, m_off: u64, n_off: u64) -> Self {
        SubGemmMap {
            inner,
            m_off,
            n_off,
        }
    }
}

impl<M: AddressMap + ?Sized> AddressMap for SubGemmMap<'_, M> {
    fn a(&self, m: u64, k: u64) -> u64 {
        self.inner.a(m + self.m_off, k)
    }

    fn b(&self, k: u64, n: u64) -> u64 {
        self.inner.b(k, n + self.n_off)
    }

    fn o(&self, m: u64, n: u64) -> u64 {
        self.inner.o(m + self.m_off, n + self.n_off)
    }

    fn a_unique(&self) -> u64 {
        self.inner.a_unique()
    }

    fn b_unique(&self) -> u64 {
        self.inner.b_unique()
    }

    fn o_unique(&self) -> u64 {
        self.inner.o_unique()
    }

    fn a_span(&self, m: u64, k0: u64, len: u64, out: &mut AddrRuns) {
        self.inner.a_span(m + self.m_off, k0, len, out);
    }

    /// The inner map's phase of the shifted rectangle: this map's
    /// `a(m, k)` is the inner `a(m + m_off, k)`, so the inner map's
    /// constant for two rectangles shifted by `m_off` is this map's for
    /// the two unshifted ones.
    fn a_phase(&self, m0: u64, m_len: u64, k0: u64, k_len: u64) -> (u64, u64) {
        self.inner.a_phase(m0 + self.m_off, m_len, k0, k_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::ConvLayer;
    use std::collections::HashSet;

    #[test]
    fn sub_gemm_map_offsets_output_space() {
        let base = GemmAddressMap::new(8, 4, 8, RegionOffsets::default());
        let sub = SubGemmMap::new(&base, 4, 2);
        assert_eq!(sub.a(0, 1), base.a(4, 1));
        assert_eq!(sub.b(3, 0), base.b(3, 2));
        assert_eq!(sub.o(1, 1), base.o(5, 3));
        assert_eq!(sub.a_unique(), base.a_unique());
    }

    #[test]
    fn adjacent_partitions_tile_the_output_disjointly() {
        let base = GemmAddressMap::new(8, 4, 8, RegionOffsets::default());
        let left = SubGemmMap::new(&base, 0, 0);
        let right = SubGemmMap::new(&base, 0, 4);
        let mut outputs = HashSet::new();
        for m in 0..8 {
            for n in 0..4 {
                outputs.insert(left.o(m, n));
                outputs.insert(right.o(m, n));
            }
        }
        assert_eq!(outputs.len(), 64); // full output, no overlap
    }

    #[test]
    fn gemm_addresses_are_dense_and_disjoint() {
        let map = GemmAddressMap::new(3, 4, 5, RegionOffsets::default());
        let mut a_addrs = HashSet::new();
        for m in 0..3 {
            for k in 0..4 {
                a_addrs.insert(map.a(m, k));
            }
        }
        assert_eq!(a_addrs.len() as u64, map.a_unique());

        let mut b_addrs = HashSet::new();
        for k in 0..4 {
            for n in 0..5 {
                b_addrs.insert(map.b(k, n));
            }
        }
        assert_eq!(b_addrs.len() as u64, map.b_unique());
        assert!(a_addrs.is_disjoint(&b_addrs));
    }

    fn conv_map(stride: u64) -> (ConvLayer, ConvAddressMap) {
        let layer = ConvLayer::new("t", 8, 8, 3, 3, 2, 4, stride).unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        (layer, map)
    }

    #[test]
    fn conv_window_overlap_reuses_addresses() {
        let (layer, map) = conv_map(1);
        // Enumerate every (output pixel, window element) IFMAP address.
        let mut distinct = HashSet::new();
        let mut touches = 0u64;
        for m in 0..layer.ofmap_pixels() {
            for k in 0..layer.window_size() {
                distinct.insert(map.a(m, k));
                touches += 1;
            }
        }
        // Stride 1 with a 3x3 filter has heavy overlap: far fewer distinct
        // addresses than coordinate touches, and every touched address is a
        // real ifmap element.
        assert!(distinct.len() as u64 <= layer.ifmap_elems());
        assert!((distinct.len() as u64) < touches / 4);
        assert!(distinct.iter().all(|&addr| addr < layer.ifmap_elems()));
    }

    #[test]
    fn conv_touches_every_interior_element_with_stride_one() {
        let (layer, map) = conv_map(1);
        let mut distinct = HashSet::new();
        for m in 0..layer.ofmap_pixels() {
            for k in 0..layer.window_size() {
                distinct.insert(map.a(m, k));
            }
        }
        // Stride-1 windows cover the full (padded) ifmap exactly.
        assert_eq!(distinct.len() as u64, layer.ifmap_elems());
    }

    #[test]
    fn conv_stride_two_skips_elements() {
        let (layer, map) = conv_map(2);
        let mut distinct = HashSet::new();
        for m in 0..layer.ofmap_pixels() {
            for k in 0..layer.window_size() {
                distinct.insert(map.a(m, k));
            }
        }
        // A 3x3 window at stride 2 still covers most but the geometry is
        // checked: never more than the ifmap, and strictly fewer touches of
        // border columns the stride skips.
        assert!(distinct.len() as u64 <= layer.ifmap_elems());
    }

    #[test]
    fn conv_filter_and_output_addresses_unique() {
        let (layer, map) = conv_map(1);
        let mut b = HashSet::new();
        for k in 0..layer.window_size() {
            for n in 0..layer.num_filters() {
                b.insert(map.b(k, n));
            }
        }
        assert_eq!(b.len() as u64, map.b_unique());
        let mut o = HashSet::new();
        for m in 0..layer.ofmap_pixels() {
            for n in 0..layer.num_filters() {
                o.insert(map.o(m, n));
            }
        }
        assert_eq!(o.len() as u64, map.o_unique());
    }

    #[test]
    fn regions_do_not_alias_with_default_offsets() {
        let (layer, map) = conv_map(1);
        let a_max = map.a(layer.ofmap_pixels() - 1, layer.window_size() - 1);
        assert!(a_max < RegionOffsets::default().filter);
        let b_min = map.b(0, 0);
        let b_max = map.b(layer.window_size() - 1, layer.num_filters() - 1);
        assert!(b_min >= RegionOffsets::default().filter);
        assert!(b_max < RegionOffsets::default().ofmap);
        assert!(map.o(0, 0) >= RegionOffsets::default().ofmap);
    }

    #[test]
    fn a_span_matches_elementwise_enumeration() {
        // GEMM: any (m, k0, len) slice is one run equal to the element walk.
        let gemm = GemmAddressMap::new(6, 9, 4, RegionOffsets::default());
        for m in 0..6 {
            for k0 in 0..9 {
                for len in 0..=(9 - k0) {
                    let mut runs = AddrRuns::new();
                    gemm.a_span(m, k0, len, &mut runs);
                    let expect: Vec<u64> = (k0..k0 + len).map(|k| gemm.a(m, k)).collect();
                    assert_eq!(runs.iter_elements().collect::<Vec<u64>>(), expect);
                }
            }
        }
        // Conv (both strides): spans split at filter-row boundaries but the
        // element sequence is identical.
        for stride in [1, 2] {
            let (layer, map) = conv_map(stride);
            let window = layer.window_size();
            for m in 0..layer.ofmap_pixels() {
                for k0 in [0, 1, window / 2, window - 1] {
                    let len = window - k0;
                    let mut runs = AddrRuns::new();
                    map.a_span(m, k0, len, &mut runs);
                    let expect: Vec<u64> = (k0..k0 + len).map(|k| map.a(m, k)).collect();
                    assert_eq!(runs.iter_elements().collect::<Vec<u64>>(), expect);
                }
            }
        }
        // SubGemmMap delegates with the row offset applied.
        let sub = SubGemmMap::new(&gemm, 2, 1);
        let mut runs = AddrRuns::new();
        sub.a_span(1, 2, 5, &mut runs);
        let expect: Vec<u64> = (2..7).map(|k| gemm.a(3, k)).collect();
        assert_eq!(runs.iter_elements().collect::<Vec<u64>>(), expect);
    }

    /// Convolutions of every kind the phase rules distinguish: square and
    /// rectangular ifmaps, filters and strides, a 1×1 filter, a fully
    /// connected layer, `W_i = filter_w`, a linear `f`
    /// (`stride_h·W_i = stride_w·W_o`) and its stride-swapped twin.
    fn phase_maps() -> Vec<ConvAddressMap> {
        let conv = |ifmap: (u64, u64), filter: (u64, u64), channels, strides: (u64, u64)| {
            let layer = scalesim_topology::ConvLayerBuilder::new("t")
                .ifmap(ifmap.0, ifmap.1)
                .filter(filter.0, filter.1)
                .channels(channels)
                .num_filters(2)
                .strides(strides.0, strides.1)
                .build()
                .unwrap();
            ConvAddressMap::new(&layer, RegionOffsets::default())
        };
        vec![
            conv((6, 6), (3, 3), 2, (1, 1)),
            conv((7, 5), (2, 3), 1, (2, 1)),
            conv((5, 8), (3, 2), 2, (1, 2)),
            conv((5, 5), (1, 1), 3, (1, 1)),
            conv((1, 1), (1, 1), 12, (1, 1)),
            conv((5, 3), (2, 3), 2, (1, 1)),
            // W_o = 4: stride_h·W_i = 32 ≠ stride_w·W_o = 8, so `f` steps,
            // though the stride-swapped products are equal (16 = 16).
            conv((9, 8), (2, 2), 1, (4, 2)),
            // stride_h·W_i = 1·4 = stride_w·W_o = 2·2: `f` is linear.
            conv((4, 4), (2, 2), 1, (1, 2)),
        ]
    }

    #[test]
    fn phase_of_each_map() {
        // GEMM: one phase for every rectangle.
        let gemm = GemmAddressMap::new(40, 6, 8, RegionOffsets::default());
        assert!((0..40).all(|m0| gemm.a_phase(m0, 40 - m0, m0 % 6, 6 - m0 % 6) == (0, 0)));
        // Conv, 3x3 filter over 8x8x2 at stride 1: W_o = 6, filter row of
        // 6 elements. An m-interval inside one output row is the phase
        // W_o, one that wraps is its start column; likewise along k.
        let layer = ConvLayer::new("t", 8, 8, 3, 3, 2, 4, 1).unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        assert_eq!(map.a_phase(0, 6, 0, 6), (6, 6));
        assert_eq!(map.a_phase(13, 5, 7, 5), (6, 6));
        assert_eq!(map.a_phase(13, 6, 7, 6), (1, 1));
        assert_eq!(map.a_phase(1, 30, 0, 18), (1, 0));
        assert_eq!(map.a_phase(7, 30, 0, 18), (1, 0));
        assert_ne!(map.a_phase(0, 7, 0, 1), map.a_phase(1, 7, 0, 1));
        // FC: W_o = 1 and one filter row, so one phase per length.
        let fc = ConvLayer::new("fc", 1, 1, 1, 1, 16, 8, 1).unwrap();
        let fc = ConvAddressMap::new(&fc, RegionOffsets::default());
        assert_eq!(fc.a_phase(0, 1, 3, 5), fc.a_phase(0, 1, 9, 5));
        // W_i = filter_w: `g` is linear, every k-interval one phase.
        let wide = ConvLayer::new("w", 6, 3, 2, 3, 2, 4, 1).unwrap();
        let wide = ConvAddressMap::new(&wide, RegionOffsets::default());
        assert_eq!(wide.a_phase(0, 1, 1, 11).1, 0);
        // A window of a window adds the offsets before asking the map.
        let sub = SubGemmMap::new(&map, 2, 1);
        let nested = SubGemmMap::new(&sub, 3, 0);
        assert_eq!(sub.a_phase(0, 30, 0, 18), map.a_phase(2, 30, 0, 18));
        assert_eq!(nested.a_phase(1, 30, 0, 18), map.a_phase(6, 30, 0, 18));
        assert_eq!(SubGemmMap::new(&gemm, 7, 3).a_phase(5, 9, 1, 2), (0, 0));
        // A map that proves nothing merges nothing.
        struct Opaque;
        impl AddressMap for Opaque {
            fn a(&self, m: u64, k: u64) -> u64 {
                m * m + k
            }
            fn b(&self, _: u64, _: u64) -> u64 {
                0
            }
            fn o(&self, _: u64, _: u64) -> u64 {
                0
            }
            fn a_unique(&self) -> u64 {
                0
            }
            fn b_unique(&self) -> u64 {
                0
            }
            fn o_unique(&self) -> u64 {
                0
            }
        }
        assert_eq!(Opaque.a_phase(5, 2, 3, 1), (5, 3));
        assert_eq!(SubGemmMap::new(&Opaque, 4, 0).a_phase(5, 2, 3, 1), (9, 3));
    }

    #[test]
    fn equal_phase_shifts_every_a_address_by_one_constant() {
        // The contract of `a_phase`, by enumeration: every rectangle of
        // every map is held to the first rectangle of its lengths and
        // phase — a(m1 + i, k1 + j) − a(m0 + i, k0 + j) is one constant
        // over the rectangle, through `a` and through the runs of
        // `a_span`. Equality is transitive, so that covers every pair.
        let spans = |map: &dyn AddressMap, m: u64, k0: u64, len: u64| {
            let mut runs = AddrRuns::new();
            map.a_span(m, k0, len, &mut runs);
            runs.iter_runs()
                .map(|r| (r.start, r.len))
                .collect::<Vec<_>>()
        };
        let gemm = GemmAddressMap::new(9, 5, 3, RegionOffsets::default());
        let maps: Vec<(Box<dyn AddressMap>, u64, u64)> = phase_maps()
            .into_iter()
            .map(|map| {
                let (m, k) = (map.ofmap_pixels, map.window);
                (Box::new(map) as Box<dyn AddressMap>, m, k)
            })
            .chain([(Box::new(gemm) as Box<dyn AddressMap>, 9, 5)])
            .collect();
        for (map, m_total, k_total) in &maps {
            let (m_total, k_total) = (*m_total, *k_total);
            let mut first = std::collections::HashMap::new();
            let (mut rectangles, mut merged) = (0, 0);
            for m_len in 1..=m_total {
                for k_len in 1..=k_total {
                    for m1 in 0..=m_total - m_len {
                        for k1 in 0..=k_total - k_len {
                            rectangles += 1;
                            let phase = map.a_phase(m1, m_len, k1, k_len);
                            let (m0, k0) = *first.entry((m_len, k_len, phase)).or_insert((m1, k1));
                            if (m0, k0) == (m1, k1) {
                                continue;
                            }
                            merged += 1;
                            let d = map.a(m1, k1).wrapping_sub(map.a(m0, k0));
                            for i in 0..m_len {
                                for j in 0..k_len {
                                    assert_eq!(
                                        map.a(m1 + i, k1 + j),
                                        map.a(m0 + i, k0 + j).wrapping_add(d),
                                        "{:?} vs {:?}",
                                        (m1, m_len, k1, k_len),
                                        (m0, k0)
                                    );
                                }
                                let shifted: Vec<_> = spans(&**map, m0 + i, k0, k_len)
                                    .into_iter()
                                    .map(|(start, len)| (start.wrapping_add(d), len))
                                    .collect();
                                assert_eq!(spans(&**map, m1 + i, k1, k_len), shifted);
                            }
                        }
                    }
                }
            }
            assert!(merged > rectangles / 2, "{merged} of {rectangles} merged");
        }
    }

    #[test]
    fn fc_layer_degenerates_to_gemm_addressing() {
        // An FC layer (1x1 ifmap == filter) has exactly one output pixel and
        // its A row walks the channel dimension linearly.
        let layer = ConvLayer::new("fc", 1, 1, 1, 1, 16, 8, 1).unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        for k in 0..16 {
            assert_eq!(map.a(0, k), k);
        }
    }
}
