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

    /// The *row phase* of the output-row offset `m_off`: a label such that
    /// two tiles of the output space whose offsets have the same phase see
    /// the same operand-A addresses up to one constant. Precisely, if
    /// `a_row_phase(x) == a_row_phase(y)` there is one integer `d` with
    /// `a(m + y, k) = a(m + x, k) + d` for every `(m, k)` at which both
    /// sides are defined.
    ///
    /// Scale-out simulates one tile per *class* on the strength of this
    /// (`Simulator::run_layer`): the run-granular demand generator reads a
    /// map through [`AddressMap::a_span`] alone, and everything downstream
    /// of it — the first-use dedup of the A stream, run coalescing, the
    /// FIFO operand buffers — sees addresses only through their order,
    /// equality and adjacency, which adding a constant to every address
    /// preserves. Two tiles of equal extent and equal phase therefore give
    /// equal miss, hit and eviction counts fold for fold.
    ///
    /// The default is `m_off` itself: equal phases are then equal offsets
    /// and `d = 0`, which is true of any map and merges no two tile rows.
    /// An implementation may return anything coarser that it can prove; it
    /// must not key on the addresses a particular stream happens to touch.
    fn a_row_phase(&self, m_off: u64) -> u64 {
        m_off
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

    /// One phase for every offset: `a` is linear in `m`, so
    /// `a(m + y, k) − a(m + x, k) = (y − x)·K` whatever `(m, k)` is.
    fn a_row_phase(&self, _m_off: u64) -> u64 {
        0
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

    /// The offset's column in the output feature map, `m_off mod W_o`.
    ///
    /// `a(m, k)` reads `m` only as `oh = ⌊m / W_o⌋` and `ow = m mod W_o`.
    /// If `y = x + d·W_o` then `m + y` and `m + x` have the same `ow` and
    /// their `oh` differ by `d`, so `ih` differs by `d·stride_h`, `iw` not
    /// at all, and `a(m + y, k) = a(m + x, k) + d·stride_h·W_i·C` for every
    /// `(m, k)`. Offsets in different columns are different phases, and
    /// have to be: a tile of `m_len` rows starting mid-row wraps to the next
    /// output row after `W_o − ow` pixels, where the IFMAP address jumps,
    /// and where it wraps decides which windows overlap inside a fold. A
    /// fully connected layer (`W_o = 1`) has one phase, like a GEMM.
    fn a_row_phase(&self, m_off: u64) -> u64 {
        m_off % self.ofmap_w
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

    /// The inner map's phase of the combined offset: this map's
    /// `a(m + x, k)` is the inner `a(m + (x + m_off), k)`, so the inner
    /// map's constant for `x + m_off` and `y + m_off` is this map's for
    /// `x` and `y`.
    fn a_row_phase(&self, m_off: u64) -> u64 {
        self.inner.a_row_phase(m_off + self.m_off)
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

    #[test]
    fn row_phase_of_each_map() {
        // GEMM: one phase. Conv: the offset's output column, period W_o.
        let gemm = GemmAddressMap::new(40, 4, 8, RegionOffsets::default());
        assert!((0..40).all(|m_off| gemm.a_row_phase(m_off) == 0));
        for stride in [1, 2] {
            let (layer, map) = conv_map(stride);
            let w = layer.ofmap_w();
            for m_off in 0..layer.ofmap_pixels() {
                assert_eq!(map.a_row_phase(m_off), m_off % w);
                assert_eq!(map.a_row_phase(m_off + w), map.a_row_phase(m_off));
            }
            assert_ne!(map.a_row_phase(1), map.a_row_phase(0));
        }
        // FC: W_o = 1, so one phase again.
        let fc = ConvLayer::new("fc", 1, 1, 1, 1, 16, 8, 1).unwrap();
        let fc = ConvAddressMap::new(&fc, RegionOffsets::default());
        assert!((0..4).all(|m_off| fc.a_row_phase(m_off) == 0));
        // A window of a window adds the offsets before asking the map.
        let (layer, map) = conv_map(1);
        let w = layer.ofmap_w();
        let sub = SubGemmMap::new(&map, 2, 1);
        let nested = SubGemmMap::new(&sub, 3, 0);
        assert_eq!(sub.a_row_phase(0), 2);
        assert_eq!(sub.a_row_phase(w - 2), 0);
        assert_eq!(nested.a_row_phase(1), 6 % w);
        assert_eq!(SubGemmMap::new(&gemm, 7, 3).a_row_phase(5), 0);
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
        assert_eq!(Opaque.a_row_phase(5), 5);
        assert_eq!(SubGemmMap::new(&Opaque, 4, 0).a_row_phase(5), 9);
    }

    #[test]
    fn equal_row_phase_shifts_every_a_address_by_one_constant() {
        // The contract of `a_row_phase`, by enumeration: for every pair of
        // offsets with one phase, a(m + y, k) − a(m + x, k) is the same for
        // every (m, k) both are defined at — through `a` and through the
        // runs of `a_span`.
        let spans = |map: &dyn AddressMap, m: u64, window: u64| {
            let mut runs = AddrRuns::new();
            map.a_span(m, 0, window, &mut runs);
            runs.iter_runs()
                .map(|r| (r.start, r.len))
                .collect::<Vec<_>>()
        };
        for stride in [1, 2] {
            let (layer, map) = conv_map(stride);
            let (pixels, window) = (layer.ofmap_pixels(), layer.window_size());
            let mut merged = 0;
            for x in 0..pixels {
                for y in x + 1..pixels {
                    if map.a_row_phase(x) != map.a_row_phase(y) {
                        continue;
                    }
                    merged += 1;
                    let d = map.a(y, 0) - map.a(x, 0);
                    for m in 0..pixels - y {
                        for k in 0..window {
                            assert_eq!(map.a(m + y, k), map.a(m + x, k) + d);
                        }
                        let shifted: Vec<_> = spans(&map, m + x, window)
                            .into_iter()
                            .map(|(start, len)| (start + d, len))
                            .collect();
                        assert_eq!(spans(&map, m + y, window), shifted);
                    }
                }
            }
            assert!(merged > 0);
        }
        let gemm = GemmAddressMap::new(9, 5, 3, RegionOffsets::default());
        for x in 0..9 {
            for y in x..9 {
                let d = gemm.a(y, 0) - gemm.a(x, 0);
                for m in 0..9 - y {
                    for k in 0..5 {
                        assert_eq!(gemm.a(m + y, k), gemm.a(m + x, k) + d);
                    }
                }
            }
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
