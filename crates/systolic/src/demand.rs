//! Fold-granular demand streams for the DRAM model.
//!
//! The double-buffered DRAM model (in `scalesim-memory`) only needs to know,
//! per fold: how long the fold computes and which *unique* addresses it
//! touches, in first-use order. Enumerating that directly is orders of
//! magnitude cheaper than generating the full per-cycle trace, and the test
//! suite proves the two views consistent (every address a fold demands here
//! appears in its trace window, and vice versa).
//!
//! Both generators here yield [`FoldDemandRuns`]. [`fold_demand_runs`] is
//! the one the simulator runs: O(runs) per fold, canonical labels for the
//! B and O streams. [`fold_demands`] enumerates real addresses one by one:
//! what DRAM trace export prints, and the reference for the other.

use std::collections::HashSet;

use scalesim_memory::{AddrRuns, AddressMap, IntervalSet};
use scalesim_topology::{Dataflow, MappedDims};

use crate::fold::{Fold, FoldPlan};
use crate::ArrayShape;

/// Iterator over the per-fold demands of a workload in real addresses.
/// Created by [`fold_demands`].
#[derive(Debug)]
pub struct FoldDemands<'a, M: ?Sized> {
    dims: MappedDims,
    map: &'a M,
    plan: FoldPlan,
}

/// Enumerates each fold's unique address demand for `dims` on `array`,
/// address by address: real addresses in all four streams, in the order
/// the array first uses them.
///
/// This is the enumeration DRAM trace export needs — a trace prints
/// addresses, and the B and O streams of [`fold_demand_runs`] carry
/// canonical labels — and it is the reference [`fold_demand_runs`] is
/// tested against, so it shares nothing with it: one [`AddressMap`] call
/// and one push per element, a `HashSet` for the first-use dedup of the A
/// stream (no [`IntervalSet`], no `a_span`), and no seal, so a
/// [`RunBuffer`](scalesim_memory::RunBuffer) walks every stream it yields.
/// It costs O(elements) per fold where [`fold_demand_runs`] costs O(runs);
/// nothing on the simulation path calls it.
///
/// ```
/// use scalesim_systolic::{fold_demands, ArrayShape};
/// use scalesim_memory::{GemmAddressMap, RegionOffsets};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let shape = GemmShape::new(8, 4, 8);
/// let dims = shape.project(Dataflow::OutputStationary);
/// let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
/// let folds: Vec<_> = fold_demands(&dims, ArrayShape::square(4), &map).collect();
/// assert_eq!(folds.len(), 4);
/// assert_eq!(folds[0].a.element_count(), 4 * 4); // 4 rows x T=4 unique elements
/// assert_eq!(folds[0].a.seal(), 0);
/// ```
pub fn fold_demands<'a, M: AddressMap + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &'a M,
) -> FoldDemands<'a, M> {
    FoldDemands {
        dims: *dims,
        map,
        plan: FoldPlan::new(dims, array),
    }
}

impl<'a, M: AddressMap + ?Sized> Iterator for FoldDemands<'a, M> {
    type Item = FoldDemandRuns;

    fn next(&mut self) -> Option<FoldDemandRuns> {
        let fold = self.plan.next()?;
        Some(demand_for_fold(&self.dims, &fold, self.map))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.plan.size_hint()
    }
}

impl<'a, M: AddressMap + ?Sized> ExactSizeIterator for FoldDemands<'a, M> {}

/// Pushes `addr` if it has not been seen yet (first-use-order dedup).
fn push_unique(seen: &mut HashSet<u64>, out: &mut AddrRuns, addr: u64) {
    if seen.insert(addr) {
        out.push(addr, 1);
    }
}

fn demand_for_fold<M: AddressMap + ?Sized>(
    dims: &MappedDims,
    fold: &Fold,
    map: &M,
) -> FoldDemandRuns {
    let t = dims.temporal;
    let ru = fold.rows_used;
    let cu = fold.cols_used;
    let mut a = AddrRuns::new();
    let mut b = AddrRuns::new();
    let mut o_spill = AddrRuns::new();
    let mut o_writes = AddrRuns::new();
    // Only IFMAP-side (operand A) addresses can repeat within a fold
    // (convolution window overlap); B and O coordinates are distinct by
    // construction, so they skip the dedup set.
    let mut a_seen = HashSet::new();

    match dims.dataflow {
        Dataflow::OutputStationary => {
            for i in 0..ru {
                let m = fold.row_base + i;
                for k in 0..t {
                    push_unique(&mut a_seen, &mut a, map.a(m, k));
                }
            }
            for j in 0..cu {
                let n = fold.col_base + j;
                for k in 0..t {
                    b.push(map.b(k, n), 1);
                }
            }
            for i in 0..ru {
                let m = fold.row_base + i;
                for j in 0..cu {
                    o_writes.push(map.o(m, fold.col_base + j), 1);
                }
            }
        }
        Dataflow::WeightStationary => {
            let k_base = fold.row_base;
            let n_base = fold.col_base;
            for i in 0..ru {
                for j in 0..cu {
                    b.push(map.b(k_base + i, n_base + j), 1);
                }
            }
            for mt in 0..t {
                for i in 0..ru {
                    push_unique(&mut a_seen, &mut a, map.a(mt, k_base + i));
                }
            }
            let spill = fold.fr > 0;
            for mt in 0..t {
                for j in 0..cu {
                    let addr = map.o(mt, n_base + j);
                    if spill {
                        o_spill.push(addr, 1);
                    }
                    o_writes.push(addr, 1);
                }
            }
        }
        Dataflow::InputStationary => {
            let k_base = fold.row_base;
            let m_base = fold.col_base;
            for j in 0..cu {
                for i in 0..ru {
                    push_unique(&mut a_seen, &mut a, map.a(m_base + j, k_base + i));
                }
            }
            for nt in 0..t {
                for i in 0..ru {
                    b.push(map.b(k_base + i, nt), 1);
                }
            }
            let spill = fold.fr > 0;
            for nt in 0..t {
                for j in 0..cu {
                    let addr = map.o(m_base + j, nt);
                    if spill {
                        o_spill.push(addr, 1);
                    }
                    o_writes.push(addr, 1);
                }
            }
        }
    }

    FoldDemandRuns {
        fold: *fold,
        a,
        b,
        o_spill,
        o_writes,
    }
}

/// One fold's memory demand as four run-length-compressed streams.
///
/// Two generators yield it. [`fold_demands`] fills all four streams with
/// real addresses, element by element, and seals nothing. What follows
/// describes the streams of [`fold_demand_runs`], the generator the
/// simulator runs.
///
/// The **A** stream carries *real* IFMAP addresses (convolution window
/// overlap — the reuse the DRAM model measures — lives in the real address
/// structure), deduplicated to first-use order exactly like the
/// element-by-element enumeration.
///
/// The **B** and **O** streams carry *canonical labels* rather than real
/// addresses, and the labels are *tile-major*: every coordinate a fold
/// touches gets a label inside a block that belongs to the fold's tile,
/// ascending in the loop order of [`fold_demands`], so `b`, `o_spill` and
/// `o_writes` are each exactly **one run per fold**. With `T` the temporal
/// extent, `R × C` the array, `(fr, fc)` the fold, `r′ × c′` its tile,
/// `i < r′` and `j < c′` the offsets inside it and `t < T` the temporal
/// index:
///
/// | stream | label | independent of | label space |
/// |---|---|---|---|
/// | OS `O[m][n]`, WS `B[k][n]` | `(fr·F_C + fc)·R·C + i·c′ + j` | — (one fold touches each element) | `F_R·F_C·R·C` |
/// | OS `B[t][n]` | `fc·C·T + j·T + t` | `fr` | `S_C·T` |
/// | WS `O[t][n]`, IS `O[m][t]` | `fc·C·T + t·c′ + j` | `fr` | `S_C·T` |
/// | IS `B[k][t]` | `fr·R·T + t·r′ + i` | `fc` | `S_R·T` |
///
/// Each is a layer-wide injection. Fold tiles are aligned and `r′ ≤ R`,
/// `c′ ≤ C`, so the block of one tile — `[fc·C·T, (fc·C + c′)·T)`,
/// `[fr·R·T, (fr·R + r′)·T)` or `R·C` labels from the fold index — ends
/// before the next begins; inside a block the offsets are a mixed-radix
/// number. A stream that later folds revisit (WS/IS partial sums along
/// `fr`, OS `B` along `fr`, IS `B` along `fc`) has a label that does not
/// depend on that fold index, so a revisited coordinate gets its label
/// back. The address-map contract guarantees B and O coordinates map to
/// distinct real addresses, so the relabeling is a bijection applied
/// consistently across the layer — and FIFO buffer hit/miss/eviction
/// counts depend only on the equality pattern of the stream, not on the
/// address values. The resulting
/// [`DramSummary`](scalesim_memory::DramSummary) is therefore identical to
/// the one the real addresses of [`fold_demands`] give (the workspace
/// equivalence property suite pins this). Real-address consumers (trace
/// export) use [`fold_demands`].
///
/// Every label is below its space's bound in the table. `S_C·T` and
/// `S_R·T` are element counts of an operand matrix, and the tile-major
/// bound is at most `R·C·S_R·S_C` (`F_R·R ≤ S_R + R − 1 ≤ S_R·R`), within
/// a factor `R·C` of the `S_R·S_C` the row-major labels it replaces
/// reached.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldDemandRuns {
    /// The fold this demand belongs to.
    pub fold: Fold,
    /// Unique operand-A (IFMAP) address runs, real addresses, first-use
    /// order.
    ///
    /// Sealed by [`fold_demand_runs`] ([`AddrRuns::seal_distinct`]), which
    /// promises that no address repeats within it: the stream is the gaps
    /// of a first-use dedup set. All folds served by one generated stream
    /// — a fold row under OS and WS, a single fold under IS — carry the
    /// same seal, and
    /// [`RunBuffer::epoch`](scalesim_memory::RunBuffer::epoch) answers the
    /// repeats from the fixed point the first one reached: all hits again
    /// after a walk that missed nothing (nothing changed) or evicted
    /// nothing (everything demanded is resident), all misses again after a
    /// walk of more than a bufferful that hit nothing (the FIFO holds the
    /// stream's tail, and a stream without duplicates evicts each element
    /// before it comes round). Pushing to the stream drops the seal; a
    /// consumer that edits it gets the walk.
    pub a: AddrRuns,
    /// Operand-B (filter) demand runs; canonical labels from
    /// [`fold_demand_runs`].
    pub b: AddrRuns,
    /// Partial-sum re-read runs (WS/IS row folds beyond the first; empty
    /// otherwise), in the label or address space of `o_writes`.
    pub o_spill: AddrRuns,
    /// Output write runs; canonical labels from [`fold_demand_runs`].
    pub o_writes: AddrRuns,
}

impl FoldDemandRuns {
    /// Total demanded elements across all four streams.
    pub fn element_count(&self) -> u64 {
        self.a.element_count()
            + self.b.element_count()
            + self.o_spill.element_count()
            + self.o_writes.element_count()
    }

    /// Total runs across all four streams.
    pub fn run_count(&self) -> u64 {
        (self.a.run_count()
            + self.b.run_count()
            + self.o_spill.run_count()
            + self.o_writes.run_count()) as u64
    }

    /// Empties all four streams, keeping their allocations — the reset
    /// used by [`FoldDemandsRuns::next_into`] scratch reuse.
    pub fn clear(&mut self) {
        self.a.clear();
        self.b.clear();
        self.o_spill.clear();
        self.o_writes.clear();
    }
}

impl Default for FoldDemandRuns {
    /// An empty demand attached to a zeroed placeholder fold — scratch
    /// state for [`FoldDemandsRuns::next_into`], which overwrites it.
    fn default() -> FoldDemandRuns {
        FoldDemandRuns {
            fold: Fold {
                fr: 0,
                fc: 0,
                row_base: 0,
                col_base: 0,
                rows_used: 0,
                cols_used: 0,
                base_cycle: 0,
                duration: 0,
            },
            a: AddrRuns::new(),
            b: AddrRuns::new(),
            o_spill: AddrRuns::new(),
            o_writes: AddrRuns::new(),
        }
    }
}

/// Iterator over run-compressed per-fold demands. Created by
/// [`fold_demand_runs`].
#[derive(Debug)]
pub struct FoldDemandsRuns<'a, M: ?Sized> {
    dims: MappedDims,
    map: &'a M,
    plan: FoldPlan,
    /// `R·C`, the size of one fold's block of tile-major labels.
    tile: u64,
    /// First-use dedup for the A stream, cleared whenever it is generated.
    a_seen: IntervalSet,
    /// The deduplicated A stream last generated, copied into every fold
    /// it serves: all folds of a fold row under OS and WS, one fold under
    /// IS.
    a_scratch: AddrRuns,
    /// What `a_scratch` was generated for: the fold row (OS, WS) or the
    /// fold index (IS). `None` until the first fold, so whatever a loaned
    /// `a_scratch` held is never served.
    a_key: Option<u64>,
}

/// Enumerates each fold's demand run by run, in the streams the
/// [`FoldDemandRuns`] table describes — the generator the simulator feeds
/// [`DramModel::fold_runs`](scalesim_memory::DramModel::fold_runs) from.
///
/// ```
/// use scalesim_systolic::{fold_demand_runs, ArrayShape};
/// use scalesim_memory::{GemmAddressMap, RegionOffsets};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let shape = GemmShape::new(8, 4, 8);
/// let dims = shape.project(Dataflow::OutputStationary);
/// let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
/// let folds: Vec<_> = fold_demand_runs(&dims, ArrayShape::square(4), &map).collect();
/// assert_eq!(folds.len(), 4);
/// assert_eq!(folds[0].a.element_count(), 4 * 4); // 4 rows x T=4 elements
/// assert_eq!(folds[0].a.run_count(), 1); // ... adjacent rows fuse to one run
/// assert_eq!(folds[0].run_count(), 3); // ... and B and O are one run each
/// ```
pub fn fold_demand_runs<'a, M: AddressMap + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &'a M,
) -> FoldDemandsRuns<'a, M> {
    fold_demand_runs_in(dims, array, map, IntervalSet::new(), AddrRuns::new())
}

/// [`fold_demand_runs`] with caller-provided A-stream scratch, so repeated
/// layer simulations on one worker reuse the grown storage. Reclaim it
/// with [`FoldDemandsRuns::into_scratch`] when the iterator is exhausted.
pub fn fold_demand_runs_in<'a, M: AddressMap + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &'a M,
    a_seen: IntervalSet,
    a_scratch: AddrRuns,
) -> FoldDemandsRuns<'a, M> {
    FoldDemandsRuns {
        dims: *dims,
        map,
        plan: FoldPlan::new(dims, array),
        tile: array.macs(),
        a_seen,
        a_scratch,
        a_key: None,
    }
}

impl<'a, M: AddressMap + ?Sized> FoldDemandsRuns<'a, M> {
    /// Produces the next fold's demand into caller-owned scratch instead
    /// of allocating a fresh [`FoldDemandRuns`]. Returns `false` when the
    /// plan is exhausted (leaving `out` cleared). What `out` held before
    /// does not matter, so a caller may rotate several.
    ///
    /// This is the hot-path lending form of the [`Iterator`] impl: the
    /// simulator fold loop reuses one `FoldDemandRuns` for the whole
    /// layer, so steady-state demand generation performs no heap
    /// allocation.
    pub fn next_into(&mut self, out: &mut FoldDemandRuns) -> bool {
        out.clear();
        let Some(fold) = self.plan.next() else {
            return false;
        };
        self.fill_demand_runs_for_fold(&fold, out);
        true
    }

    /// Returns the A-stream scratch for reuse by the next layer's iterator
    /// — the counterpart of [`fold_demand_runs_in`].
    pub fn into_scratch(self) -> (IntervalSet, AddrRuns) {
        (self.a_seen, self.a_scratch)
    }

    /// Fills the cleared `out` with `fold`'s demand, in the labels of the
    /// [`FoldDemandRuns`] table. B and O are one push each: the loop
    /// nest [`fold_demands`] has in every arm walks its tile's label block
    /// in ascending order, so the whole nest is one run, the block. `out`'s
    /// stream buffers and the iterator's scratch are reused across folds,
    /// so the generator allocates nothing in steady state.
    fn fill_demand_runs_for_fold(&mut self, fold: &Fold, out: &mut FoldDemandRuns) {
        let t = self.dims.temporal;
        let ru = fold.rows_used;
        let cu = fold.cols_used;
        out.fold = *fold;
        let fold_index = fold.fr * self.plan.fold_cols() + fold.fc;
        let tile_block = fold_index * self.tile;
        // The block of the fold column: OS `B[·][n]`, WS `O[·][n]` and IS
        // `O[m][·]` for the tile's `cu` columns, `T` labels each.
        let col_block = fold.col_base * t;
        let spill = fold.fr > 0;

        match self.dims.dataflow {
            Dataflow::OutputStationary => {
                // A[row_base+i][0..T], loop (i, k): the fold row's alone.
                let spans = (0..ru).map(|i| (fold.row_base + i, 0, t));
                self.a_stream(fold.fr, spans, &mut out.a);
                // B[k][col_base+j], loop (j, k).
                out.b.push(col_block, cu * t);
                // O[row_base+i][col_base+j], loop (i, j), this fold only.
                out.o_writes.push(tile_block, ru * cu);
            }
            Dataflow::WeightStationary => {
                // B[row_base+i][col_base+j], loop (i, j), this fold only.
                out.b.push(tile_block, ru * cu);
                // A[mt][row_base..+ru], loop (mt, i): the fold row's alone.
                let spans = (0..t).map(|mt| (mt, fold.row_base, ru));
                self.a_stream(fold.fr, spans, &mut out.a);
                // O[mt][col_base+j], loop (mt, j), accumulated along fr.
                if spill {
                    out.o_spill.push(col_block, t * cu);
                }
                out.o_writes.push(col_block, t * cu);
            }
            Dataflow::InputStationary => {
                // A[col_base+j][row_base..+ru], loop (j, i): this fold's.
                let spans = (0..cu).map(|j| (fold.col_base + j, fold.row_base, ru));
                self.a_stream(fold_index, spans, &mut out.a);
                // B[row_base+i][nt], loop (nt, i), shared along fc.
                out.b.push(fold.row_base * t, t * ru);
                // O[col_base+j][nt], loop (nt, j), accumulated along fr.
                if spill {
                    out.o_spill.push(col_block, t * cu);
                }
                out.o_writes.push(col_block, t * cu);
            }
        }
    }

    /// Appends to the cleared `out` the A stream of the spans
    /// `A[m][k0..k0+len]` that `spans` yields as `(m, k0, len)`: real
    /// addresses, deduplicated in first-use order — each maximal novel
    /// sub-range of each span in ascending `k` order, exactly the order
    /// the element-wise `push_unique` loop produces. `key` names what the
    /// stream is a function of; while it repeats, `spans` is not walked
    /// and the stream generated for it is handed out again by
    /// [`AddrRuns::copy_from`] — two memcpys and the seal.
    ///
    /// The stream is sealed ([`AddrRuns::seal_distinct`]) as soon as it is
    /// generated, and this is the place that can promise what a seal
    /// means: the stream is complete, and it is built from nothing but the
    /// gaps of `a_seen`, each marked seen as it is emitted, so no address
    /// occurs twice. Every fold the stream serves carries the same seal,
    /// which is how the IFMAP buffer knows it is being shown the stream of
    /// the fold before without comparing or keeping it.
    ///
    /// The stream is built in `a_scratch`, which outlives the layer in the
    /// caller's arena, with `out` as staging for raw `a_span` output — so
    /// a warm fold loop allocates nothing, whichever `out` it passes.
    fn a_stream(
        &mut self,
        key: u64,
        spans: impl Iterator<Item = (u64, u64, u64)>,
        out: &mut AddrRuns,
    ) {
        if self.a_key != Some(key) {
            self.a_key = Some(key);
            self.a_seen.clear();
            self.a_scratch.clear();
            for (m, k0, len) in spans {
                out.clear();
                self.map.a_span(m, k0, len, out);
                for run in out.iter_runs() {
                    // Fused probe: enumerate the novel sub-ranges and mark
                    // them seen with one binary search over the dedup set.
                    let stream = &mut self.a_scratch;
                    self.a_seen
                        .insert_with_gaps(run.start, run.end(), |s, e| stream.push(s, e - s));
                }
            }
            self.a_scratch.seal_distinct();
        }
        out.copy_from(&self.a_scratch);
    }
}

impl<'a, M: AddressMap + ?Sized> Iterator for FoldDemandsRuns<'a, M> {
    type Item = FoldDemandRuns;

    fn next(&mut self) -> Option<FoldDemandRuns> {
        let mut out = FoldDemandRuns::default();
        self.next_into(&mut out).then_some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.plan.size_hint()
    }
}

impl<'a, M: AddressMap + ?Sized> ExactSizeIterator for FoldDemandsRuns<'a, M> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use crate::trace::TraceSink;
    use scalesim_memory::{ConvAddressMap, GemmAddressMap, RegionOffsets};
    use scalesim_topology::{ConvLayer, GemmShape};

    /// Unique addresses per stream: (a_reads, b_reads, o_reads, o_writes).
    type StreamSets = (HashSet<u64>, HashSet<u64>, HashSet<u64>, HashSet<u64>);

    /// A sink that collects the unique addresses per fold, for comparing
    /// against the demand iterator.
    #[derive(Default)]
    struct DemandCollector {
        current: Option<StreamSets>,
        folds: Vec<StreamSets>,
    }

    impl TraceSink for DemandCollector {
        fn fold_begin(&mut self, _fold: &Fold) {
            self.current = Some(Default::default());
        }
        fn read_a(&mut self, _cycle: u64, addr: u64) {
            self.current.as_mut().unwrap().0.insert(addr);
        }
        fn read_b(&mut self, _cycle: u64, addr: u64) {
            self.current.as_mut().unwrap().1.insert(addr);
        }
        fn read_o(&mut self, _cycle: u64, addr: u64) {
            self.current.as_mut().unwrap().2.insert(addr);
        }
        fn write_o(&mut self, _cycle: u64, addr: u64) {
            self.current.as_mut().unwrap().3.insert(addr);
        }
        fn fold_end(&mut self, _fold: &Fold) {
            self.folds.push(self.current.take().unwrap());
        }
    }

    fn check_demands_match_trace<M: AddressMap>(dims: &MappedDims, array: ArrayShape, map: &M) {
        let mut collector = DemandCollector::default();
        simulate(dims, array, map, &mut collector);
        let demands: Vec<FoldDemandRuns> = fold_demands(dims, array, map).collect();
        assert_eq!(demands.len(), collector.folds.len());
        for (d, (ta, tb, tor, tow)) in demands.iter().zip(&collector.folds) {
            let da: HashSet<u64> = d.a.iter_elements().collect();
            let db: HashSet<u64> = d.b.iter_elements().collect();
            let dor: HashSet<u64> = d.o_spill.iter_elements().collect();
            let dow: HashSet<u64> = d.o_writes.iter_elements().collect();
            assert_eq!(&da, ta, "A demand mismatch in fold {:?}", d.fold);
            assert_eq!(&db, tb, "B demand mismatch in fold {:?}", d.fold);
            assert_eq!(&dor, tor, "spill mismatch in fold {:?}", d.fold);
            assert_eq!(&dow, tow, "write mismatch in fold {:?}", d.fold);
        }
    }

    #[test]
    fn demands_match_traces_for_gemm_all_dataflows() {
        let shape = GemmShape::new(10, 7, 9);
        for df in Dataflow::ALL {
            let dims = shape.project(df);
            let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
            check_demands_match_trace(&dims, ArrayShape::new(4, 4), &map);
        }
    }

    #[test]
    fn demands_match_traces_for_conv_all_dataflows() {
        let layer = ConvLayer::new("t", 8, 8, 3, 3, 2, 5, 1).unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        for df in Dataflow::ALL {
            let dims = layer.shape().project(df);
            check_demands_match_trace(&dims, ArrayShape::new(8, 4), &map);
        }
    }

    #[test]
    fn conv_overlap_dedups_ifmap_demand() {
        // Stride-1 3x3 conv: adjacent output pixels share 2/3 of their
        // window, so a fold's unique A demand is far below rows x T.
        let layer = ConvLayer::new("t", 10, 10, 3, 3, 1, 4, 1).unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        let dims = layer.shape().project(Dataflow::OutputStationary);
        let first = fold_demands(&dims, ArrayShape::new(16, 4), &map)
            .next()
            .unwrap();
        assert!(first.a.element_count() < 16 * dims.temporal / 2);
    }

    #[test]
    fn gemm_demand_sizes_are_exact() {
        let shape = GemmShape::new(8, 4, 8);
        let dims = shape.project(Dataflow::OutputStationary);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        for d in fold_demands(&dims, ArrayShape::square(4), &map) {
            assert_eq!(d.a.element_count(), d.fold.rows_used * dims.temporal);
            assert_eq!(d.b.element_count(), d.fold.cols_used * dims.temporal);
            assert_eq!(
                d.o_writes.element_count(),
                d.fold.rows_used * d.fold.cols_used
            );
            assert!(d.o_spill.is_empty());
        }
    }

    /// Checks the run generator against the element-by-element enumeration
    /// (`legacy` below): A element sequences must be identical; B/O streams
    /// must have equal per-fold sizes, be related by one layer-wide
    /// bijection per operand, and be one run each wherever the enumerated
    /// stream is not empty.
    fn check_runs_match_legacy<M: AddressMap>(dims: &MappedDims, array: ArrayShape, map: &M) {
        use std::collections::HashMap;
        let legacy: Vec<FoldDemandRuns> = fold_demands(dims, array, map).collect();
        let runs: Vec<FoldDemandRuns> = fold_demand_runs(dims, array, map).collect();
        assert_eq!(legacy.len(), runs.len());
        let mut b_fwd: HashMap<u64, u64> = HashMap::new();
        let mut b_rev: HashMap<u64, u64> = HashMap::new();
        let mut o_fwd: HashMap<u64, u64> = HashMap::new();
        let mut o_rev: HashMap<u64, u64> = HashMap::new();
        let check_bijection = |fwd: &mut HashMap<u64, u64>,
                               rev: &mut HashMap<u64, u64>,
                               real: &AddrRuns,
                               label: &AddrRuns| {
            assert_eq!(real.element_count(), label.element_count());
            for (r, l) in real.iter_elements().zip(label.iter_elements()) {
                assert_eq!(*fwd.entry(r).or_insert(l), l, "label not a function");
                assert_eq!(*rev.entry(l).or_insert(r), r, "label not injective");
            }
        };
        for (d, dr) in legacy.iter().zip(&runs) {
            assert_eq!(d.fold, dr.fold);
            assert_eq!(dr.b.run_count(), 1, "B runs in fold {:?}", d.fold);
            assert_eq!(dr.o_writes.run_count(), 1, "O runs in fold {:?}", d.fold);
            let spills = dims.dataflow != Dataflow::OutputStationary && d.fold.fr > 0;
            assert_eq!(d.o_spill.is_empty(), !spills);
            assert_eq!(dr.o_spill.run_count(), usize::from(spills));
            // A: exact element equality (real addresses, first-use order).
            assert_eq!(d.a, dr.a, "A stream diverged in fold {:?}", d.fold);
            assert_eq!(d.a.seal(), 0, "the enumeration seals nothing");
            check_bijection(&mut b_fwd, &mut b_rev, &d.b, &dr.b);
            check_bijection(&mut o_fwd, &mut o_rev, &d.o_spill, &dr.o_spill);
            check_bijection(&mut o_fwd, &mut o_rev, &d.o_writes, &dr.o_writes);
        }
    }

    #[test]
    fn run_demands_match_legacy_for_gemm_all_dataflows() {
        let shape = GemmShape::new(10, 7, 9);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        for df in Dataflow::ALL {
            let dims = shape.project(df);
            check_runs_match_legacy(&dims, ArrayShape::new(4, 4), &map);
        }
    }

    #[test]
    fn run_demands_match_legacy_for_conv_all_dataflows() {
        for stride in [1, 2] {
            let layer = ConvLayer::new("t", 8, 8, 3, 3, 2, 5, stride).unwrap();
            let map = ConvAddressMap::new(&layer, RegionOffsets::default());
            for df in Dataflow::ALL {
                let dims = layer.shape().project(df);
                check_runs_match_legacy(&dims, ArrayShape::new(8, 4), &map);
            }
        }
    }

    #[test]
    fn run_compression_is_effective_on_gemm() {
        // The whole point: far fewer runs than elements. Adjacent full
        // GEMM rows fuse to one A run, and B and O are one run by label.
        let shape = GemmShape::new(64, 64, 64);
        let dims = shape.project(Dataflow::OutputStationary);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        for d in fold_demand_runs(&dims, ArrayShape::square(16), &map) {
            assert_eq!(d.run_count(), 3);
        }
    }

    #[test]
    fn rotating_scratch_objects_yields_the_same_streams() {
        // The A stream of a fold row is generated once and staged through
        // whichever `out` the caller passed for that fold; the other folds
        // of the row must not depend on it.
        let layer = ConvLayer::new("t", 9, 9, 3, 3, 2, 11, 1).unwrap();
        let map = ConvAddressMap::new(&layer, RegionOffsets::default());
        let array = ArrayShape::new(8, 4);
        for df in Dataflow::ALL {
            let dims = layer.shape().project(df);
            assert!(FoldPlan::new(&dims, array).fold_cols() >= 3);
            let one: Vec<FoldDemandRuns> = fold_demand_runs(&dims, array, &map).collect();
            let mut demands = fold_demand_runs(&dims, array, &map);
            let mut scratch = [FoldDemandRuns::default(), FoldDemandRuns::default()];
            for (index, expected) in one.iter().enumerate() {
                let out = &mut scratch[index % 2];
                assert!(demands.next_into(out));
                assert_eq!(out, expected, "{df:?} fold {index}");
            }
            assert!(!demands.next_into(&mut scratch[0]));
        }
    }
}
