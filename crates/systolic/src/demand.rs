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
//! B and O streams, and each *shape* of A stream generated once per layer.
//! [`fold_demands`] enumerates real addresses one by one: what DRAM trace
//! export prints, and the reference for the other.
//!
//! A fold row (OS, WS) or a fold (IS) reads one rectangle of operand A,
//! and its A stream is the first-use dedup of that rectangle's addresses.
//! Two rectangles of equal lengths and equal [`AddressMap::a_phase`] hold
//! the same addresses up to one constant, so [`fold_demand_runs`] runs
//! the dedup walk for the first rectangle of each such *translation
//! class* and emits the others as that stream shifted: on the 30 distinct
//! layers of ResNet-50, AlexNet and a `4000 × 84 × 1024` GEMM on a 32×32
//! array, 46 walks for 1,525 WS fold rows and 523 for 13,860 IS folds.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use scalesim_memory::{AddrRuns, AddressMap, IntervalSet};
use scalesim_topology::{Dataflow, MappedDims};

use crate::fold::{tile_extent, Fold, FoldPlan};
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
    /// [`fold_demand_runs`] makes one such stream per fold row under OS
    /// and WS and per fold under IS, each the first-use dedup of the
    /// rectangle of A it reads. It walks the dedup set only for the first
    /// rectangle of each translation class (equal lengths, equal
    /// [`AddressMap::a_phase`]); the others get that stream plus the one
    /// constant the phase contract promises, which changes no order,
    /// equality or adjacency of addresses, so the stream is the one the
    /// walk would have made (debug builds make it and `assert_eq!`).
    ///
    /// Sealed by [`fold_demand_runs`] ([`AddrRuns::seal_distinct`]), which
    /// promises that no address repeats within it: the stream is the gaps
    /// of a first-use dedup set, or such a stream shifted. A shifted
    /// stream is a new stream with a seal of its own. All folds served by
    /// one stream — a fold row under OS and WS, a single fold under IS —
    /// carry the same seal, and
    /// [`RunBuffer::epoch`](scalesim_memory::RunBuffer::epoch) answers the
    /// repeats from the fixed point the first one reached: all hits again
    /// after an epoch that missed nothing (nothing changed), evicted
    /// nothing, or hit nothing and was at most a bufferful (everything
    /// demanded is resident); all misses again after one of more than a
    /// bufferful that hit nothing (the FIFO holds the stream's tail, and a
    /// stream without duplicates evicts each element before it comes
    /// round). The first showing itself is answered without a walk when
    /// the stream is at least a bufferful and its first bufferful is not
    /// resident: every access misses. Pushing to the stream drops the
    /// seal; a consumer that edits it gets the walk.
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

/// A rectangle `A[m0..m0+m_len][k0..k0+k_len]` of operand A, as
/// `(m0, m_len, k0, k_len)`: what one generated A stream reads, row by row.
type ARect = (u64, u64, u64, u64);

/// What an A stream is a function of, up to one constant: its
/// rectangle's lengths and [`AddressMap::a_phase`].
type AClassKey = (u64, u64, (u64, u64));

/// The A-stream classes of one layer and the storage of their streams.
///
/// The count that precedes the fold loop fills in how many members each
/// class has. The stream in the iterator's `a_scratch` is shifted in
/// place for the next member of its class; it is copied out into a class
/// stream only when `a_scratch` moves on to another class while its own
/// still has a member to come, and that copy goes back to `free` with the
/// class's last member. Nothing is sized or evicted. The storage outlives
/// the layer in a per-thread slot ([`A_CLASSES`]), so a warm fold loop
/// allocates nothing for it.
#[derive(Debug, Default)]
struct AClasses {
    /// Every class of the layer.
    classes: HashMap<AClassKey, AClass>,
    /// Retired class-stream storage.
    free: Vec<AddrRuns>,
    /// Debug builds generate every shifted member directly here and hold
    /// the emitted stream to it; release builds leave it empty.
    twin: AddrRuns,
}

#[derive(Debug)]
struct AClass {
    /// Members not yet shown.
    remaining: u64,
    /// The class stream and `a(m0, k0)` of the rectangle it is the stream
    /// of: present while a member is to come and another class has been
    /// shown since this class's last.
    stream: Option<(AddrRuns, u64)>,
}

impl AClasses {
    /// Forgets the last layer's classes, keeping every allocation.
    fn reset(&mut self) {
        for (_, class) in self.classes.drain() {
            self.free.extend(class.stream.map(|(stream, _)| stream));
        }
    }

    /// Counts one more member of the class of `key`.
    fn count(&mut self, key: AClassKey) {
        let class = self.classes.entry(key).or_insert(AClass {
            remaining: 0,
            stream: None,
        });
        class.remaining += 1;
    }
}

thread_local! {
    /// The class storage of the last demand iterator this thread dropped,
    /// taken by the next one. It travels beside the scratch that
    /// [`fold_demand_runs_in`] loans rather than through it, so that the
    /// loaned pair keeps its type.
    static A_CLASSES: RefCell<AClasses> = RefCell::new(AClasses::default());
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
    /// First-use dedup for the A stream, cleared whenever one is generated.
    a_seen: IntervalSet,
    /// The A stream of the current fold row (OS, WS) or fold (IS), copied
    /// into every fold it serves.
    a_scratch: AddrRuns,
    /// What `a_scratch` was made for: the fold row (OS, WS) or the fold
    /// index (IS). `None` until the first fold, so whatever a loaned
    /// `a_scratch` held is never served.
    a_key: Option<u64>,
    /// The class of the stream in `a_scratch`, and `a(m0, k0)` of the
    /// rectangle it is the stream of.
    a_class: Option<AClassKey>,
    a_origin: u64,
    /// The layer's A-stream classes, counted before the first fold.
    classes: AClasses,
    /// A streams generated by the dedup walk so far.
    generated: u64,
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
///
/// Before the first fold this walks the fold rows (OS, WS) or folds (IS)
/// once and counts the members of each A-stream class: O(fold rows) or
/// O(folds) phase keys, the memory plan of [`FoldDemandRuns::a`].
pub fn fold_demand_runs_in<'a, M: AddressMap + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &'a M,
    a_seen: IntervalSet,
    a_scratch: AddrRuns,
) -> FoldDemandsRuns<'a, M> {
    let plan = FoldPlan::new(dims, array);
    let mut classes = A_CLASSES
        .try_with(|slot| std::mem::take(&mut *slot.borrow_mut()))
        .unwrap_or_default();
    classes.reset();
    let (rows, cols) = (array.rows(), array.cols());
    let fold_cols = match dims.dataflow {
        Dataflow::InputStationary => plan.fold_cols(),
        _ => 1,
    };
    for fr in 0..plan.fold_rows() {
        let ru = tile_extent(dims.spatial_rows, rows, fr);
        for fc in 0..fold_cols {
            let cu = tile_extent(dims.spatial_cols, cols, fc);
            let rect = a_rect(dims, fr * rows, ru, fc * cols, cu);
            classes.count(class_key(map, rect));
        }
    }
    FoldDemandsRuns {
        dims: *dims,
        map,
        plan,
        tile: array.macs(),
        a_seen,
        a_scratch,
        a_key: None,
        a_class: None,
        a_origin: 0,
        classes,
        generated: 0,
    }
}

/// The rectangle of A that a fold's A stream reads, from its tile: the
/// fold row's rows over all of `K` (OS), all of `M` over the fold row's
/// `k`-slice (WS), the fold's columns over its `k`-slice (IS).
fn a_rect(dims: &MappedDims, row_base: u64, ru: u64, col_base: u64, cu: u64) -> ARect {
    match dims.dataflow {
        Dataflow::OutputStationary => (row_base, ru, 0, dims.temporal),
        Dataflow::WeightStationary => (0, dims.temporal, row_base, ru),
        Dataflow::InputStationary => (col_base, cu, row_base, ru),
    }
}

fn class_key<M: AddressMap + ?Sized>(map: &M, (m0, m_len, k0, k_len): ARect) -> AClassKey {
    (m_len, k_len, map.a_phase(m0, m_len, k0, k_len))
}

/// Appends to the cleared `stream` the A stream of `rect`: real
/// addresses of `A[m][k0..k0+k_len]` for each row `m` in turn,
/// deduplicated in first-use order — each maximal novel sub-range of
/// each span in ascending `k` order, exactly the order the element-wise
/// `push_unique` loop produces. `staging` takes the raw `a_span` output.
fn generate_a<M: AddressMap + ?Sized>(
    map: &M,
    (m0, m_len, k0, k_len): ARect,
    a_seen: &mut IntervalSet,
    stream: &mut AddrRuns,
    staging: &mut AddrRuns,
) {
    a_seen.clear();
    stream.clear();
    for m in m0..m0 + m_len {
        staging.clear();
        map.a_span(m, k0, k_len, staging);
        for run in staging.iter_runs() {
            // Fused probe: enumerate the novel sub-ranges and mark them
            // seen with one binary search over the dedup set.
            a_seen.insert_with_gaps(run.start, run.end(), |s, e| stream.push(s, e - s));
        }
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
    pub fn into_scratch(mut self) -> (IntervalSet, AddrRuns) {
        (
            std::mem::take(&mut self.a_seen),
            std::mem::take(&mut self.a_scratch),
        )
    }

    /// How many A streams this iterator has generated by the first-use
    /// dedup walk — one per class that has been shown; every other fold
    /// row (OS, WS) or fold (IS) got its class stream shifted. A test
    /// hook, like `RunBuffer::walked_epochs`.
    #[doc(hidden)]
    pub fn a_streams_generated(&self) -> u64 {
        self.generated
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
        let rect = a_rect(&self.dims, fold.row_base, ru, fold.col_base, cu);

        match self.dims.dataflow {
            Dataflow::OutputStationary => {
                // A[row_base+i][0..T], loop (i, k): the fold row's alone.
                self.a_stream(fold.fr, rect, &mut out.a);
                // B[k][col_base+j], loop (j, k).
                out.b.push(col_block, cu * t);
                // O[row_base+i][col_base+j], loop (i, j), this fold only.
                out.o_writes.push(tile_block, ru * cu);
            }
            Dataflow::WeightStationary => {
                // B[row_base+i][col_base+j], loop (i, j), this fold only.
                out.b.push(tile_block, ru * cu);
                // A[mt][row_base..+ru], loop (mt, i): the fold row's alone.
                self.a_stream(fold.fr, rect, &mut out.a);
                // O[mt][col_base+j], loop (mt, j), accumulated along fr.
                if spill {
                    out.o_spill.push(col_block, t * cu);
                }
                out.o_writes.push(col_block, t * cu);
            }
            Dataflow::InputStationary => {
                // A[col_base+j][row_base..+ru], loop (j, i): this fold's.
                self.a_stream(fold_index, rect, &mut out.a);
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

    /// Copies into the cleared `out` the A stream of `rect` (see
    /// [`generate_a`]). `unit` names what the stream is made for; while it
    /// repeats the stream made for it is handed out again by
    /// [`AddrRuns::copy_from`] — two memcpys and the seal.
    ///
    /// A new `unit` makes the stream from its class, the rectangle's
    /// [`AddressMap::a_phase`] and lengths. The first member of a class is
    /// generated by the dedup walk; every later one is a stream of its
    /// class plus `d = a(m0′, k0′) − a(m0, k0)`, one add over `starts[]` —
    /// by the contract of `a_phase` every address of the rectangle moves
    /// by `d`, and the first-use dedup and run coalescing that built the
    /// stream see addresses only through order, equality and adjacency,
    /// which the shift keeps. The stream shifted is the one in
    /// `a_scratch` when the member before was of the same class, and
    /// otherwise a copy of the class stream kept for it (see
    /// [`AClasses`]), which the count made before the first fold lets go
    /// with the class's last member.
    ///
    /// Either way the stream is sealed ([`AddrRuns::seal_distinct`]) as
    /// soon as it is made, and this is the place that can promise what a
    /// seal means: the stream is complete, and it is the gaps of `a_seen`,
    /// each marked seen as it was emitted, or such a stream shifted, so no
    /// address occurs twice. A shifted stream is another stream and gets a
    /// seal of its own; every fold it serves carries that seal, which is
    /// how the IFMAP buffer knows it is being shown the stream of the fold
    /// before without comparing or keeping it.
    ///
    /// The stream is built in `a_scratch`, which outlives the layer in the
    /// caller's arena, with `out` as staging for raw `a_span` output — so
    /// a warm fold loop allocates nothing, whichever `out` it passes.
    fn a_stream(&mut self, unit: u64, rect: ARect, out: &mut AddrRuns) {
        if self.a_key != Some(unit) {
            self.a_key = Some(unit);
            let origin = self.map.a(rect.0, rect.2);
            let key = class_key(self.map, rect);
            let AClasses {
                classes,
                free,
                twin,
            } = &mut self.classes;
            let moved = self.a_class != Some(key);
            if moved {
                // `a_scratch` changes class: keep the stream it holds if
                // its class has a member to come and no stream stored.
                if let Some(class) = self.a_class.and_then(|last| classes.get_mut(&last)) {
                    if class.remaining > 0 && class.stream.is_none() {
                        let mut stream = free.pop().unwrap_or_default();
                        stream.copy_from(&self.a_scratch);
                        class.stream = Some((stream, self.a_origin));
                    }
                }
            }
            let class = classes.get_mut(&key).expect("every class is counted");
            let shifted = match (&class.stream, moved) {
                // `a_scratch` holds this class's stream: shift it in place.
                (_, false) => {
                    self.a_scratch.shift(origin.wrapping_sub(self.a_origin));
                    true
                }
                (Some((stream, from)), true) => {
                    self.a_scratch.copy_from(stream);
                    self.a_scratch.shift(origin.wrapping_sub(*from));
                    true
                }
                (None, true) => {
                    generate_a(self.map, rect, &mut self.a_seen, &mut self.a_scratch, out);
                    self.generated += 1;
                    false
                }
            };
            (self.a_class, self.a_origin) = (Some(key), origin);
            class.remaining -= 1;
            if class.remaining == 0 {
                free.extend(class.stream.take().map(|(stream, _)| stream));
            }
            if cfg!(debug_assertions) && shifted {
                generate_a(self.map, rect, &mut self.a_seen, twin, out);
                assert_eq!(*twin, self.a_scratch, "A stream of {rect:?}");
            }
            self.a_scratch.seal_distinct();
        }
        out.copy_from(&self.a_scratch);
    }
}

impl<M: ?Sized> Drop for FoldDemandsRuns<'_, M> {
    /// Hands the class storage to the next iterator on this thread.
    fn drop(&mut self) {
        let classes = std::mem::take(&mut self.classes);
        let _ = A_CLASSES.try_with(|slot| *slot.borrow_mut() = classes);
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
