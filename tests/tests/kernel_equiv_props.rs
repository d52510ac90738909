//! Differential properties for the data-oriented (SoA) hot-path kernels.
//!
//! Every optimized kernel in `scalesim-memory` replaced an obvious scalar
//! implementation, and each of those is kept as the kernel's twin in the
//! test suite's oracle (`scalesim_integration::oracle`, `tests/src/`). This
//! suite drives both sides with identical inputs — random, adversarial and
//! the hand-written cases that were the kernels' unit tests — and asserts
//! observational equality:
//!
//! * `IntervalSet` (parallel sorted vectors, binary probes, fused
//!   insert-with-gaps) ≡ `ScalarIntervalSet` (the original `BTreeMap`).
//! * `AddrRuns::extend_runs` (bulk memcpy append) ≡ per-run push loop.
//! * `RunBuffer` (span-batched FIFO) ≡ `DoubleBuffer` (element-granular
//!   FIFO) on real OS/WS/IS demand streams from conv and GEMM layers.
//! * `ReuseProfile::from_runs` (batched per-span Fenwick updates) ≡
//!   `ElementReuseProfile::from_demands` (element walk), the scalar twin
//!   of the run-granular profile.
//! * The production fold loop (arena-pooled buffers, lending demand
//!   iterator, deferred output installs) performs **zero heap allocation**
//!   once warm, measured with a counting global allocator — also for the
//!   tiles of a partitioned layer simulated inside an executor task.

use proptest::prelude::*;

use scalesim::exec::Executor;
use scalesim::{PartitionGrid, SimConfig, Simulator};
use scalesim_integration::oracle::{
    extend_runs_scalar, DoubleBuffer, ElementReuseProfile, ScalarIntervalSet,
};
use scalesim_memory::{
    AddrRuns, BufferPool, ConvAddressMap, DramModel, EpochStats, GemmAddressMap, IntervalSet,
    OperandBufferSpec, RegionOffsets, ReuseProfile, RunBuffer,
};
use scalesim_systolic::{
    fold_demand_runs, fold_demand_runs_in, ArrayShape, Dataflow, FoldDemandRuns,
};
use scalesim_topology::{ConvLayerBuilder, GemmShape, Layer};

// ---------------------------------------------------------------------------
// Counting allocator: thread-local so parallel test threads don't interfere.
// ---------------------------------------------------------------------------

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocator call that hands out a block of `size` bytes.
fn count_allocation(size: usize) {
    ALLOC_COUNT.with(|c| c.set(c.get() + 1));
    ALLOC_BYTES.with(|c| c.set(c.get() + size as u64));
}

struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the counters are plain
// thread-local `Cell<u64>`s with const initialization (no lazy allocation,
// no destructor), so the bookkeeping itself never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A growth may move or extend the block: either way it is heap
        // traffic the steady-state fold loop must not produce.
        count_allocation(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations_on_this_thread() -> u64 {
    ALLOC_COUNT.with(|c| c.get())
}

/// Bytes of every block handed out on this thread so far, regrown blocks
/// at their new size.
fn allocated_bytes_on_this_thread() -> u64 {
    ALLOC_BYTES.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// IntervalSet ≡ ScalarIntervalSet
// ---------------------------------------------------------------------------

/// One mutation step of the differential interval-set walk.
#[derive(Debug, Clone)]
enum SetOp {
    Insert(u64, u64),
    InsertWithGaps(u64, u64),
    RemoveCoveredAt(u64, u64),
}

fn arb_set_op(max_addr: u64) -> impl Strategy<Value = SetOp> {
    let span = move || (0..max_addr, 0u64..24);
    prop_oneof![
        span().prop_map(|(s, l)| SetOp::Insert(s, s + l)),
        span().prop_map(|(s, l)| SetOp::InsertWithGaps(s, s + l)),
        span().prop_map(|(s, l)| SetOp::RemoveCoveredAt(s, l)),
    ]
}

/// Applies `op` to both sets and asserts every observable agrees.
fn step_both(
    soa: &mut IntervalSet,
    scalar: &mut ScalarIntervalSet,
    op: &SetOp,
    probe_to: u64,
) -> Result<(), TestCaseError> {
    match *op {
        SetOp::Insert(s, e) => {
            soa.insert(s, e);
            scalar.insert(s, e);
        }
        SetOp::InsertWithGaps(s, e) => {
            let mut soa_gaps = Vec::new();
            let mut scalar_gaps = Vec::new();
            soa.insert_with_gaps(s, e, |a, b| soa_gaps.push((a, b)));
            scalar.insert_with_gaps(s, e, |a, b| scalar_gaps.push((a, b)));
            prop_assert_eq!(soa_gaps, scalar_gaps, "gap enumeration diverged");
        }
        SetOp::RemoveCoveredAt(s, l) => {
            // Only remove what is actually covered by one span (the
            // documented precondition), trimmed identically on both sides.
            if let Some((_, span_end)) = soa.span_at(s) {
                let e = (s + l).min(span_end);
                if s < e {
                    soa.remove_covered(s, e);
                    scalar.remove_covered(s, e);
                }
            }
        }
    }
    prop_assert_eq!(soa.len(), scalar.len());
    prop_assert_eq!(soa.span_count(), scalar.span_count());
    prop_assert_eq!(
        soa.iter_spans().collect::<Vec<_>>(),
        scalar.iter_spans().collect::<Vec<_>>()
    );
    for probe in (0..probe_to).step_by(3) {
        prop_assert_eq!(
            soa.contains(probe),
            scalar.contains(probe),
            "contains {}",
            probe
        );
        prop_assert_eq!(
            soa.span_at(probe),
            scalar.span_at(probe),
            "span_at {}",
            probe
        );
        prop_assert_eq!(
            soa.first_start_at_or_after(probe),
            scalar.first_start_at_or_after(probe),
            "first_start_at_or_after {}",
            probe
        );
        prop_assert_eq!(
            soa.len_at_or_above(probe),
            scalar.len_at_or_above(probe),
            "len_at_or_above {}",
            probe
        );
    }
    let mut soa_gaps = Vec::new();
    let mut scalar_gaps = Vec::new();
    soa.for_gaps(0, probe_to, |a, b| soa_gaps.push((a, b)));
    scalar.for_gaps(0, probe_to, |a, b| scalar_gaps.push((a, b)));
    prop_assert_eq!(soa_gaps, scalar_gaps, "for_gaps diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random op sequences over a dense address range: maximal span
    /// overlap, adjacency, splits and full removals.
    #[test]
    fn interval_set_matches_scalar_twin(
        ops in prop::collection::vec(arb_set_op(180), 1..60),
    ) {
        let mut soa = IntervalSet::new();
        let mut scalar = ScalarIntervalSet::new();
        for op in &ops {
            step_both(&mut soa, &mut scalar, op, 220)?;
        }
    }

    /// The same walk at the u32 boundary: spans straddling `u32::MAX`
    /// exercise the index arithmetic the SoA probes rely on.
    #[test]
    fn interval_set_matches_scalar_twin_at_u32_boundary(
        ops in prop::collection::vec(arb_set_op(120), 1..40),
    ) {
        const BASE: u64 = u32::MAX as u64 - 60;
        let shift = |op: &SetOp| match *op {
            SetOp::Insert(s, e) => SetOp::Insert(BASE + s, BASE + e),
            SetOp::InsertWithGaps(s, e) => SetOp::InsertWithGaps(BASE + s, BASE + e),
            SetOp::RemoveCoveredAt(s, l) => SetOp::RemoveCoveredAt(BASE + s, l),
        };
        let mut soa = IntervalSet::new();
        let mut scalar = ScalarIntervalSet::new();
        for op in &ops {
            // Probing the full shifted range would be slow; spot-check the
            // spans themselves instead of a probe sweep.
            match shift(op) {
                SetOp::Insert(s, e) => {
                    soa.insert(s, e);
                    scalar.insert(s, e);
                }
                SetOp::InsertWithGaps(s, e) => {
                    let mut a_gaps = Vec::new();
                    let mut b_gaps = Vec::new();
                    soa.insert_with_gaps(s, e, |a, b| a_gaps.push((a, b)));
                    scalar.insert_with_gaps(s, e, |a, b| b_gaps.push((a, b)));
                    prop_assert_eq!(a_gaps, b_gaps);
                }
                SetOp::RemoveCoveredAt(s, l) => {
                    if let Some((_, span_end)) = soa.span_at(s) {
                        let e = (s + l).min(span_end);
                        if s < e {
                            soa.remove_covered(s, e);
                            scalar.remove_covered(s, e);
                        }
                    }
                }
            }
            prop_assert_eq!(soa.len(), scalar.len());
            prop_assert_eq!(
                soa.iter_spans().collect::<Vec<_>>(),
                scalar.iter_spans().collect::<Vec<_>>()
            );
        }
    }

    /// Bulk `extend_runs` ≡ the per-run push loop, including the
    /// boundary-coalescing case and empty streams on either side.
    #[test]
    fn extend_runs_matches_scalar_twin(
        left in prop::collection::vec((0u64..300, 0u64..12), 0..12),
        right in prop::collection::vec((0u64..300, 0u64..12), 0..12),
        force_adjacent in (0u64..2).prop_map(|b| b == 1),
    ) {
        let base = runs_from_intervals(&left);
        let mut other = runs_from_intervals(&right);
        if force_adjacent {
            // Adversarial: make `other` start exactly where `base` ends, so
            // the boundary pair must coalesce.
            if let (Some(last), false) = (
                (!base.is_empty()).then(|| base.run(base.run_count() - 1)),
                other.is_empty(),
            ) {
                let mut adjacent = AddrRuns::new();
                adjacent.push(last.end(), 5);
                adjacent.extend_runs(&other);
                other = adjacent;
            }
        }
        let mut bulk = base.clone();
        bulk.extend_runs(&other);
        let mut scalar = base.clone();
        extend_runs_scalar(&mut scalar, &other);
        prop_assert_eq!(&bulk, &scalar, "streams diverged");
        prop_assert_eq!(bulk.element_count(), scalar.element_count());
        prop_assert_eq!(
            bulk.iter_elements().collect::<Vec<_>>(),
            scalar.iter_elements().collect::<Vec<_>>()
        );
    }

    /// Run-granular Mattson profile ≡ the element-walk twin on random
    /// overlapping interval streams.
    #[test]
    fn reuse_from_runs_matches_element_twin(
        spans in prop::collection::vec((0u64..80, 1u64..30), 1..20),
    ) {
        let runs = runs_from_intervals(&spans);
        let by_runs = ReuseProfile::from_runs(&runs);
        let by_elems = ElementReuseProfile::from_demands(runs.iter_elements());
        prop_assert_eq!(by_elems, by_runs);
    }
}

/// Deterministic adversarial span sets: exact adjacency chains, zero-length
/// inserts, nested overlaps, and total coverage collapse.
#[test]
fn interval_set_adversarial_cases_match_scalar_twin() {
    let cases: &[&[SetOp]] = &[
        // Zero-length operations are no-ops on both sides.
        &[
            SetOp::Insert(5, 5),
            SetOp::InsertWithGaps(7, 7),
            SetOp::Insert(5, 6),
            SetOp::RemoveCoveredAt(5, 0),
        ],
        // Adjacency chain collapsing to one span, built in reverse.
        &[
            SetOp::Insert(40, 50),
            SetOp::Insert(30, 40),
            SetOp::Insert(20, 30),
            SetOp::Insert(10, 20),
            SetOp::InsertWithGaps(0, 60),
        ],
        // A comb of single-address spans bridged by one big insert.
        &[
            SetOp::Insert(0, 1),
            SetOp::Insert(2, 3),
            SetOp::Insert(4, 5),
            SetOp::Insert(6, 7),
            SetOp::Insert(8, 9),
            SetOp::InsertWithGaps(0, 9),
        ],
        // Remove the middle of a span, then re-bridge it.
        &[
            SetOp::Insert(0, 100),
            SetOp::RemoveCoveredAt(30, 40),
            SetOp::InsertWithGaps(20, 80),
            SetOp::RemoveCoveredAt(0, 100),
        ],
    ];
    for (i, ops) in cases.iter().enumerate() {
        let mut soa = IntervalSet::new();
        let mut scalar = ScalarIntervalSet::new();
        for op in *ops {
            step_both(&mut soa, &mut scalar, op, 110).unwrap_or_else(|e| {
                panic!("case {i}, op {op:?}: {e:?}");
            });
        }
    }
}

// ---------------------------------------------------------------------------
// ReuseProfile::from_runs ≡ the element walk, hand-written cases
// ---------------------------------------------------------------------------

/// The stream of `(start, len)` pushes, coalescing as the generators do.
fn runs_from_intervals(intervals: &[(u64, u64)]) -> AddrRuns {
    let mut runs = AddrRuns::new();
    for &(start, len) in intervals {
        runs.push(start, len);
    }
    runs
}

#[test]
fn from_runs_matches_from_demands_on_worked_examples() {
    // The two hand-verified examples from the derivation.
    assert_runs_match_demands(&[(0, 5), (5, 3), (0, 8)]);
    assert_runs_match_demands(&[(10, 10), (0, 5), (0, 30)]);
    // Disjoint streaming: all cold.
    assert_runs_match_demands(&[(0, 8), (100, 8), (200, 8)]);
    // Exact repeat.
    assert_runs_match_demands(&[(0, 16), (0, 16), (0, 16)]);
    // Partial overlaps crossing several last-touch segments.
    assert_runs_match_demands(&[(0, 10), (20, 10), (5, 20), (0, 40), (15, 3), (2, 30)]);
    // Single-element runs (degenerate to the element algorithm).
    assert_runs_match_demands(&[(3, 1), (1, 1), (3, 1), (2, 1), (1, 1)]);
    // Re-touch that splits a previous run's live interval in half.
    assert_runs_match_demands(&[(0, 30), (10, 5), (0, 30), (12, 1), (0, 13)]);
}

#[test]
fn from_runs_matches_from_demands_pseudorandom() {
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    for _ in 0..50 {
        let count = next() % 12 + 1;
        let intervals: Vec<(u64, u64)> =
            (0..count).map(|_| (next() % 60, next() % 25 + 1)).collect();
        assert_runs_match_demands(&intervals);
    }
}

fn assert_runs_match_demands(intervals: &[(u64, u64)]) {
    let runs = runs_from_intervals(intervals);
    let by_runs = ReuseProfile::from_runs(&runs);
    let by_elems = ElementReuseProfile::from_demands(runs.iter_elements());
    assert_eq!(by_elems, by_runs, "intervals {intervals:?}");
}

// ---------------------------------------------------------------------------
// RunBuffer ≡ DoubleBuffer, hand-written cases
// ---------------------------------------------------------------------------

fn runs_of(elems: &[u64]) -> AddrRuns {
    elems.iter().copied().collect()
}

#[test]
fn run_buffer_matches_double_buffer_basics() {
    let mut db = DoubleBuffer::new(3);
    let mut rb = RunBuffer::new(3);
    for epoch in [&[1u64, 2, 3][..], &[4], &[2, 3, 4], &[10, 11, 12, 13]] {
        let ds = db.epoch(epoch.iter().copied());
        let rs = rb.epoch(&runs_of(epoch));
        assert_eq!(ds, rs, "epoch {epoch:?}");
        assert_eq!(db.resident_count() as u64, rb.resident_count());
        for addr in 0..20 {
            assert_eq!(db.contains(addr), rb.contains(addr), "addr {addr}");
        }
    }
}

#[test]
fn run_buffer_self_evicts_oversized_segment() {
    // A single 8-element run through a 4-entry buffer keeps its tail,
    // exactly as the element-wise FIFO does.
    let mut db = DoubleBuffer::new(4);
    let mut rb = RunBuffer::new(4);
    let elems: Vec<u64> = (0..8).collect();
    assert_eq!(db.epoch(elems.iter().copied()), rb.epoch(&runs_of(&elems)));
    for addr in 0..8 {
        assert_eq!(db.contains(addr), rb.contains(addr));
    }
    assert!(rb.contains(7) && !rb.contains(3));
}

#[test]
fn run_buffer_install_matches_element_install() {
    let mut db = DoubleBuffer::new(2);
    let mut rb = RunBuffer::new(2);
    let installs = [1u64, 2, 3, 3];
    let mut db_ev = 0;
    for &addr in &installs {
        db_ev += db.install(addr);
    }
    let mut rb_ev = 0;
    for &addr in &installs {
        rb_ev += rb.install(&runs_of(&[addr]));
    }
    assert_eq!(db_ev, rb_ev);
    for addr in 0..5 {
        assert_eq!(db.contains(addr), rb.contains(addr));
    }
    assert_eq!(rb.epoch(&runs_of(&[2, 3])).hits, 2);
}

#[test]
fn run_buffer_epoch_with_misses_orders_like_element_path() {
    let mut db = DoubleBuffer::new(4);
    let mut rb = RunBuffer::new(4);
    db.epoch([10u64, 11].iter().copied());
    rb.epoch(&runs_of(&[10, 11]));
    // 10, 11 hit; 12, 13 then 5 miss (two separate runs).
    let (ds, dm) = db.epoch_with_misses([10u64, 11, 12, 13, 5].iter().copied());
    let mut rm = AddrRuns::new();
    let rs = rb.epoch_with_misses(&runs_of(&[10, 11, 12, 13, 5]), &mut rm);
    assert_eq!(ds, rs);
    assert_eq!(dm, rm.iter_elements().collect::<Vec<u64>>());
}

#[test]
fn run_buffer_thrash_matches_double_buffer() {
    // Alternating working sets through a small buffer: a stress of the
    // eviction bookkeeping across many epochs.
    let mut db = DoubleBuffer::new(16);
    let mut rb = RunBuffer::new(16);
    for round in 0..20u64 {
        let base = (round % 3) * 10;
        let elems: Vec<u64> = (base..base + 12).chain(100..104).collect();
        let ds = db.epoch(elems.iter().copied());
        let rs = rb.epoch(&runs_of(&elems));
        assert_eq!(ds, rs, "round {round}");
        assert_eq!(db.resident_count() as u64, rb.resident_count());
        for addr in 0..110 {
            assert_eq!(db.contains(addr), rb.contains(addr));
        }
    }
}

#[test]
fn sealed_repeats_are_answered_from_the_fixed_point() {
    let stats = |hits, misses, evictions| EpochStats {
        hits,
        misses,
        evictions,
    };
    // The stream, `S = 12` in two runs, and one `(capacity, pre-state)` per
    // fixed point its first epoch can end in — all hits (rule 1), no
    // eviction (rule 2), all misses of more than a bufferful (rule 3) —
    // with the first epoch's stats, every later epoch's, and how many of
    // five epochs are walked.
    const STREAM: [u64; 12] = [10, 11, 12, 13, 14, 15, 40, 41, 42, 43, 44, 45];
    let cases: [(u64, &[u64], EpochStats, EpochStats, u64); 3] = [
        (64, &STREAM, stats(12, 0, 0), stats(12, 0, 0), 1),
        (64, &[], stats(0, 12, 0), stats(12, 0, 0), 1),
        (5, &[], stats(0, 12, 7), stats(0, 12, 12), 1),
    ];
    let mut stream = runs_of(&STREAM);
    stream.seal_distinct();
    for (capacity, pre, first, repeat, walks) in cases {
        let mut rb = RunBuffer::new(capacity);
        let mut db = DoubleBuffer::new(capacity as usize);
        rb.epoch(&runs_of(pre));
        db.epoch(pre.iter().copied());
        let walked_before = rb.walked_epochs();
        for epoch in 0..5 {
            let rs = rb.epoch(&stream);
            assert_eq!(rs, db.epoch(STREAM), "capacity {capacity}, epoch {epoch}");
            assert_eq!(rs, if epoch == 0 { first } else { repeat });
            assert_eq!(rb.resident_count(), db.resident_count() as u64);
            for addr in 0..120 {
                assert_eq!(rb.contains(addr), db.contains(addr), "addr {addr}");
            }
        }
        assert_eq!(rb.walked_epochs() - walked_before, walks);
    }
}

#[test]
fn an_unsealed_duplicate_stream_is_walked_every_time() {
    // The counter-example to rule 3 on a stream that repeats an
    // address: through a capacity of 2 it ends holding {3, 1}, so the
    // second epoch hits its leading 1. Unsealed, it is simply walked.
    let dup = runs_of(&[1, 2, 3, 1]);
    let mut rb = RunBuffer::new(2);
    let mut db = DoubleBuffer::new(2);
    for _ in 0..3 {
        assert_eq!(rb.epoch(&dup), db.epoch([1, 2, 3, 1]));
    }
    assert_eq!(rb.epoch(&dup).hits, 1);
    assert_eq!(rb.walked_epochs(), 4);
}

// ---------------------------------------------------------------------------
// RunBuffer ≡ DoubleBuffer on real demand streams
// ---------------------------------------------------------------------------

/// Feeds each operand stream of every fold through a RunBuffer and its
/// element-granular twin, asserting identical stats and residency per fold.
fn check_buffers_match_on(
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
    capacity: u64,
) {
    // One buffer pair per operand stream, as in the DRAM model.
    let mut pairs: Vec<(RunBuffer, DoubleBuffer)> = (0..4)
        .map(|_| {
            (
                RunBuffer::new(capacity),
                DoubleBuffer::new(capacity as usize),
            )
        })
        .collect();
    for (fold_no, demand) in fold_demand_runs(dims, array, map).enumerate() {
        let streams = [&demand.a, &demand.b, &demand.o_spill, &demand.o_writes];
        for (which, (runs_buf, elems_buf)) in streams.iter().zip(pairs.iter_mut()) {
            let mut misses = AddrRuns::new();
            let rs = runs_buf.epoch_with_misses(which, &mut misses);
            let (es, elem_misses) = elems_buf.epoch_with_misses(which.iter_elements());
            assert_eq!(rs, es, "fold {fold_no}: epoch stats diverged");
            assert_eq!(
                misses.iter_elements().collect::<Vec<_>>(),
                elem_misses,
                "fold {fold_no}: miss order diverged"
            );
            assert_eq!(runs_buf.resident_count(), elems_buf.resident_count() as u64);
        }
        // The O-write stream also exercises the install (write-allocate)
        // path, as `DramModel::fold_runs` uses it.
        let (runs_buf, elems_buf) = &mut pairs[3];
        let rb_ev = runs_buf.install(&demand.o_writes);
        let mut db_ev = 0;
        for addr in demand.o_writes.iter_elements() {
            db_ev += elems_buf.install(addr);
        }
        assert_eq!(rb_ev, db_ev, "fold {fold_no}: install evictions diverged");
        assert_eq!(runs_buf.resident_count(), elems_buf.resident_count() as u64);
    }
}

#[test]
fn run_buffer_matches_double_buffer_gemm_all_dataflows() {
    let shape = GemmShape::new(24, 18, 20);
    let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    for df in Dataflow::ALL {
        let dims = shape.project(df);
        for capacity in [0u64, 7, 64, 100_000] {
            check_buffers_match_on(&dims, ArrayShape::new(8, 4), &map, capacity);
        }
    }
}

#[test]
fn run_buffer_matches_double_buffer_conv_all_dataflows() {
    let layer = ConvLayerBuilder::new("t")
        .ifmap(12, 12)
        .filter(3, 3)
        .channels(3)
        .num_filters(4)
        .stride(1)
        .build()
        .unwrap();
    let map = ConvAddressMap::new(&layer, RegionOffsets::default());
    for df in Dataflow::ALL {
        let dims = layer.shape().project(df);
        for capacity in [5u64, 33, 50_000] {
            check_buffers_match_on(&dims, ArrayShape::new(4, 8), &map, capacity);
        }
    }
}

// ---------------------------------------------------------------------------
// Deferred O-install equivalence
// ---------------------------------------------------------------------------

/// `DramModel::fold_runs` defers OFMAP installs until a spill probes the
/// buffer. Interleave spill-free and spilling folds (including back-to-back
/// spills and a trailing deferred tail) and check the deferred model
/// against an *eager* element-granular OFMAP buffer that installs every
/// write the moment it is produced.
#[test]
fn deferred_o_installs_match_eager_element_path() {
    let spec = |bytes: u64| OperandBufferSpec {
        size_bytes: bytes,
        word_bytes: 1,
    };
    // Tiny OFMAP buffer so installs evict aggressively.
    let mut deferred = DramModel::new(spec(1024), spec(1024), spec(24));
    let mut eager_o = DoubleBuffer::new(24);
    for step in 0..12u64 {
        let writes: Vec<u64> = (step * 10..step * 10 + 10).collect();
        // Two of every three folds spill a window reaching back two folds;
        // consecutive spills exercise the flushed-then-empty pending state.
        let spill: Vec<u64> = if step % 3 != 0 && step > 0 {
            ((step * 10).saturating_sub(15)..step * 10 + 5).collect()
        } else {
            Vec::new()
        };
        let eager_stats = eager_o.epoch(spill.iter().copied());
        for &addr in &writes {
            eager_o.install(addr);
        }
        let a_runs: AddrRuns = (0..30u64).collect();
        let spill_runs: AddrRuns = spill.into_iter().collect();
        let write_runs: AddrRuns = writes.into_iter().collect();
        let traffic = deferred.fold_runs(7, &a_runs, &AddrRuns::new(), &spill_runs, &write_runs);
        assert_eq!(
            traffic.o_spill_misses, eager_stats.misses,
            "fold {step}: spill misses diverged from eager install"
        );
    }
}

// ---------------------------------------------------------------------------
// Zero steady-state allocation in the fold loop
// ---------------------------------------------------------------------------

/// Runs one layer's fold loop exactly as the simulator does (pooled
/// buffers, lending iterator, reclaimed dedup scratch) and returns the
/// allocations it performed.
fn fold_loop_allocations(
    dims: &scalesim_topology::MappedDims,
    array: ArrayShape,
    map: &(impl scalesim_memory::AddressMap + ?Sized),
    specs: (OperandBufferSpec, OperandBufferSpec, OperandBufferSpec),
    pool: &mut BufferPool,
    demand: &mut FoldDemandRuns,
    dedup: (IntervalSet, AddrRuns),
) -> (u64, (IntervalSet, AddrRuns)) {
    let before = allocations_on_this_thread();
    let mut dram = DramModel::new_in(specs.0, specs.1, specs.2, pool);
    let mut demands = fold_demand_runs_in(dims, array, map, dedup.0, dedup.1);
    while demands.next_into(demand) {
        dram.fold_runs(
            demand.fold.duration,
            &demand.a,
            &demand.b,
            &demand.o_spill,
            &demand.o_writes,
        );
    }
    let dedup = demands.into_scratch();
    let _ = dram.finish_into(pool);
    (allocations_on_this_thread() - before, dedup)
}

#[test]
fn fold_loop_is_allocation_free_after_warmup() {
    let spec = |kb: u64| OperandBufferSpec::from_kb(kb, 1);
    let shape = GemmShape::new(96, 64, 80);
    let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    // WS exercises the spill path (real flushes of deferred installs); OS
    // exercises pure deferral. Both must be allocation-free once warm.
    for df in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
        let dims = shape.project(df);
        let mut pool = BufferPool::new();
        let mut demand = FoldDemandRuns::default();
        let mut dedup = (IntervalSet::new(), AddrRuns::new());
        let specs = (spec(4), spec(4), spec(2));
        // Two warm-up passes: scratch buffers cycle through the LIFO pool
        // and reach their high-water marks.
        for _ in 0..2 {
            let (_, back) = fold_loop_allocations(
                &dims,
                ArrayShape::square(8),
                &map,
                specs,
                &mut pool,
                &mut demand,
                dedup,
            );
            dedup = back;
        }
        let (allocs, back) = fold_loop_allocations(
            &dims,
            ArrayShape::square(8),
            &map,
            specs,
            &mut pool,
            &mut demand,
            dedup,
        );
        dedup = back;
        let _ = dedup;
        assert_eq!(allocs, 0, "{df:?}: warm fold loop must not touch the heap");
    }
}

/// `AddrRuns::copy_from` is how the demand generator hands a fold row's A
/// stream to each fold: onto a target that has held a stream as long, it
/// copies runs, element count and seal without touching the heap.
#[test]
fn copy_from_onto_a_warm_target_does_not_allocate() {
    let mut source: AddrRuns = (0..64u64).map(|i| i * 3).collect();
    source.seal_distinct();
    let mut shorter: AddrRuns = (0..20u64).map(|i| i * 5).collect();
    shorter.seal_distinct();
    let mut target = AddrRuns::new();
    target.copy_from(&source);
    let before = allocations_on_this_thread();
    for _ in 0..3 {
        target.copy_from(&shorter);
        assert_eq!((target.seal(), target.run_count()), (shorter.seal(), 20));
        target.clear();
        target.copy_from(&source);
        assert_eq!((target.seal(), target.run_count()), (source.seal(), 64));
    }
    assert_eq!(allocations_on_this_thread() - before, 0);
    assert_eq!(target, source);
}

/// A layer that never spills never flushes its deferred output installs,
/// so `pending_o` holds every `o_writes` run of the layer when it ends. The
/// tile-major labels bound that: a full fold's block ends where the next
/// fold's begins, so a fold row of OS writes is one run however many folds
/// it has (a ragged last fold row: one per fold). Cold, on 153,600 folds,
/// the whole loop allocates about 40 KB; one run per array row per fold
/// would be 67 MB.
#[test]
fn cold_os_fold_loop_allocation_is_bounded_by_fold_rows_not_folds() {
    let spec = OperandBufferSpec::from_kb(64, 1);
    // 600 x 256 folds of the 8x8 array, the last fold column 4 wide.
    let shape = GemmShape::new(4800, 4, 2044);
    let dims = shape.project(Dataflow::OutputStationary);
    let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
    let before = allocated_bytes_on_this_thread();
    let _ = fold_loop_allocations(
        &dims,
        ArrayShape::square(8),
        &map,
        (spec, spec, spec),
        &mut BufferPool::new(),
        &mut FoldDemandRuns::default(),
        (IntervalSet::new(), AddrRuns::new()),
    );
    let bytes = allocated_bytes_on_this_thread() - before;
    assert!(
        bytes < 1 << 20,
        "{bytes} bytes allocated by a cold OS layer"
    );
}

/// Allocations `Simulator::run_layer` performs on this thread for `layer`
/// when called from inside an executor task, layer cache cleared first so
/// the fold loop really runs.
fn run_layer_allocations_in_executor_task(sim: &Simulator, layer: &Layer) -> u64 {
    scalesim::layer_cache::clear();
    let allocations = Cell::new(0);
    let exec = Executor::new(1, 1);
    let panic = exec.run_worker(
        0,
        |_| {
            let before = allocations_on_this_thread();
            sim.run_layer(layer);
            allocations.set(allocations_on_this_thread() - before);
        },
        |_| layer.name().to_owned(),
    );
    assert_eq!(panic, None);
    allocations.get()
}

/// Inside an executor task the tiles of a partitioned layer run on the
/// worker itself, so all of them draw on its one warm arena: a 2x2-grid
/// layer of 1024 folds costs a handful of per-layer allocations (report,
/// address map, cache entry — the same handful as a layer of 64 folds,
/// give or take one), nothing per fold, and no other thread's arena is
/// touched.
#[test]
fn partitioned_layer_in_executor_task_is_allocation_free_per_fold() {
    /// Generous room for the per-layer allocations (14 to 16 today).
    const PER_LAYER: u64 = 32;
    let config = SimConfig::builder()
        .array(ArrayShape::square(8))
        .sram_kb(4, 4, 2)
        .build();
    // 8x8 and 32x32 folds of the 8x8 array, split over four tiles.
    let few_folds = Layer::gemm("few", 64, 48, 64);
    let many_folds = Layer::gemm("many", 256, 48, 256);
    // WS spills partial sums (real flushes of deferred installs); OS
    // exercises pure deferral.
    for dataflow in [Dataflow::OutputStationary, Dataflow::WeightStationary] {
        let sim =
            Simulator::new(SimConfig { dataflow, ..config }).with_grid(PartitionGrid::new(2, 2));
        // Warm-up: the arena's scratch reaches its high-water mark and
        // both layer names get their telemetry series.
        for layer in [&few_folds, &many_folds, &many_folds] {
            run_layer_allocations_in_executor_task(&sim, layer);
        }
        // No other test of this binary simulates a layer, so the
        // process-wide arena count is this test's own.
        let arenas = scalesim::arena::arenas_created();
        let many = run_layer_allocations_in_executor_task(&sim, &many_folds);
        let few = run_layer_allocations_in_executor_task(&sim, &few_folds);
        assert!(
            many <= PER_LAYER && many.abs_diff(few) <= 2,
            "{dataflow:?}: {many} allocations for 1024 folds, {few} for 64: \
             the warm fold loop must not touch the heap"
        );
        assert_eq!(
            scalesim::arena::arenas_created(),
            arenas,
            "{dataflow:?}: tiles must run on the executor worker's own arena"
        );
    }
}
