//! The element-granular reference model — the one oracle of the test
//! suite.
//!
//! `scalesim-memory` models every address stream as run-length-compressed
//! [`AddrRuns`] and walks it per run. Each run-granular kernel replaced an
//! obvious implementation that touches one address at a time; those
//! originals are kept here, whole and unoptimized, so the property suites
//! in `tests/tests/` can assert that the shipped kernels are
//! *observationally identical* to them on arbitrary input — the
//! byte-identity guarantee of every simulator output rests on these
//! equivalences:
//!
//! | oracle | what it checks |
//! |---|---|
//! | [`DoubleBuffer`] — a hash-set FIFO of element addresses | [`scalesim_memory::RunBuffer`] |
//! | [`ElementReuseProfile`] — one Fenwick flag per access | [`scalesim_memory::ReuseProfile::from_runs`] |
//! | [`ScalarIntervalSet`] — a `BTreeMap` of spans | [`scalesim_memory::IntervalSet`] |
//! | [`extend_runs_scalar`] — a push per run | [`AddrRuns::extend_runs`] |
//! | [`tile_traffic`] — element streams through three [`DoubleBuffer`]s | the DRAM traffic `Simulator::run_layer` reports, tile by tile |
//!
//! Nothing here is compiled into the simulator, the server or the
//! benchmark. The one piece of the reference model that still ships is
//! [`scalesim_systolic::fold_demands`], the address-by-address demand
//! enumeration, because DRAM trace export needs real addresses.
//!
//! The hash containers are `std`'s: the suites that drive the oracle run
//! no slower for it than with the multiplicative hasher the production
//! crates used to carry for these types.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use scalesim_memory::{AddrRuns, AddressMap, EpochStats, ReuseProfile};
use scalesim_systolic::{fold_demands, ArrayShape};
use scalesim_topology::MappedDims;

/// A double-buffered operand SRAM: a FIFO working set of element addresses.
///
/// ```
/// use scalesim_integration::oracle::DoubleBuffer;
///
/// let mut buf = DoubleBuffer::new(2);
/// let first = buf.epoch([1, 2].iter().copied());
/// assert_eq!(first.misses, 2);
/// let second = buf.epoch([2, 3].iter().copied()); // 2 hits, 3 misses, 1 evicted
/// assert_eq!((second.hits, second.misses, second.evictions), (1, 1, 1));
/// ```
#[derive(Debug, Clone)]
pub struct DoubleBuffer {
    capacity: usize,
    resident: HashSet<u64>,
    order: VecDeque<u64>,
}

impl DoubleBuffer {
    /// Creates a buffer holding at most `capacity_elems` elements.
    ///
    /// A capacity of zero models "no buffer": every demand misses.
    pub fn new(capacity_elems: usize) -> Self {
        DoubleBuffer {
            capacity: capacity_elems,
            resident: HashSet::new(),
            order: VecDeque::new(),
        }
    }

    /// An effectively infinite buffer (everything fetched exactly once).
    pub fn unbounded() -> Self {
        DoubleBuffer::new(usize::MAX)
    }

    /// The configured capacity in elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements currently resident.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Whether `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        self.resident.contains(&addr)
    }

    /// Runs one epoch (one fold's worth) of demand through the buffer.
    ///
    /// Demands should be the epoch's unique addresses in first-use order;
    /// intra-epoch reuse is served by the SRAM itself and is not interface
    /// traffic. Misses are inserted in demand order, evicting the oldest
    /// resident addresses when the buffer is full (so an epoch whose working
    /// set exceeds the capacity thrashes, as the real hardware would).
    pub fn epoch(&mut self, demand: impl IntoIterator<Item = u64>) -> EpochStats {
        self.run_epoch(demand, None)
    }

    /// Like [`DoubleBuffer::epoch`], but also returns the missed addresses
    /// in fetch order — the input to DRAM trace reconstruction
    /// ([`scalesim_memory::DramTraceWriter`]).
    pub fn epoch_with_misses(
        &mut self,
        demand: impl IntoIterator<Item = u64>,
    ) -> (EpochStats, Vec<u64>) {
        let mut misses = Vec::new();
        let stats = self.run_epoch(demand, Some(&mut misses));
        (stats, misses)
    }

    fn run_epoch(
        &mut self,
        demand: impl IntoIterator<Item = u64>,
        mut misses: Option<&mut Vec<u64>>,
    ) -> EpochStats {
        let mut stats = EpochStats::default();
        for addr in demand {
            if self.resident.contains(&addr) {
                stats.hits += 1;
                continue;
            }
            stats.misses += 1;
            if let Some(misses) = misses.as_deref_mut() {
                misses.push(addr);
            }
            if self.capacity == 0 {
                continue;
            }
            while self.resident.len() >= self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.resident.remove(&old);
                    stats.evictions += 1;
                } else {
                    break;
                }
            }
            self.resident.insert(addr);
            self.order.push_back(addr);
        }
        stats
    }

    /// Installs `addr` into the working set *without* counting a miss —
    /// models write-allocation (an output produced on-chip is resident
    /// without ever being fetched). Evicts FIFO-oldest entries as needed;
    /// returns the number of evictions.
    pub fn install(&mut self, addr: u64) -> u64 {
        if self.capacity == 0 || self.resident.contains(&addr) {
            return 0;
        }
        let mut evictions = 0;
        while self.resident.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.resident.remove(&old);
                evictions += 1;
            } else {
                break;
            }
        }
        self.resident.insert(addr);
        self.order.push_back(addr);
        evictions
    }

    /// Drops all resident data (e.g. between layers).
    pub fn clear(&mut self) {
        self.resident.clear();
        self.order.clear();
    }
}

/// DRAM traffic of one array working through `dims` — a whole layer, or one
/// partition's tile seen through a [`scalesim_memory::SubGemmMap`] — as
/// `(reads_a, reads_b, reads_o, writes_o)` in elements, with operand
/// buffers of `capacities` elements (IFMAP, filter, OFMAP).
///
/// The obvious model and nothing else: the real addresses of
/// [`fold_demands`], one at a time, through three [`DoubleBuffer`]s; the
/// partial sums a fold re-reads are probed before its outputs are
/// installed, outputs after every fold. No runs, labels, seals, arenas,
/// deferred installs or tile classes.
pub fn tile_traffic<M: AddressMap + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &M,
    capacities: [usize; 3],
) -> (u64, u64, u64, u64) {
    let [mut a_buf, mut b_buf, mut o_buf] = capacities.map(DoubleBuffer::new);
    let (mut reads_a, mut reads_b, mut reads_o, mut writes_o) = (0, 0, 0, 0);
    for demand in fold_demands(dims, array, map) {
        reads_a += a_buf.epoch(demand.a.iter_elements()).misses;
        reads_b += b_buf.epoch(demand.b.iter_elements()).misses;
        reads_o += o_buf.epoch(demand.o_spill.iter_elements()).misses;
        for addr in demand.o_writes.iter_elements() {
            o_buf.install(addr);
            writes_o += 1;
        }
    }
    (reads_a, reads_b, reads_o, writes_o)
}

/// Histogram of LRU stack distances for a demand stream, built by the
/// classic element walk — the reference for
/// [`ReuseProfile::from_runs`], which must give the same histogram without
/// expanding the runs.
///
/// `distance d` means: the address was last touched with `d` distinct
/// addresses touched in between, so any LRU buffer of capacity `> d` hits.
/// Cold (first-touch) accesses are counted separately — no capacity avoids
/// them.
#[derive(Debug)]
pub struct ElementReuseProfile {
    /// `histogram[d]` = number of accesses with stack distance exactly `d`.
    histogram: Vec<u64>,
    /// First-touch accesses (compulsory misses at any capacity).
    cold: u64,
    total: u64,
}

impl ElementReuseProfile {
    /// Builds the profile of `demands` (processed in order).
    ///
    /// Runs in O(N log N) using an order-statistics walk over a Fenwick
    /// tree of "most-recent-touch" flags. The stream is consumed as it
    /// arrives — the Fenwick tree grows by doubling (with an O(n) rebuild
    /// from its kept value array), so no pass materializes the stream.
    pub fn from_demands(demands: impl IntoIterator<Item = u64>) -> Self {
        let mut last_position: HashMap<u64, usize> = HashMap::new();
        let mut fenwick = Fenwick::new();
        let mut histogram: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        let mut total = 0u64;
        for (pos, addr) in demands.into_iter().enumerate() {
            total += 1;
            match last_position.insert(addr, pos) {
                None => cold += 1,
                Some(prev) => {
                    // Distinct addresses touched strictly between prev and
                    // pos = live flags in (prev, pos).
                    let distance = fenwick.range_count(prev + 1, pos);
                    if histogram.len() <= distance {
                        histogram.resize(distance + 1, 0);
                    }
                    histogram[distance] += 1;
                    // The previous touch position is no longer the last one.
                    fenwick.clear(prev);
                }
            }
            fenwick.set(pos);
        }
        ElementReuseProfile {
            histogram,
            cold,
            total,
        }
    }

    /// Misses an LRU buffer of `capacity` elements would take on this
    /// stream: cold misses plus every access with stack distance
    /// ≥ capacity.
    pub fn misses_at(&self, capacity: usize) -> u64 {
        let reuse_misses: u64 = self.histogram.iter().skip(capacity).sum();
        self.cold + reuse_misses
    }
}

impl PartialEq<ReuseProfile> for ElementReuseProfile {
    /// Same totals and the same histogram. [`ReuseProfile`] shows its
    /// histogram only through `misses_at`, the suffix sums: equal at every
    /// capacity up to this histogram's length, where this side has reached
    /// its cold count, means equal bin for bin and nothing beyond.
    fn eq(&self, other: &ReuseProfile) -> bool {
        self.total == other.total_accesses()
            && self.cold == other.cold_accesses()
            && (0..=self.histogram.len()).all(|c| self.misses_at(c) == other.misses_at(c))
    }
}

/// A growable Fenwick (binary indexed) tree over access positions.
///
/// Fenwick trees cannot be grown by zero-extension (new nodes would miss
/// counts already recorded below them), so the raw per-index values are
/// kept alongside: growth doubles the value array and rebuilds the tree in
/// O(n), amortizing to O(1) per insertion.
#[derive(Debug, Default)]
struct Fenwick {
    tree: Vec<i64>,
    values: Vec<i64>,
}

impl Fenwick {
    fn new() -> Self {
        Fenwick::default()
    }

    fn ensure(&mut self, index: usize) {
        if index < self.values.len() {
            return;
        }
        self.values.resize((index + 1).next_power_of_two(), 0);
        self.rebuild();
    }

    /// O(n) tree construction from the value array.
    fn rebuild(&mut self) {
        let n = self.values.len();
        self.tree.clear();
        self.tree.extend_from_slice(&self.values);
        for i in 0..n {
            let j = i | (i + 1);
            if j < n {
                self.tree[j] += self.tree[i];
            }
        }
    }

    fn add(&mut self, index: usize, delta: i64) {
        self.ensure(index);
        self.values[index] += delta;
        let n = self.tree.len();
        let mut i = index;
        while i < n {
            self.tree[i] += delta;
            i |= i + 1;
        }
    }

    fn set(&mut self, index: usize) {
        self.add(index, 1);
    }

    fn clear(&mut self, index: usize) {
        self.add(index, -1);
    }

    /// Sum of flags in `[0, end)`.
    fn prefix(&self, end: usize) -> i64 {
        let mut sum = 0;
        let mut i = end.min(self.tree.len());
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }

    /// Count of set flags with positions in `[lo, hi)`.
    fn range_count(&self, lo: usize, hi: usize) -> usize {
        if lo >= hi {
            return 0;
        }
        (self.prefix(hi) - self.prefix(lo)) as usize
    }
}

/// Per-run scalar twin of [`AddrRuns::extend_runs`]: the original
/// push-loop append. The bulk kernel must produce an identical stream.
pub fn extend_runs_scalar(dst: &mut AddrRuns, other: &AddrRuns) {
    for run in other.iter_runs() {
        dst.push(run.start, run.len);
    }
}

/// The original `BTreeMap`-backed interval set — scalar twin of
/// [`scalesim_memory::IntervalSet`].
///
/// Semantics are identical: a disjoint, coalesced set of half-open
/// address intervals `[start, end)` supporting span probes, union
/// insert, covered-range removal, and gap walks.
#[derive(Debug, Clone, Default)]
pub struct ScalarIntervalSet {
    /// start -> end, disjoint and non-adjacent (always coalesced).
    spans: BTreeMap<u64, u64>,
    len: u64,
}

impl ScalarIntervalSet {
    /// An empty set.
    pub fn new() -> ScalarIntervalSet {
        ScalarIntervalSet::default()
    }

    /// Total number of covered addresses.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no addresses are covered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of disjoint spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans in ascending order, as `(start, end)` pairs.
    pub fn iter_spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.spans.iter().map(|(&s, &e)| (s, e))
    }

    /// Whether `addr` is covered.
    pub fn contains(&self, addr: u64) -> bool {
        self.span_at(addr).is_some()
    }

    /// The `(start, end)` of the span covering `pos`, if any.
    pub fn span_at(&self, pos: u64) -> Option<(u64, u64)> {
        let (&start, &end) = self.spans.range(..=pos).next_back()?;
        (end > pos).then_some((start, end))
    }

    /// The start of the first span at or after `pos`, if any.
    pub fn first_start_at_or_after(&self, pos: u64) -> Option<u64> {
        self.spans.range(pos..).next().map(|(&s, _)| s)
    }

    /// Number of covered addresses `>= pos`.
    pub fn len_at_or_above(&self, pos: u64) -> u64 {
        // A span starting exactly at `pos` is picked up whole by the range
        // walk below; only a strictly-earlier covering span needs the
        // partial `end - pos` contribution.
        let mut total = 0;
        if let Some((start, end)) = self.span_at(pos) {
            if start < pos {
                total += end - pos;
            }
        }
        for (&s, &e) in self.spans.range(pos..) {
            total += e - s;
        }
        total
    }

    /// Unions `[start, end)` into the set, merging overlapping or adjacent
    /// spans.
    pub fn insert(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let mut new_start = start;
        let mut new_end = end;
        if let Some((&ps, &pe)) = self.spans.range(..=start).next_back() {
            if pe >= start {
                if pe >= end {
                    return; // already fully covered
                }
                new_start = ps;
                new_end = new_end.max(pe);
                self.len -= pe - ps;
                self.spans.remove(&ps);
            }
        }
        // Absorb every span starting within the (grown) range, including
        // one starting exactly at new_end (adjacent).
        while let Some((&s, &e)) = self.spans.range(new_start..=new_end).next() {
            self.len -= e - s;
            new_end = new_end.max(e);
            self.spans.remove(&s);
        }
        self.spans.insert(new_start, new_end);
        self.len += new_end - new_start;
    }

    /// Gap walk followed by insert — scalar twin of
    /// [`scalesim_memory::IntervalSet::insert_with_gaps`], built from the two
    /// primitive operations it fuses.
    pub fn insert_with_gaps(&mut self, start: u64, end: u64, gap: impl FnMut(u64, u64)) {
        self.for_gaps(start, end, gap);
        self.insert(start, end);
    }

    /// Removes `[start, end)`, which must lie entirely within one span.
    pub fn remove_covered(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let (span_start, span_end) = self
            .span_at(start)
            .expect("remove_covered: range not resident");
        debug_assert!(end <= span_end, "remove_covered: range spans a gap");
        self.spans.remove(&span_start);
        if span_start < start {
            self.spans.insert(span_start, start);
        }
        if end < span_end {
            self.spans.insert(end, span_end);
        }
        self.len -= end - start;
    }

    /// Calls `gap(s, e)` for each maximal subrange of `[start, end)` *not*
    /// covered by the set, in ascending order.
    pub fn for_gaps(&self, start: u64, end: u64, mut gap: impl FnMut(u64, u64)) {
        let mut pos = start;
        if let Some((_, span_end)) = self.span_at(pos) {
            pos = span_end.min(end);
        }
        while pos < end {
            match self.first_start_at_or_after(pos) {
                Some(next) if next < end => {
                    gap(pos, next);
                    pos = self.spans[&next].min(end);
                }
                _ => {
                    gap(pos, end);
                    pos = end;
                }
            }
        }
    }

    /// Empties the set.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_buffer_misses_everything_once() {
        let mut buf = DoubleBuffer::new(100);
        let stats = buf.epoch(0..10);
        assert_eq!(stats.misses, 10);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.evictions, 0);
        assert_eq!(buf.resident_count(), 10);
    }

    #[test]
    fn warm_buffer_hits_repeats() {
        let mut buf = DoubleBuffer::new(100);
        buf.epoch(0..10);
        let stats = buf.epoch(0..10);
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut buf = DoubleBuffer::new(3);
        buf.epoch([1, 2, 3]);
        let stats = buf.epoch([4]); // evicts 1
        assert_eq!(stats.evictions, 1);
        assert!(!buf.contains(1));
        assert!(buf.contains(2));
        assert!(buf.contains(4));
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut buf = DoubleBuffer::new(0);
        assert_eq!(buf.epoch([1, 1, 1]).misses, 3);
        assert_eq!(buf.resident_count(), 0);
    }

    #[test]
    fn epoch_larger_than_capacity_thrashes() {
        let mut buf = DoubleBuffer::new(4);
        // 8 unique addresses through a 4-entry buffer: all miss.
        let first = buf.epoch(0..8);
        assert_eq!(first.misses, 8);
        // Repeat: the first half was evicted, so it misses again.
        let second = buf.epoch(0..8);
        assert_eq!(second.misses, 8);
    }

    #[test]
    fn intra_epoch_repeat_hits_after_insert() {
        let mut buf = DoubleBuffer::new(10);
        let stats = buf.epoch([5, 5, 6, 5]);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2);
    }

    #[test]
    fn clear_empties_the_working_set() {
        let mut buf = DoubleBuffer::new(10);
        buf.epoch(0..5);
        buf.clear();
        assert_eq!(buf.resident_count(), 0);
        assert_eq!(buf.epoch(0..5).misses, 5);
    }

    #[test]
    fn install_write_allocates_without_miss_accounting() {
        let mut buf = DoubleBuffer::new(2);
        assert_eq!(buf.install(1), 0);
        assert_eq!(buf.install(2), 0);
        assert_eq!(buf.install(3), 1); // evicts 1
        assert!(buf.contains(3));
        assert!(!buf.contains(1));
        // Re-installing a resident address is a no-op.
        assert_eq!(buf.install(3), 0);
        // Installed data hits on demand.
        assert_eq!(buf.epoch([2, 3]).hits, 2);
    }

    #[test]
    fn install_into_zero_capacity_is_noop() {
        let mut buf = DoubleBuffer::new(0);
        assert_eq!(buf.install(7), 0);
        assert!(!buf.contains(7));
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut buf = DoubleBuffer::unbounded();
        let stats = buf.epoch(0..10_000);
        assert_eq!(stats.evictions, 0);
        assert_eq!(buf.resident_count(), 10_000);
    }

    #[test]
    fn epoch_with_misses_lists_the_misses_in_fetch_order() {
        let mut buf = DoubleBuffer::new(4);
        buf.epoch([10, 11]);
        let (stats, misses) = buf.epoch_with_misses([10, 13, 11, 5, 13]);
        assert_eq!((stats.hits, stats.misses, stats.evictions), (3, 2, 0));
        assert_eq!(misses, [13, 5]);
    }

    #[test]
    fn interval_set_matches_a_set_of_addresses() {
        // The oracle of `IntervalSet` against the one structure more
        // obvious than it: the covered addresses themselves.
        use std::collections::BTreeSet;
        const SPACE: u64 = 64;
        let mut state = 0x2545f4914f6cdd1du64;
        let mut next = |bound: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % bound
        };
        let mut set = ScalarIntervalSet::new();
        let mut addrs: BTreeSet<u64> = BTreeSet::new();
        for step in 0..400 {
            let start = next(SPACE);
            let end = (start + next(12)).min(SPACE);
            if step % 3 == 2 {
                // Remove a covered stretch, when `start` lies in one.
                if let Some((_, span_end)) = set.span_at(start) {
                    let end = end.clamp(start + 1, span_end);
                    set.remove_covered(start, end);
                    addrs.retain(|a| !(start..end).contains(a));
                }
            } else {
                let mut gaps = Vec::new();
                set.insert_with_gaps(start, end, |s, e| gaps.extend(s..e));
                let missing: Vec<u64> = (start..end).filter(|a| !addrs.contains(a)).collect();
                assert_eq!(gaps, missing, "step {step}: gaps of [{start}, {end})");
                addrs.extend(start..end);
            }
            assert_eq!(set.len(), addrs.len() as u64, "step {step}");
            assert_eq!(set.is_empty(), addrs.is_empty());
            let covered: Vec<u64> = set.iter_spans().flat_map(|(s, e)| s..e).collect();
            assert!(covered.iter().eq(addrs.iter()), "step {step}: spans");
            // Coalesced: no span ends where the next begins.
            let spans: Vec<(u64, u64)> = set.iter_spans().collect();
            assert!(spans.windows(2).all(|w| w[0].1 < w[1].0), "step {step}");
            assert_eq!(set.span_count(), spans.len());
            for pos in 0..=SPACE {
                assert_eq!(set.contains(pos), addrs.contains(&pos));
                assert_eq!(
                    set.len_at_or_above(pos),
                    addrs.range(pos..).count() as u64,
                    "step {step}: len_at_or_above({pos})"
                );
                let next_start = spans.iter().map(|&(s, _)| s).find(|&s| s >= pos);
                assert_eq!(set.first_start_at_or_after(pos), next_start);
            }
        }
        set.clear();
        assert!(set.is_empty() && set.span_count() == 0);
    }

    #[test]
    fn matches_brute_force_lru() {
        // Reference LRU simulation vs the stack-distance prediction.
        fn lru_misses(demands: &[u64], capacity: usize) -> u64 {
            let mut stack: Vec<u64> = Vec::new();
            let mut misses = 0;
            for &a in demands {
                if let Some(idx) = stack.iter().position(|&x| x == a) {
                    stack.remove(idx);
                } else {
                    misses += 1;
                    if capacity == 0 {
                        continue;
                    }
                    if stack.len() >= capacity {
                        stack.pop();
                    }
                }
                if capacity > 0 {
                    stack.insert(0, a);
                }
            }
            misses
        }
        let demands: Vec<u64> = [
            1, 2, 3, 1, 4, 2, 5, 1, 2, 3, 4, 5, 1, 1, 2, 6, 7, 3, 2, 1, 8, 2, 3,
        ]
        .to_vec();
        let profile = ElementReuseProfile::from_demands(demands.iter().copied());
        for capacity in 0..10 {
            assert_eq!(
                profile.misses_at(capacity),
                lru_misses(&demands, capacity),
                "capacity {capacity}"
            );
        }
        // And the shipped profile is that one.
        assert_eq!(
            profile,
            ReuseProfile::from_runs(&demands.into_iter().collect())
        );
    }
}
