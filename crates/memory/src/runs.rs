//! Run-length-compressed address streams.
//!
//! The conv/GEMM address maps emit overwhelmingly *contiguous* addresses:
//! a GEMM row `A[m][k0..k0+len]` is one run, a conv window row is one run
//! per filter row. Materializing every element as a `Vec<u64>` (what the
//! demand generator first produced) makes every downstream model
//! O(elements); representing the same stream as ordered `(start, len)`
//! intervals makes them O(runs).
//!
//! Two types live here:
//!
//! * [`AddrRuns`] — an *ordered* sequence of ascending contiguous runs.
//!   Order is semantic: the SRAM models use FIFO replacement, so the
//!   element sequence (first-use order) must be preserved exactly. The
//!   only compression applied is coalescing a pushed run with the previous
//!   one when they are exactly adjacent — which never changes the
//!   concatenated element sequence.
//! * [`IntervalSet`] — a disjoint, coalesced set of address intervals,
//!   used for run-granular residency tracking ([`crate::RunBuffer`]) and
//!   first-use deduplication in the demand generators.
//!
//! Both are laid out struct-of-arrays: parallel `starts[]` / `lens[]`
//! (resp. `ends[]`) vectors rather than a `Vec` of two-field structs. The
//! hot kernels — bulk append, span probe, union insert, gap walk — then
//! touch dense homogeneous arrays: probes are `partition_point` binary
//! searches, bulk appends are `extend_from_slice` (memcpy), and the
//! length/coverage reductions autovectorize. The element-granular and
//! `BTreeMap`-based implementations these replaced are the reference the
//! workspace's property suites compare them against; they live with those
//! suites (`tests/src/oracle.rs`), not in this crate.

use std::sync::atomic::{AtomicU64, Ordering};

/// The next seal [`AddrRuns::seal_distinct`] hands out. Starts at 1: zero is
/// "not sealed". `Relaxed` is enough, a seal publishes no other data — all
/// that matters is that no two calls return the same value.
static NEXT_SEAL: AtomicU64 = AtomicU64::new(1);

/// One maximal contiguous address run: `start, start+1, …, start+len-1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRun {
    /// First address of the run.
    pub start: u64,
    /// Number of consecutive addresses.
    pub len: u64,
}

impl AddrRun {
    /// One past the last address of the run.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }
}

/// An ordered sequence of address runs — the run-length-compressed form of
/// a demand stream.
///
/// Equivalent to the `Vec<u64>` it compresses: iterating
/// [`AddrRuns::iter_elements`] yields exactly the original element
/// sequence. Duplicate or descending addresses are representable (as
/// separate runs); only exactly-adjacent ascending pushes coalesce.
///
/// ```
/// use scalesim_memory::AddrRuns;
///
/// let runs: AddrRuns = [5u64, 6, 7, 20, 21, 7].into_iter().collect();
/// assert_eq!(runs.run_count(), 3); // [5,3] [20,2] [7,1]
/// assert_eq!(runs.element_count(), 6);
/// let back: Vec<u64> = runs.iter_elements().collect();
/// assert_eq!(back, vec![5, 6, 7, 20, 21, 7]);
/// ```
///
/// A stream may carry a *seal* ([`AddrRuns::seal_distinct`]): its
/// producer's promise that it is complete and free of duplicates, under a
/// name two streams share only if one was copied from the other. Equality
/// compares the streams and ignores the seal.
#[derive(Debug, Clone, Default)]
pub struct AddrRuns {
    starts: Vec<u64>,
    lens: Vec<u64>,
    elements: u64,
    /// Zero, or the value [`AddrRuns::seal_distinct`] drew. Every mutator
    /// zeroes it: a changed stream is not the stream that was sealed.
    seal: u64,
}

impl PartialEq for AddrRuns {
    /// Same runs in the same order, sealed or not.
    fn eq(&self, other: &AddrRuns) -> bool {
        self.starts == other.starts && self.lens == other.lens
    }
}

impl Eq for AddrRuns {}

impl AddrRuns {
    /// An empty stream.
    pub fn new() -> AddrRuns {
        AddrRuns::default()
    }

    /// An empty stream with room for `runs` runs.
    pub fn with_capacity(runs: usize) -> AddrRuns {
        AddrRuns {
            starts: Vec::with_capacity(runs),
            lens: Vec::with_capacity(runs),
            elements: 0,
            seal: 0,
        }
    }

    /// Appends the run `[start, start+len)`, coalescing with the previous
    /// run when exactly adjacent. A zero-length push changes no run (and,
    /// like every mutator, drops the seal).
    pub fn push(&mut self, start: u64, len: u64) {
        self.seal = 0;
        if len == 0 {
            return;
        }
        self.elements += len;
        if let Some(last_len) = self.lens.last_mut() {
            let last_start = *self.starts.last().unwrap();
            if last_start + *last_len == start {
                *last_len += len;
                return;
            }
        }
        self.starts.push(start);
        self.lens.push(len);
    }

    /// Appends every run of `other`, preserving order.
    ///
    /// Bulk kernel: at most the boundary pair can coalesce (each side is
    /// already maximally coalesced), so this is one boundary check plus two
    /// `extend_from_slice` copies — not a per-run loop.
    pub fn extend_runs(&mut self, other: &AddrRuns) {
        self.seal = 0;
        let mut from = 0;
        if let (Some(&last_start), Some(&last_len)) = (self.starts.last(), self.lens.last()) {
            if let Some(&first_start) = other.starts.first() {
                if last_start + last_len == first_start {
                    *self.lens.last_mut().unwrap() += other.lens[0];
                    from = 1;
                }
            }
        }
        self.starts.extend_from_slice(&other.starts[from..]);
        self.lens.extend_from_slice(&other.lens[from..]);
        self.elements += other.elements;
    }

    /// The run at index `i` in stream order.
    pub fn run(&self, i: usize) -> AddrRun {
        AddrRun {
            start: self.starts[i],
            len: self.lens[i],
        }
    }

    /// The runs in stream order.
    pub fn iter_runs(&self) -> impl Iterator<Item = AddrRun> + '_ {
        self.starts
            .iter()
            .zip(&self.lens)
            .map(|(&start, &len)| AddrRun { start, len })
    }

    /// The run start addresses, parallel to [`AddrRuns::lens`].
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// The run lengths, parallel to [`AddrRuns::starts`].
    pub fn lens(&self) -> &[u64] {
        &self.lens
    }

    /// Total element count (sum of run lengths).
    pub fn element_count(&self) -> u64 {
        self.elements
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.starts.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Empties the stream, keeping allocations.
    pub fn clear(&mut self) {
        self.starts.clear();
        self.lens.clear();
        self.elements = 0;
        self.seal = 0;
    }

    /// Declares the stream complete and its addresses pairwise distinct,
    /// and names it: the seal is a nonzero number no other call in this
    /// process returns. [`Clone`] and [`AddrRuns::copy_from`] carry it to
    /// the copy; `push`, `extend_runs` and `clear` drop it; `==` ignores
    /// it. So two streams with the same nonzero [`AddrRuns::seal`] are the
    /// same stream, element for element, and a consumer may tell "this
    /// stream again" in O(1) without keeping a copy — which is what
    /// [`RunBuffer::epoch`](crate::RunBuffer::epoch) does with it.
    ///
    /// What the consumer concludes from a repeated seal, with `S` the
    /// element count: an epoch that missed nothing changed nothing, so the
    /// repeat hits all `S` again; one that evicted nothing, or hit nothing
    /// with `S ≤ capacity` (and has a buffer), left all `S` resident, so
    /// the repeat hits them; one that hit nothing, of `S > capacity > 0`,
    /// left the FIFO holding the stream's tail, and the same *distinct*
    /// stream then evicts each element before it comes round — `S` misses,
    /// `S` evictions, same state. And from a new seal: a stream of
    /// `S ≥ capacity > 0` none of whose first `capacity` elements is
    /// resident misses everywhere, since no access brings in an element a
    /// later one asks for. Those last two need distinctness
    /// (`[1, 2, 3, 1]` through a capacity of 2 hits its leading `1` the
    /// second time), and it is why sealing promises it.
    ///
    /// Distinctness is the *caller's* promise and is not checked here
    /// (debug builds of `RunBuffer` check it where the stream is
    /// consumed). The demand generator can make it because it builds the
    /// A stream from the gaps of a first-use dedup set; a stream with a
    /// repeated address must stay unsealed. Sealing two equal streams
    /// gives two seals: the name says where a stream came from, not what
    /// it holds.
    ///
    /// ```
    /// use scalesim_memory::AddrRuns;
    ///
    /// let mut stream: AddrRuns = (0..8u64).collect();
    /// assert_eq!(stream.seal(), 0);
    /// stream.seal_distinct();
    /// let copy = stream.clone();
    /// assert!(copy.seal() != 0 && copy.seal() == stream.seal());
    /// stream.push(100, 1); // no longer the stream that was sealed
    /// assert_eq!(stream.seal(), 0);
    /// ```
    pub fn seal_distinct(&mut self) {
        self.seal = NEXT_SEAL.fetch_add(1, Ordering::Relaxed);
    }

    /// The seal [`AddrRuns::seal_distinct`] set, or zero for a stream that
    /// makes no promise.
    pub fn seal(&self) -> u64 {
        self.seal
    }

    /// Makes this stream a copy of `other` — runs, element count and seal
    /// — reusing this stream's allocations, where the derived `clone_from`
    /// would drop them for a fresh clone: a target that has held a stream
    /// as long is copied onto without touching the heap.
    pub fn copy_from(&mut self, other: &AddrRuns) {
        self.starts.clear();
        self.starts.extend_from_slice(&other.starts);
        self.lens.clear();
        self.lens.extend_from_slice(&other.lens);
        self.elements = other.elements;
        self.seal = other.seal;
    }

    /// Adds `d` to every address, wrapping: the stream of the same shape
    /// `d` further on (a shift down is `d = x.wrapping_neg()`). Order,
    /// equality and adjacency of addresses survive, and with them the run
    /// boundaries, as long as no address passes `u64::MAX`. Like every
    /// mutator it drops the seal: a shifted stream is another stream.
    ///
    /// ```
    /// use scalesim_memory::AddrRuns;
    ///
    /// let mut stream: AddrRuns = [5u64, 6, 9].into_iter().collect();
    /// stream.shift(10);
    /// assert_eq!(stream.iter_elements().collect::<Vec<_>>(), [15, 16, 19]);
    /// stream.shift(3u64.wrapping_neg());
    /// assert_eq!(stream.starts(), [12, 16]);
    /// ```
    pub fn shift(&mut self, d: u64) {
        self.seal = 0;
        for start in &mut self.starts {
            *start = start.wrapping_add(d);
        }
    }

    /// The uncompressed element sequence.
    pub fn iter_elements(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter_runs().flat_map(|r| r.start..r.end())
    }
}

impl FromIterator<u64> for AddrRuns {
    /// Order-preserving compression of an element stream: only consecutive
    /// ascending-adjacent elements coalesce, so the element sequence round
    /// trips exactly.
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> AddrRuns {
        let mut runs = AddrRuns::new();
        for addr in iter {
            runs.push(addr, 1);
        }
        runs
    }
}

/// A disjoint, coalesced set of half-open address intervals `[start, end)`.
///
/// Stored as parallel sorted `starts[]` / `ends[]` vectors (both strictly
/// increasing, spans never adjacent). Probes are `partition_point` binary
/// searches; mutations splice with `Vec::insert`/`drain`, which beats a
/// pointer-chasing `BTreeMap` (the form the test suite keeps as this
/// type's reference) by 2–3x on the spill workload's IFMAP buffers.
/// Splices cost the spans moved, so the type suits sets of tens of spans:
/// the first-use dedup of one fold's A stream, and a `RunBuffer` working
/// set until it fragments. The IS IFMAP working sets of the spill workload
/// reach 256–1,024 spans and more at most walks (mean 1,189 spans moved
/// per front eviction), and `RunBuffer` keeps those as a paged bitmap
/// instead (DESIGN §3.10).
///
/// Supports the queries the run-granular models need: membership, the
/// covered-or-not stretch from an address (`run_at`), union insert (with
/// fused gap enumeration), covered-range removal, and gap enumeration.
#[derive(Debug, Default)]
pub struct IntervalSet {
    starts: Vec<u64>,
    ends: Vec<u64>,
    len: u64,
}

impl Clone for IntervalSet {
    fn clone(&self) -> IntervalSet {
        IntervalSet {
            starts: self.starts.clone(),
            ends: self.ends.clone(),
            len: self.len,
        }
    }

    /// Copies into this set's own storage, where the derived `clone_from`
    /// would drop it for a fresh clone.
    fn clone_from(&mut self, source: &IntervalSet) {
        self.starts.clone_from(&source.starts);
        self.ends.clone_from(&source.ends);
        self.len = source.len;
    }
}

impl IntervalSet {
    /// An empty set.
    pub fn new() -> IntervalSet {
        IntervalSet::default()
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
        self.starts.len()
    }

    /// The spans in ascending order, as `(start, end)` pairs.
    pub fn iter_spans(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.starts.iter().copied().zip(self.ends.iter().copied())
    }

    /// Index of the span covering `pos`, if any.
    #[inline]
    fn span_index_at(&self, pos: u64) -> Option<usize> {
        let idx = self.starts.partition_point(|&s| s <= pos);
        let i = idx.checked_sub(1)?;
        (self.ends[i] > pos).then_some(i)
    }

    /// Whether `addr` is covered.
    pub fn contains(&self, addr: u64) -> bool {
        self.span_index_at(addr).is_some()
    }

    /// Whether `pos` is covered, and where the stretch of addresses from
    /// `pos` that answer the same ends, capped at `limit > pos`: the end of
    /// `pos`'s span, or the start of the next one, in one binary search.
    #[inline]
    pub fn run_at(&self, pos: u64, limit: u64) -> (bool, u64) {
        let idx = self.starts.partition_point(|&s| s <= pos);
        if idx > 0 && self.ends[idx - 1] > pos {
            (true, self.ends[idx - 1].min(limit))
        } else {
            (false, self.starts.get(idx).map_or(limit, |&s| s.min(limit)))
        }
    }

    /// Number of covered addresses `>= pos`.
    pub fn len_at_or_above(&self, pos: u64) -> u64 {
        let idx = self.starts.partition_point(|&s| s <= pos);
        let mut total = 0;
        if idx > 0 && self.ends[idx - 1] > pos {
            total += self.ends[idx - 1] - pos;
        }
        // Branch-free tail reduction over the parallel arrays.
        total
            + self.ends[idx..]
                .iter()
                .zip(&self.starts[idx..])
                .map(|(e, s)| e - s)
                .sum::<u64>()
    }

    /// Unions `[start, end)` into the set, merging overlapping or adjacent
    /// spans.
    pub fn insert(&mut self, start: u64, end: u64) {
        self.insert_with_gaps(start, end, |_, _| {});
    }

    /// Unions `[start, end)` into the set and calls `gap(s, e)` for each
    /// maximal subrange of `[start, end)` that was *not* previously
    /// covered, in ascending order — [`IntervalSet::for_gaps`] fused with
    /// [`IntervalSet::insert`] so the affected spans are probed once.
    pub fn insert_with_gaps(&mut self, start: u64, end: u64, mut gap: impl FnMut(u64, u64)) {
        if start >= end {
            return;
        }
        // Spans in [lo, hi) overlap or are exactly adjacent to [start, end):
        // both bounds are binary searches (ends[] is sorted because spans
        // are disjoint and non-adjacent).
        let lo = self.ends.partition_point(|&e| e < start);
        let hi = self.starts.partition_point(|&s| s <= end);
        let mut pos = start;
        let mut covered = 0;
        for j in lo..hi {
            let (s, e) = (self.starts[j], self.ends[j]);
            covered += e - s;
            if s > pos {
                gap(pos, s);
            }
            pos = pos.max(e.min(end));
        }
        if pos < end {
            gap(pos, end);
        }
        if lo == hi {
            self.starts.insert(lo, start);
            self.ends.insert(lo, end);
            self.len += end - start;
            return;
        }
        let new_start = start.min(self.starts[lo]);
        let new_end = end.max(self.ends[hi - 1]);
        self.starts[lo] = new_start;
        self.ends[lo] = new_end;
        self.starts.drain(lo + 1..hi);
        self.ends.drain(lo + 1..hi);
        self.len += (new_end - new_start) - covered;
    }

    /// Removes `[start, end)`, which must lie entirely within one span.
    pub fn remove_covered(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let i = self
            .span_index_at(start)
            .expect("remove_covered: range not resident");
        let (span_start, span_end) = (self.starts[i], self.ends[i]);
        debug_assert!(end <= span_end, "remove_covered: range spans a gap");
        match (span_start < start, end < span_end) {
            (true, true) => {
                // Split: keep [span_start, start), insert [end, span_end).
                self.ends[i] = start;
                self.starts.insert(i + 1, end);
                self.ends.insert(i + 1, span_end);
            }
            (true, false) => self.ends[i] = start,
            (false, true) => self.starts[i] = end,
            (false, false) => {
                self.starts.remove(i);
                self.ends.remove(i);
            }
        }
        self.len -= end - start;
    }

    /// Calls `gap(s, e)` for each maximal subrange of `[start, end)` *not*
    /// covered by the set, in ascending order.
    pub fn for_gaps(&self, start: u64, end: u64, mut gap: impl FnMut(u64, u64)) {
        if start >= end {
            return;
        }
        let mut pos = start;
        // First span that can matter: the one covering `start` (its start
        // is <= start) or the first starting after it.
        let mut i = self.starts.partition_point(|&s| s <= start);
        if i > 0 && self.ends[i - 1] > start {
            pos = self.ends[i - 1].min(end);
        }
        while pos < end {
            if i < self.starts.len() && self.starts[i] < end {
                if self.starts[i] > pos {
                    gap(pos, self.starts[i]);
                }
                pos = self.ends[i].min(end);
                i += 1;
            } else {
                gap(pos, end);
                break;
            }
        }
    }

    /// Empties the set, keeping allocations.
    pub fn clear(&mut self) {
        self.starts.clear();
        self.ends.clear();
        self.len = 0;
    }

    /// Makes the set exactly the union of `spans` — non-empty, pairwise
    /// disjoint `(start, end)` pairs in any order — in its own storage.
    pub(crate) fn assign_disjoint(&mut self, spans: impl IntoIterator<Item = (u64, u64)>) {
        self.clear();
        for (start, end) in spans {
            self.starts.push(start);
            self.ends.push(end);
            self.len += end - start;
        }
        // Disjoint spans are in the same order by start as by end, so the
        // two arrays sort apart and stay paired: no scratch of pairs.
        self.starts.sort_unstable();
        self.ends.sort_unstable();
        // Coalesce exactly adjacent neighbours in place.
        let mut kept = 0;
        for i in 1..self.starts.len() {
            debug_assert!(self.ends[kept] <= self.starts[i], "spans overlap");
            if self.ends[kept] == self.starts[i] {
                self.ends[kept] = self.ends[i];
            } else {
                kept += 1;
                self.starts[kept] = self.starts[i];
                self.ends[kept] = self.ends[i];
            }
        }
        self.starts.truncate(kept + 1);
        self.ends.truncate(kept + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_coalesces_only_adjacent_ascending() {
        let mut runs = AddrRuns::new();
        runs.push(10, 5);
        runs.push(15, 5); // adjacent: coalesce
        runs.push(30, 1);
        runs.push(29, 1); // descending: new run
        runs.push(30, 1); // adjacent to the previous push: coalesces
        assert_eq!(runs.run_count(), 3);
        assert_eq!(runs.element_count(), 13);
        assert_eq!(runs.run(0), AddrRun { start: 10, len: 10 });
        let elems: Vec<u64> = runs.iter_elements().collect();
        assert_eq!(
            elems,
            vec![10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 30, 29, 30]
        );
    }

    #[test]
    fn from_iter_round_trips_any_sequence() {
        let seq = vec![7u64, 8, 9, 3, 4, 4, 5, 100, 2, 1, 0];
        let runs: AddrRuns = seq.iter().copied().collect();
        let back: Vec<u64> = runs.iter_elements().collect();
        assert_eq!(back, seq);
        assert_eq!(runs.element_count(), seq.len() as u64);
    }

    #[test]
    fn zero_length_push_is_noop() {
        let mut runs = AddrRuns::new();
        runs.push(5, 0);
        assert!(runs.is_empty());
        assert_eq!(runs.element_count(), 0);
    }

    #[test]
    fn extend_runs_merges_only_the_boundary() {
        let mut a = AddrRuns::new();
        a.push(0, 4);
        a.push(10, 2);
        let mut b = AddrRuns::new();
        b.push(12, 3); // adjacent to a's last run
        b.push(0, 1);
        a.extend_runs(&b);
        assert_eq!(a.run_count(), 3);
        assert_eq!(a.run(1), AddrRun { start: 10, len: 5 });
        assert_eq!(a.element_count(), 10);
        // Non-adjacent boundary: plain concatenation.
        let mut c = AddrRuns::new();
        c.push(100, 1);
        a.extend_runs(&c);
        assert_eq!(a.run_count(), 4);
        // Extending an empty stream copies wholesale.
        let mut empty = AddrRuns::new();
        empty.extend_runs(&a);
        assert_eq!(empty, a);
        // Extending with an empty stream is a no-op.
        let snapshot = a.clone();
        a.extend_runs(&AddrRuns::new());
        assert_eq!(a, snapshot);
    }

    fn sealed(elems: std::ops::Range<u64>) -> AddrRuns {
        let mut runs: AddrRuns = elems.collect();
        runs.seal_distinct();
        runs
    }

    #[test]
    fn only_seal_distinct_seals() {
        assert_eq!(AddrRuns::new().seal(), 0);
        assert_eq!(AddrRuns::with_capacity(4).seal(), 0);
        assert_eq!((0..8u64).collect::<AddrRuns>().seal(), 0);
        assert_ne!(sealed(0..8).seal(), 0);
    }

    #[test]
    fn every_mutator_drops_the_seal() {
        let mut runs = sealed(0..8);
        runs.push(100, 1);
        assert_eq!(runs.seal(), 0);
        // ... even one that changes no run: the stream is "complete" only
        // until somebody touches it.
        let mut runs = sealed(0..8);
        runs.push(100, 0);
        assert_eq!(runs.seal(), 0);
        let mut runs = sealed(0..8);
        runs.clear();
        assert_eq!(runs.seal(), 0);
        // A shift, even by zero, names another stream.
        let mut runs = sealed(0..8);
        runs.shift(0);
        assert_eq!(runs.seal(), 0);
        // extend_runs names neither side's stream: not into a sealed
        // non-empty target, and not the sealed source's into an empty one.
        let mut runs = sealed(0..8);
        runs.extend_runs(&(20..24u64).collect());
        assert_eq!(runs.seal(), 0);
        let mut runs = sealed(0..8);
        runs.extend_runs(&sealed(20..24));
        assert_eq!(runs.seal(), 0);
        let mut empty = AddrRuns::new();
        empty.extend_runs(&sealed(0..8));
        assert_eq!(empty.seal(), 0);
        assert_eq!(empty, sealed(0..8));
    }

    #[test]
    fn clone_and_copy_from_carry_the_seal() {
        let source = sealed(0..8);
        assert_eq!(source.clone().seal(), source.seal());
        // Onto an empty, an unsealed and a differently sealed target.
        for mut target in [AddrRuns::new(), (50..90u64).collect(), sealed(3..5)] {
            target.copy_from(&source);
            assert_eq!(target.seal(), source.seal());
            assert_eq!(target, source);
            assert_eq!(target.element_count(), 8);
        }
        // Copying an unsealed stream unseals the target.
        let mut target = sealed(3..5);
        target.copy_from(&(0..8u64).collect());
        assert_eq!(target.seal(), 0);
        assert_eq!(target, source);
    }

    #[test]
    fn a_seal_names_a_stream_not_its_content() {
        // Equal streams sealed apart get different seals (a consumer walks
        // the second, correctly), and `==` does not look at the seal.
        let (one, two) = (sealed(0..8), sealed(0..8));
        assert_ne!(one.seal(), two.seal());
        assert_eq!(one, two);
        assert_eq!(one, (0..8u64).collect::<AddrRuns>());
        // Sealing again renames.
        let mut again = one.clone();
        again.seal_distinct();
        assert_ne!(again.seal(), one.seal());
    }

    #[test]
    fn interval_set_insert_merges_overlaps_and_adjacency() {
        let mut set = IntervalSet::new();
        set.insert(10, 20);
        set.insert(30, 40);
        assert_eq!(set.len(), 20);
        set.insert(20, 30); // bridges the two (adjacent on both sides)
        assert_eq!(set.len(), 30);
        assert!(set.iter_spans().eq([(10, 40)]));
        set.insert(5, 50); // superset
        assert_eq!(set.len(), 45);
        assert!(set.iter_spans().eq([(5, 50)]));
        set.insert(7, 9); // fully covered: no-op
        assert_eq!(set.len(), 45);
        assert_eq!(set.span_count(), 1);
    }

    #[test]
    fn interval_set_remove_covered_splits_spans() {
        let mut set = IntervalSet::new();
        set.insert(0, 100);
        set.remove_covered(20, 30);
        assert_eq!(set.len(), 90);
        assert!(set.contains(19));
        assert!(!set.contains(20));
        assert!(!set.contains(29));
        assert!(set.contains(30));
        assert!(set.iter_spans().eq([(0, 20), (30, 100)]));
        // Remove a full span.
        set.remove_covered(0, 20);
        assert!(!set.contains(0));
        assert_eq!(set.len(), 70);
    }

    #[test]
    fn interval_set_gap_walk() {
        let mut set = IntervalSet::new();
        set.insert(10, 20);
        set.insert(30, 40);
        let mut gaps = Vec::new();
        set.for_gaps(5, 45, |s, e| gaps.push((s, e)));
        assert_eq!(gaps, vec![(5, 10), (20, 30), (40, 45)]);
        // Fully covered range: no gaps.
        gaps.clear();
        set.for_gaps(12, 18, |s, e| gaps.push((s, e)));
        assert!(gaps.is_empty());
        // Fully uncovered range: one gap.
        gaps.clear();
        set.for_gaps(100, 110, |s, e| gaps.push((s, e)));
        assert_eq!(gaps, vec![(100, 110)]);
    }

    #[test]
    fn insert_with_gaps_reports_exactly_the_uncovered_parts() {
        let mut set = IntervalSet::new();
        set.insert(10, 20);
        set.insert(30, 40);
        let mut gaps = Vec::new();
        set.insert_with_gaps(5, 45, |s, e| gaps.push((s, e)));
        assert_eq!(gaps, vec![(5, 10), (20, 30), (40, 45)]);
        assert!(set.iter_spans().eq([(5, 45)]));
        assert_eq!(set.len(), 40);
        // Re-inserting a covered range reports nothing and changes nothing.
        gaps.clear();
        set.insert_with_gaps(10, 40, |s, e| gaps.push((s, e)));
        assert!(gaps.is_empty());
        assert_eq!(set.len(), 40);
        assert_eq!(set.span_count(), 1);
    }

    #[test]
    fn interval_set_queries() {
        let mut set = IntervalSet::new();
        set.insert(10, 20);
        set.insert(40, 50);
        // A stretch ends where coverage changes, or at the limit.
        assert_eq!(set.run_at(0, 100), (false, 10));
        assert_eq!(set.run_at(9, 100), (false, 10));
        assert_eq!(set.run_at(10, 100), (true, 20));
        assert_eq!(set.run_at(11, 15), (true, 15));
        assert_eq!(set.run_at(20, 100), (false, 40));
        assert_eq!(set.run_at(20, 30), (false, 30));
        assert_eq!(set.run_at(49, 100), (true, 50));
        assert_eq!(set.run_at(50, 100), (false, 100));
        assert_eq!(set.len_at_or_above(0), 20);
        assert_eq!(set.len_at_or_above(15), 15);
        assert_eq!(set.len_at_or_above(45), 5);
        assert_eq!(set.len_at_or_above(50), 0);
    }

    #[test]
    fn assign_disjoint_pairs_unsorted_spans_and_coalesces() {
        let mut set = IntervalSet::new();
        set.insert(500, 600);
        set.assign_disjoint([(40, 50), (10, 20), (60, 61), (20, 25)]);
        let spans: Vec<(u64, u64)> = set.iter_spans().collect();
        assert_eq!(spans, [(10, 25), (40, 50), (60, 61)]);
        assert_eq!(set.len(), 26);
        assert!(!set.contains(500));
        set.assign_disjoint([]);
        assert!(set.is_empty() && set.span_count() == 0);
    }

    #[test]
    fn interval_set_matches_naive_model() {
        // Deterministic pseudo-random op sequence cross-checked against a
        // HashSet-of-elements model.
        use std::collections::HashSet;
        let mut set = IntervalSet::new();
        let mut model: HashSet<u64> = HashSet::new();
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..500 {
            let s = next() % 200;
            let len = next() % 20 + 1;
            let e = s + len;
            if next() % 3 == 0 {
                // Remove a covered subrange, if one exists inside a span.
                if let (true, b) = set.run_at(s, e) {
                    set.remove_covered(s, b);
                    for x in s..b {
                        model.remove(&x);
                    }
                }
            } else {
                set.insert(s, e);
                for x in s..e {
                    model.insert(x);
                }
            }
            assert_eq!(set.len(), model.len() as u64);
            for probe in 0..220 {
                assert_eq!(set.contains(probe), model.contains(&probe));
            }
        }
    }
}
