//! Reuse-distance analysis: miss counts for *every* buffer capacity in one
//! pass.
//!
//! The double-buffer model answers "how many misses at capacity C?" for one
//! C per simulation. SRAM sizing studies (our `ext_sram_sweep` ablation,
//! or any "how much SRAM does this layer want?" question) need the whole
//! curve. The classic Mattson stack algorithm computes it in a single pass
//! over the demand stream for any stack algorithm; this implementation
//! profiles LRU stack distances, which upper-bounds the FIFO buffer's hit
//! rate and pinpoints the working-set knees exactly.

use crate::runs::{AddrRuns, IntervalSet};

/// Histogram of LRU stack distances for a demand stream.
///
/// `distance d` means: the address was last touched with `d` distinct
/// addresses touched in between, so any LRU buffer of capacity `> d` hits.
/// Cold (first-touch) accesses are counted separately — no capacity avoids
/// them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReuseProfile {
    /// `histogram[d]` = number of accesses with stack distance exactly `d`.
    histogram: Vec<u64>,
    /// First-touch accesses (compulsory misses at any capacity).
    cold: u64,
    total: u64,
}

impl ReuseProfile {
    /// Builds the profile from a run-compressed demand stream without
    /// expanding it: O(R · log R) in the number of runs and last-touch
    /// segments instead of O(N log N) elements.
    ///
    /// Each run must be internally ascending and duplicate-free (true of
    /// every [`AddrRuns`] run by construction — a run *is* a contiguous
    /// ascending interval). The result is the one the classic element walk
    /// (one Fenwick flag per access position; the test suite's oracle)
    /// gives over the expanded element stream.
    ///
    /// The key observation: for every element of a maximal segment whose
    /// previous touch lies in the same earlier run, the LRU stack distance
    /// is *constant* — walking the segment left to right, each step gains
    /// one "touched earlier in the current run" address and loses exactly
    /// one "still-live above" address of the previous toucher.
    pub fn from_runs(runs: &AddrRuns) -> Self {
        Self::from_runs_in(runs, &mut ReuseScratch::new())
    }

    /// [`ReuseProfile::from_runs`] with caller-provided scratch, so
    /// repeated profiling (sweeps, per-layer telemetry) reuses the Fenwick
    /// storage, live-interval pool and last-touch segment arrays instead
    /// of reallocating them per call.
    pub fn from_runs_in(runs: &AddrRuns, scratch: &mut ReuseScratch) -> Self {
        let n = runs.run_count();
        assert!(
            u32::try_from(n).is_ok(),
            "from_runs supports at most u32::MAX runs per stream"
        );
        let ReuseScratch {
            fenwick,
            live,
            seg_starts,
            seg_ends,
            seg_owners,
        } = scratch;
        // fenwick[t] = number of still-live addresses whose most recent
        // touch was run t (decremented eagerly as later runs re-touch them).
        fenwick.reset(n);
        if live.len() < n {
            live.resize_with(n, IntervalSet::new);
        }
        for set in live[..n].iter_mut() {
            set.clear();
        }
        // Disjoint last-touch segments, SoA and sorted: segment k covers
        // [seg_starts[k], seg_ends[k]) and was last touched by run
        // seg_owners[k]. Starts and ends are both strictly increasing, so
        // the segments overlapping a run form one contiguous index range
        // found by two binary probes.
        seg_starts.clear();
        seg_ends.clear();
        seg_owners.clear();
        let mut histogram: Vec<u64> = Vec::new();
        let mut cold = 0u64;
        let mut total = 0u64;
        for i in 0..n {
            let s = runs.starts()[i];
            let len = runs.lens()[i];
            let e = s + len;
            total += len;
            let lo = seg_ends.partition_point(|&en| en <= s);
            let hi = seg_starts.partition_point(|&st| st < e);
            let mut pos = s;
            for k in lo..hi {
                let (seg_start, seg_end) = (seg_starts[k], seg_ends[k]);
                let j = seg_owners[k] as usize;
                let a1 = seg_start.max(s);
                let a2 = seg_end.min(e);
                cold += a1 - pos; // uncovered gap: first touches
                pos = a2;
                let seg = a2 - a1;
                // Constant stack distance for the whole segment (evaluated
                // at its last element a2-1): addresses touched earlier in
                // this run, plus run j's still-live tail above the segment,
                // plus everything still live in runs strictly between.
                let distance =
                    (a2 - 1 - s) + live[j].len_at_or_above(a2) + fenwick.range_sum(j + 1, i);
                let distance = distance as usize;
                if histogram.len() <= distance {
                    histogram.resize(distance + 1, 0);
                }
                histogram[distance] += seg;
                // These addresses are now last-touched by run i.
                live[j].remove_covered(a1, a2);
                fenwick.add(j, -(seg as i64));
            }
            cold += e - pos; // tail gap
                             // Rewrite the last-touch segments covering [s, e): an optional
                             // kept head of the first overlap, the new segment, an optional
                             // kept tail of the last overlap.
            let mut repl = [(0u64, 0u64, 0u32); 3];
            let mut count = 0;
            if hi > lo && seg_starts[lo] < s {
                repl[count] = (seg_starts[lo], s, seg_owners[lo]);
                count += 1;
            }
            let tail = (hi > lo && seg_ends[hi - 1] > e)
                .then(|| (e, seg_ends[hi - 1], seg_owners[hi - 1]));
            repl[count] = (s, e, i as u32);
            count += 1;
            if let Some(tail) = tail {
                repl[count] = tail;
                count += 1;
            }
            splice_segments(seg_starts, seg_ends, seg_owners, lo, hi, &repl[..count]);
            live[i].insert(s, e);
            fenwick.add(i, len as i64);
        }
        ReuseProfile {
            histogram,
            cold,
            total,
        }
    }

    /// Total accesses profiled.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// First-touch (compulsory) accesses.
    pub fn cold_accesses(&self) -> u64 {
        self.cold
    }

    /// Misses an LRU buffer of `capacity` elements would take on this
    /// stream: cold misses plus every access with stack distance
    /// ≥ capacity.
    pub fn misses_at(&self, capacity: usize) -> u64 {
        let reuse_misses: u64 = self.histogram.iter().skip(capacity).sum();
        self.cold + reuse_misses
    }

    /// Hit rate at `capacity` (0.0 for an empty stream).
    pub fn hit_rate_at(&self, capacity: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            1.0 - self.misses_at(capacity) as f64 / self.total as f64
        }
    }

    /// The miss curve sampled at the given capacities — the input for an
    /// SRAM sizing plot.
    pub fn miss_curve(&self, capacities: &[usize]) -> Vec<(usize, u64)> {
        capacities.iter().map(|&c| (c, self.misses_at(c))).collect()
    }

    /// The smallest capacity achieving at least `target` hit rate, if any
    /// capacity does (cold misses bound the maximum achievable rate).
    pub fn capacity_for_hit_rate(&self, target: f64) -> Option<usize> {
        let max_needed = self.histogram.len();
        (0..=max_needed).find(|&c| self.hit_rate_at(c) >= target)
    }
}

/// Reusable scratch for [`ReuseProfile::from_runs_in`]: Fenwick storage,
/// the per-run live-interval pool, and the SoA last-touch segment arrays.
/// All vectors are cleared, never dropped, between profiles.
#[derive(Debug, Default)]
pub struct ReuseScratch {
    fenwick: Fenwick,
    live: Vec<IntervalSet>,
    seg_starts: Vec<u64>,
    seg_ends: Vec<u64>,
    seg_owners: Vec<u32>,
}

impl ReuseScratch {
    /// Empty scratch; grows to the largest profiled stream and stays there.
    pub fn new() -> ReuseScratch {
        ReuseScratch::default()
    }
}

/// Replaces segments `[lo, hi)` of the parallel SoA arrays with `repl`
/// (at most 3 entries), reusing the overwritten slots.
fn splice_segments(
    starts: &mut Vec<u64>,
    ends: &mut Vec<u64>,
    owners: &mut Vec<u32>,
    lo: usize,
    hi: usize,
    repl: &[(u64, u64, u32)],
) {
    let old = hi - lo;
    let common = repl.len().min(old);
    for (offset, &(s, e, o)) in repl[..common].iter().enumerate() {
        starts[lo + offset] = s;
        ends[lo + offset] = e;
        owners[lo + offset] = o;
    }
    if repl.len() < old {
        starts.drain(lo + repl.len()..hi);
        ends.drain(lo + repl.len()..hi);
        owners.drain(lo + repl.len()..hi);
    } else {
        for (offset, &(s, e, o)) in repl[old..].iter().enumerate() {
            starts.insert(hi + offset, s);
            ends.insert(hi + offset, e);
            owners.insert(hi + offset, o);
        }
    }
}

/// A Fenwick (binary indexed) tree over run indices, sized by `reset` to
/// the stream being profiled.
#[derive(Debug, Default)]
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    /// Zeroes the tree at exactly `len` positions, keeping the allocation.
    fn reset(&mut self, len: usize) {
        self.tree.clear();
        self.tree.resize(len, 0);
    }

    fn add(&mut self, index: usize, delta: i64) {
        let n = self.tree.len();
        debug_assert!(index < n, "run {index} of a {n}-run stream");
        let mut i = index;
        while i < n {
            self.tree[i] += delta;
            i |= i + 1;
        }
    }

    /// Sum of counts in `[0, end)`.
    fn prefix(&self, end: usize) -> i64 {
        let mut sum = 0;
        let mut i = end.min(self.tree.len());
        while i > 0 {
            sum += self.tree[i - 1];
            i &= i - 1;
        }
        sum
    }

    /// Sum of the (nonnegative) live-element counts of runs `[lo, hi)`.
    fn range_sum(&self, lo: usize, hi: usize) -> u64 {
        if lo >= hi {
            return 0;
        }
        (self.prefix(hi) - self.prefix(lo)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The profile of an element stream, through the order-preserving
    /// compression every producer uses.
    fn profile_of(demands: impl IntoIterator<Item = u64>) -> ReuseProfile {
        ReuseProfile::from_runs(&demands.into_iter().collect())
    }

    #[test]
    fn cyclic_stream_has_uniform_distance() {
        // a b c a b c a b c: after the cold pass, every access has stack
        // distance 2 (two distinct addresses in between).
        let profile = profile_of([1, 2, 3, 1, 2, 3, 1, 2, 3]);
        assert_eq!(profile.cold_accesses(), 3);
        assert_eq!(profile.total_accesses(), 9);
        assert_eq!(profile.misses_at(2), 3 + 6); // capacity 2 < distance+1
        assert_eq!(profile.misses_at(3), 3); // fits: only cold misses
        assert!((profile.hit_rate_at(3) - 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn immediate_reuse_has_distance_zero() {
        let profile = profile_of([7, 7, 7, 7]);
        assert_eq!(profile.cold_accesses(), 1);
        assert_eq!(profile.misses_at(1), 1);
        assert_eq!(profile.misses_at(0), 4);
    }

    #[test]
    fn streaming_stream_never_hits() {
        let profile = profile_of(0..100u64);
        assert_eq!(profile.cold_accesses(), 100);
        assert_eq!(profile.misses_at(1_000_000), 100);
        assert_eq!(profile.hit_rate_at(1_000_000), 0.0);
    }

    #[test]
    fn miss_curve_is_monotone_nonincreasing() {
        // A mixed stream with several working-set sizes.
        let mut demands = Vec::new();
        for round in 0..10u64 {
            for a in 0..(4 + round % 3) {
                demands.push(a);
            }
        }
        let profile = profile_of(demands);
        let caps: Vec<usize> = (0..10).collect();
        let curve = profile.miss_curve(&caps);
        assert!(curve.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn capacity_for_hit_rate_finds_the_knee() {
        let profile = profile_of([1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3]);
        // 9 of 12 accesses can hit with capacity 3.
        assert_eq!(profile.capacity_for_hit_rate(0.7), Some(3));
        // Cold misses cap the hit rate at 75%.
        assert_eq!(profile.capacity_for_hit_rate(0.9), None);
    }

    #[test]
    fn empty_stream() {
        let profile = profile_of(std::iter::empty());
        assert_eq!(profile.total_accesses(), 0);
        assert_eq!(profile.misses_at(10), 0);
        assert_eq!(profile.hit_rate_at(10), 0.0);
    }

    fn runs_from_intervals(intervals: &[(u64, u64)]) -> AddrRuns {
        let mut runs = AddrRuns::new();
        // Push through a non-coalescing path is unnecessary: adjacent
        // pushes coalescing is exactly the stream the generators produce.
        for &(start, len) in intervals {
            runs.push(start, len);
        }
        runs
    }

    #[test]
    fn reused_scratch_gives_identical_profiles() {
        let mut scratch = ReuseScratch::new();
        let streams: [&[(u64, u64)]; 3] = [
            &[(0, 10), (20, 10), (5, 20), (0, 40)],
            &[(3, 1), (1, 1), (3, 1)],
            &[(0, 16), (0, 16), (100, 4), (0, 120)],
        ];
        for intervals in streams {
            let runs = runs_from_intervals(intervals);
            let fresh = ReuseProfile::from_runs(&runs);
            let pooled = ReuseProfile::from_runs_in(&runs, &mut scratch);
            assert_eq!(fresh, pooled, "intervals {intervals:?}");
        }
    }
}
