//! Double-buffered SRAM working-set model.
//!
//! SCALE-Sim provisions a dedicated, double-buffered SRAM per operand
//! (Section II-C, Fig. 2). At this model's granularity a buffer is a set of
//! resident element addresses with FIFO replacement: demand that hits costs
//! nothing at the interface, demand that misses must be prefetched from DRAM
//! before the fold that uses it starts. FIFO (rather than LRU) matches the
//! streaming prefetch behaviour of the original tool — data is loaded in
//! use-order and the oldest loads are the first overwritten.

use std::collections::VecDeque;

use crate::runs::{AddrRun, AddrRuns, IntervalSet};

/// Per-epoch classification of a demand stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStats {
    /// Demanded addresses already resident.
    pub hits: u64,
    /// Demanded addresses that had to be fetched.
    pub misses: u64,
    /// Addresses evicted to make room.
    pub evictions: u64,
}

/// A double-buffered operand SRAM: a FIFO working set of address
/// *intervals*.
///
/// Produces exactly the hit/miss/eviction counts and the final resident
/// set of a FIFO fed the uncompressed element stream one address at a time
/// (the test suite's element-granular oracle is that FIFO, and the
/// property suites compare the two) — FIFO hits cause no state change, so
/// a maximal resident span batches into one hit count, and a maximal
/// missing span batches into one insert + one tail eviction sweep. Work is
/// O(runs × log spans) instead of O(elements).
///
/// ```
/// use scalesim_memory::{AddrRuns, RunBuffer};
///
/// let mut buf = RunBuffer::new(2);
/// let first = buf.epoch(&[1u64, 2].into_iter().collect::<AddrRuns>());
/// assert_eq!(first.misses, 2);
/// let second = buf.epoch(&[2u64, 3].into_iter().collect::<AddrRuns>());
/// assert_eq!((second.hits, second.misses, second.evictions), (1, 1, 1));
/// ```
///
/// A sealed stream ([`AddrRuns::seal_distinct`]) that arrives again right
/// after an epoch that left the buffer at a fixed point of that stream is
/// answered without a walk — see [`RunBuffer::epoch`].
#[derive(Debug, Clone)]
pub struct RunBuffer {
    capacity: u64,
    resident: IntervalSet,
    /// FIFO of inserted segments. Invariant: segments are disjoint and
    /// their union is exactly the resident set (evictions consume from the
    /// front as residency shrinks).
    queue: VecDeque<AddrRun>,
    /// The seal of the stream the last [`RunBuffer::epoch`] walked, if that
    /// walk left the buffer where walking the same stream again leaves it;
    /// zero otherwise, and after any other change to the working set.
    repeat_seal: u64,
    /// What an epoch of the stream sealed `repeat_seal` returns while the
    /// buffer stays at that fixed point.
    repeat_stats: EpochStats,
    /// Epochs [`RunBuffer::epoch`] walked since `new` or `reset`.
    walked: u64,
    /// The stream sealed `repeat_seal`, kept where tests run so that the
    /// producer's promise — one seal, one stream — is checked and not
    /// only trusted. Release builds keep no copy of any stream.
    #[cfg(debug_assertions)]
    repeat_stream: AddrRuns,
    /// Sort scratch of the pairwise-distinct check, kept for its capacity.
    #[cfg(debug_assertions)]
    distinct_scratch: Vec<(u64, u64)>,
}

impl RunBuffer {
    /// Creates a buffer holding at most `capacity_elems` elements.
    ///
    /// A capacity of zero models "no buffer": every demand misses.
    pub fn new(capacity_elems: u64) -> Self {
        RunBuffer {
            capacity: capacity_elems,
            resident: IntervalSet::new(),
            queue: VecDeque::new(),
            repeat_seal: 0,
            repeat_stats: EpochStats::default(),
            walked: 0,
            #[cfg(debug_assertions)]
            repeat_stream: AddrRuns::new(),
            #[cfg(debug_assertions)]
            distinct_scratch: Vec::new(),
        }
    }

    /// An effectively infinite buffer (everything fetched exactly once).
    pub fn unbounded() -> Self {
        RunBuffer::new(u64::MAX)
    }

    /// The configured capacity in elements.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Elements currently resident.
    pub fn resident_count(&self) -> u64 {
        self.resident.len()
    }

    /// Whether `addr` is currently resident.
    pub fn contains(&self, addr: u64) -> bool {
        self.resident.contains(addr)
    }

    /// Runs one epoch (one fold's worth) of run-compressed demand through
    /// the buffer.
    ///
    /// Demands should be the epoch's unique addresses in first-use order;
    /// intra-epoch reuse is served by the SRAM itself and is not interface
    /// traffic. Misses are inserted in demand order, evicting the oldest
    /// resident addresses when the buffer is full (so an epoch whose working
    /// set exceeds the capacity thrashes, as the real hardware would).
    ///
    /// # Fixed-point epochs
    ///
    /// The demand generator hands every fold of a fold row the same A
    /// stream, so most epochs re-stream the stream of the epoch before.
    /// When that stream is *sealed* ([`AddrRuns::seal_distinct`]: complete,
    /// pairwise distinct, and named, so "the same stream" is one integer
    /// comparison) and the epoch before left the buffer at a fixed point
    /// of it, the answer is known and is returned without a probe of the
    /// working set or an operation on the FIFO. With `S` the stream's
    /// element count, a walked epoch is a fixed point when
    ///
    /// 1. **it missed nothing** (`misses == 0`): a FIFO hit changes no
    ///    state, so the buffer is as it was and the repeat hits all `S`
    ///    again — `(S, 0, 0)`, the stats just returned;
    /// 2. **it evicted nothing** (`evictions == 0`, `capacity > 0`): what
    ///    hit is still resident and what missed was inserted, so every
    ///    demanded element is resident now and the repeat is `(S, 0, 0)`,
    ///    which by rule 1 repeats;
    /// 3. **it hit nothing and is more than a bufferful** (`hits == 0`,
    ///    `S > capacity > 0`): every access appended to the FIFO, which
    ///    therefore holds exactly the last `capacity` elements of the
    ///    stream in stream order. Replayed, the FIFO holds at every access
    ///    the `capacity` elements accessed just before it; they are
    ///    distinct and fewer than `S`, so the element accessed is not one
    ///    of them (it was evicted `S − capacity ≥ 1` accesses ago): it
    ///    misses, evicts the oldest and restores that invariant. The
    ///    repeat is `(0, S, S)` and ends in the same state.
    ///
    /// Rule 3 is false for a stream with a duplicate — `[1, 2, 3, 1]`
    /// through a capacity of 2 ends holding `{3, 1}`, and its repeat hits
    /// the leading `1` — which is why all of this keys on the seal, whose
    /// producer promises distinctness, and never on content. Rules 1 and 2
    /// would hold for any stream; they wait for a seal only because the
    /// seal is what says "the same stream" without a copy to compare.
    ///
    /// An unsealed stream, another seal, or a walk that reached no fixed
    /// point goes through the one walk below, whose result arms the rules
    /// afresh; [`RunBuffer::install`], [`RunBuffer::epoch_with_misses`],
    /// [`RunBuffer::clear`] and [`RunBuffer::reset`] forget. Nothing is
    /// keyed or evicted and nothing is approximate: one seal and one
    /// `EpochStats` are all that is remembered.
    pub fn epoch(&mut self, demand: &AddrRuns) -> EpochStats {
        let seal = demand.seal();
        if seal != 0 && seal == self.repeat_seal {
            #[cfg(debug_assertions)]
            assert!(
                self.repeat_stream == *demand,
                "seal {seal} arrived on a stream other than the one it sealed"
            );
            return self.repeat_stats;
        }
        let mut stats = EpochStats::default();
        for run in demand.iter_runs() {
            self.epoch_run(run, &mut stats, None);
        }
        self.walked += 1;
        self.forget_repeat();
        if seal != 0 {
            #[cfg(debug_assertions)]
            self.assert_distinct(demand);
            let elements = demand.element_count();
            let repeat = if stats.misses == 0 || (self.capacity > 0 && stats.evictions == 0) {
                Some(EpochStats {
                    hits: elements,
                    ..EpochStats::default()
                })
            } else if stats.hits == 0 && self.capacity > 0 && elements > self.capacity {
                Some(EpochStats {
                    hits: 0,
                    misses: elements,
                    evictions: elements,
                })
            } else {
                None
            };
            if let Some(repeat) = repeat {
                self.repeat_seal = seal;
                self.repeat_stats = repeat;
                #[cfg(debug_assertions)]
                self.repeat_stream.copy_from(demand);
            }
        }
        stats
    }

    /// Epochs [`RunBuffer::epoch`] has walked run by run — every epoch but
    /// the fixed-point repeats — since `new` or [`RunBuffer::reset`]. A
    /// test hook that pins how often the shortcut is taken.
    #[doc(hidden)]
    pub fn walked_epochs(&self) -> u64 {
        self.walked
    }

    /// Panics unless the runs of a sealed stream are pairwise disjoint,
    /// which is what its producer promised.
    #[cfg(debug_assertions)]
    fn assert_distinct(&mut self, demand: &AddrRuns) {
        let spans = &mut self.distinct_scratch;
        spans.clear();
        spans.extend(demand.iter_runs().map(|run| (run.start, run.end())));
        spans.sort_unstable();
        for pair in spans.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "sealed stream repeats an address: runs {:?} and {:?} overlap",
                pair[0],
                pair[1]
            );
        }
    }

    /// Forgets the fixed point: called by everything that can change the
    /// working set, a walk in `epoch` included (which may then arm anew).
    fn forget_repeat(&mut self) {
        self.repeat_seal = 0;
    }

    /// Like [`RunBuffer::epoch`], but appends the missed address runs (in
    /// fetch order) to `misses`. Always walks — the miss runs are the
    /// point — and forgets any fixed point `epoch` had reached.
    pub fn epoch_with_misses(&mut self, demand: &AddrRuns, misses: &mut AddrRuns) -> EpochStats {
        self.forget_repeat();
        let mut stats = EpochStats::default();
        for run in demand.iter_runs() {
            self.epoch_run(run, &mut stats, Some(misses));
        }
        stats
    }

    fn epoch_run(
        &mut self,
        run: AddrRun,
        stats: &mut EpochStats,
        mut misses: Option<&mut AddrRuns>,
    ) {
        let end = run.end();
        // Fast path: the whole run fits without eviction, so the alternating
        // hit/miss spans never change under insertion — classify and insert
        // in one fused probe instead of re-querying per span.
        if self.capacity > 0 && self.resident.len().saturating_add(run.len) <= self.capacity {
            let mut missed = 0;
            let queue = &mut self.queue;
            self.resident.insert_with_gaps(run.start, end, |s, e| {
                missed += e - s;
                if let Some(misses) = misses.as_deref_mut() {
                    misses.push(s, e - s);
                }
                queue.push_back(AddrRun {
                    start: s,
                    len: e - s,
                });
            });
            stats.misses += missed;
            stats.hits += run.len - missed;
            return;
        }
        let mut pos = run.start;
        // Walk the run in alternating resident/missing spans. Residency is
        // re-queried per span because an insert can evict addresses later
        // in this same run.
        while pos < end {
            if let Some((_, span_end)) = self.resident.span_at(pos) {
                let hit_end = span_end.min(end);
                stats.hits += hit_end - pos;
                pos = hit_end;
            } else {
                let miss_end = self
                    .resident
                    .first_start_at_or_after(pos)
                    .map_or(end, |s| s.min(end));
                stats.misses += miss_end - pos;
                if let Some(misses) = misses.as_deref_mut() {
                    misses.push(pos, miss_end - pos);
                }
                if self.capacity > 0 {
                    stats.evictions += self.insert_segment(pos, miss_end - pos);
                }
                pos = miss_end;
            }
        }
    }

    /// Installs the runs into the working set *without* miss accounting —
    /// models write-allocation (an output produced on-chip is resident
    /// without ever being fetched). Evicts FIFO-oldest data as needed;
    /// returns the number of evictions.
    pub fn install(&mut self, runs: &AddrRuns) -> u64 {
        self.forget_repeat();
        if self.capacity == 0 {
            return 0;
        }
        let mut evictions = 0;
        for run in runs.iter_runs() {
            let end = run.end();
            // Same no-eviction fast path as `epoch_run`.
            if self.resident.len().saturating_add(run.len) <= self.capacity {
                let queue = &mut self.queue;
                self.resident.insert_with_gaps(run.start, end, |s, e| {
                    queue.push_back(AddrRun {
                        start: s,
                        len: e - s,
                    });
                });
                continue;
            }
            let mut pos = run.start;
            while pos < end {
                if let Some((_, span_end)) = self.resident.span_at(pos) {
                    pos = span_end.min(end);
                } else {
                    let miss_end = self
                        .resident
                        .first_start_at_or_after(pos)
                        .map_or(end, |s| s.min(end));
                    evictions += self.insert_segment(pos, miss_end - pos);
                    pos = miss_end;
                }
            }
        }
        evictions
    }

    /// Inserts a segment known to be non-resident, then evicts FIFO-oldest
    /// data down to capacity. Returns evictions. Batch semantics equal the
    /// element loop: inserting L elements into a buffer holding R evicts
    /// `max(0, R + L - capacity)` oldest elements either way.
    fn insert_segment(&mut self, start: u64, len: u64) -> u64 {
        self.resident.insert(start, start + len);
        self.queue.push_back(AddrRun { start, len });
        let mut evicted = 0;
        while self.resident.len() > self.capacity {
            let excess = self.resident.len() - self.capacity;
            let front = self.queue.front_mut().expect("queue tracks residency");
            let take = front.len.min(excess);
            self.resident
                .remove_covered(front.start, front.start + take);
            evicted += take;
            if take == front.len {
                self.queue.pop_front();
            } else {
                front.start += take;
                front.len -= take;
            }
        }
        evicted
    }

    /// Drops all resident data (e.g. between layers).
    pub fn clear(&mut self) {
        self.forget_repeat();
        self.resident.clear();
        self.queue.clear();
    }

    /// Re-purposes this buffer for a new simulation: empties the working
    /// set (keeping allocations) and adopts a new capacity. The pooling
    /// hook used by [`crate::BufferPool`].
    pub fn reset(&mut self, capacity_elems: u64) {
        self.capacity = capacity_elems;
        self.walked = 0;
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs_of(elems: &[u64]) -> AddrRuns {
        elems.iter().copied().collect()
    }

    #[test]
    fn run_buffer_zero_capacity_always_misses() {
        let mut buf = RunBuffer::new(0);
        let stats = buf.epoch(&runs_of(&[1, 2, 3]));
        assert_eq!(stats.misses, 3);
        assert_eq!(buf.resident_count(), 0);
        assert_eq!(buf.install(&runs_of(&[7])), 0);
        assert!(!buf.contains(7));
    }

    fn sealed(elems: &[u64]) -> AddrRuns {
        let mut runs = runs_of(elems);
        runs.seal_distinct();
        runs
    }

    /// The stream of the fixed-point tests, `S = 12` in two runs, and one
    /// `(capacity, pre-state)` per way its first epoch can end: all hits
    /// (rule 1), no eviction (rule 2), all misses of more than a bufferful
    /// (rule 3), and hits, misses and evictions mixed (no fixed point).
    const STREAM: [u64; 12] = [10, 11, 12, 13, 14, 15, 40, 41, 42, 43, 44, 45];
    const FIXED_POINT_CASES: [(u64, &[u64]); 4] = [
        (64, &STREAM),
        (64, &[]),
        (5, &[]),
        (
            12,
            &[10, 11, 12, 13, 100, 101, 102, 103, 104, 105, 106, 107],
        ),
    ];

    #[test]
    fn a_stream_of_exactly_a_bufferful_is_rule_two_not_rule_three() {
        // S == capacity: all-miss, then all-hit. Rule 3 (`S > capacity`)
        // would answer all-miss for ever.
        let mut rb = RunBuffer::new(STREAM.len() as u64);
        let stream = sealed(&STREAM);
        assert_eq!(rb.epoch(&stream).misses, 12);
        assert_eq!(rb.epoch(&stream).hits, 12);
        assert_eq!(rb.walked_epochs(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sealed stream repeats an address")]
    fn sealing_a_stream_with_a_duplicate_is_caught_where_tests_run() {
        RunBuffer::new(2).epoch(&sealed(&[1, 2, 3, 1]));
    }

    #[test]
    fn epoch_with_misses_walks_a_sealed_repeat() {
        // The caller wants the miss runs, which no remembered stats hold.
        let mut rb = RunBuffer::new(5);
        let stream = sealed(&STREAM);
        rb.epoch(&stream);
        assert_eq!(rb.epoch(&stream).misses, 12);
        let mut misses = AddrRuns::new();
        assert_eq!(rb.epoch_with_misses(&stream, &mut misses).misses, 12);
        assert_eq!(misses, stream);
    }

    #[test]
    fn every_other_way_into_the_buffer_forgets_the_fixed_point() {
        // Whatever happens between two epochs of the sealed stream, the
        // buffer fed sealed streams and its twin fed unsealed copies (which
        // takes the walk every time) agree epoch for epoch.
        let interruptions: [fn(&mut RunBuffer); 6] = [
            |buf| {
                buf.install(&runs_of(&[10, 11, 200, 201, 202]));
            },
            |buf| {
                buf.epoch_with_misses(&runs_of(&[12, 13, 200, 201]), &mut AddrRuns::new());
            },
            |buf| buf.clear(),
            |buf| buf.reset(7),
            |buf| {
                buf.epoch(&sealed(&[13, 14, 15, 16, 17, 18, 300, 301]));
            },
            |buf| {
                buf.epoch(&runs_of(&[44, 45, 46, 47, 400]));
            },
        ];
        let sealed_stream = sealed(&STREAM);
        let plain_stream = runs_of(&STREAM);
        for (capacity, pre) in FIXED_POINT_CASES {
            for (which, interrupt) in interruptions.iter().enumerate() {
                for position in 0..5 {
                    let mut fast = RunBuffer::new(capacity);
                    let mut walked = RunBuffer::new(capacity);
                    fast.epoch(&runs_of(pre));
                    walked.epoch(&runs_of(pre));
                    for epoch in 0..5 {
                        if epoch == position {
                            interrupt(&mut fast);
                            interrupt(&mut walked);
                        }
                        assert_eq!(
                            fast.epoch(&sealed_stream),
                            walked.epoch(&plain_stream),
                            "capacity {capacity}, interruption {which} before epoch {epoch}"
                        );
                        assert_eq!(fast.resident_count(), walked.resident_count());
                        for addr in (0..120).chain(195..205).chain(295..305) {
                            assert_eq!(fast.contains(addr), walked.contains(addr));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn run_buffer_clear_empties_the_working_set() {
        let mut buf = RunBuffer::new(10);
        buf.epoch(&runs_of(&[0, 1, 2]));
        buf.clear();
        assert_eq!(buf.resident_count(), 0);
        assert_eq!(buf.epoch(&runs_of(&[0, 1, 2])).misses, 3);
    }
}
