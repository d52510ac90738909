//! DRAM interface model: prefetch traffic and stall-free bandwidth.
//!
//! SCALE-Sim derives DRAM behaviour from the SRAM traces (Section II-C): the
//! demand of each fold is filtered through the double-buffered SRAMs, and
//! whatever misses must be prefetched over the system interface *before the
//! fold begins* — under double buffering, during the previous fold's compute
//! window. The bandwidth that makes this possible with zero stalls is the
//! paper's "DRAM bandwidth requirement" (Fig. 11).
//!
//! Outputs stream out as they are produced, so write bandwidth is accounted
//! over each fold's own duration. Partial-sum spill (WS/IS folding along the
//! contraction dimension) is filtered through the OFMAP buffer: if the
//! working set of live partials fits, accumulation stays on-chip; misses
//! become DRAM read-modify-write traffic.

use serde::{Deserialize, Serialize};

use crate::arena::BufferPool;
use crate::bandwidth::BandwidthProfile;
use crate::buffer::{EpochStats, RunBuffer};
use crate::runs::AddrRuns;

/// Sizing of one operand SRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OperandBufferSpec {
    /// Buffer size in bytes (e.g. `512 * 1024` for the paper's 512 KB).
    pub size_bytes: u64,
    /// Bytes per element word.
    pub word_bytes: u64,
}

impl OperandBufferSpec {
    /// Creates a spec from a size in kilobytes, the unit Table I uses.
    ///
    /// The byte count saturates: a size of 2^54 KB or more — which a config
    /// file or a `/simulate` body can carry — is `u64::MAX` bytes, the
    /// unbounded buffer such a number means, where the unchecked product
    /// wrapped to a buffer of zero bytes (release) or panicked (debug).
    pub fn from_kb(kb: u64, word_bytes: u64) -> Self {
        OperandBufferSpec {
            size_bytes: kb.saturating_mul(1024),
            word_bytes: word_bytes.max(1),
        }
    }

    /// How many elements the buffer holds.
    pub fn capacity_elems(&self) -> usize {
        (self.size_bytes / self.word_bytes) as usize
    }
}

/// Per-fold interface traffic, returned by [`DramModel::account`] and the
/// walks that end in it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FoldTraffic {
    /// Compute duration of the fold in cycles.
    pub duration: u64,
    /// Operand-A (IFMAP) elements fetched from DRAM for this fold.
    pub a_misses: u64,
    /// Operand-B (filter) elements fetched from DRAM for this fold.
    pub b_misses: u64,
    /// Partial-sum elements that had to round-trip to DRAM.
    pub o_spill_misses: u64,
    /// Total bytes read from DRAM for this fold.
    pub read_bytes: u64,
    /// Total bytes written to DRAM during this fold.
    pub write_bytes: u64,
    /// Read bandwidth this fold requires for stall-free operation
    /// (bytes/cycle over its prefetch window).
    pub required_read_bw: f64,
}

/// Aggregated DRAM interface summary for one simulated layer.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DramSummary {
    /// Total operand-A elements read from DRAM.
    pub reads_a: u64,
    /// Total operand-B elements read from DRAM.
    pub reads_b: u64,
    /// Partial-sum elements re-read from DRAM (spill).
    pub reads_o: u64,
    /// Output elements written to DRAM (every produced value streams out).
    pub writes_o: u64,
    /// Bytes per element used for traffic accounting.
    pub word_bytes: u64,
    /// Read-side bandwidth profile (per prefetch window).
    pub read_bw: BandwidthProfile,
    /// Write-side bandwidth profile (per fold).
    pub write_bw: BandwidthProfile,
    /// Number of folds processed.
    pub folds: u64,
}

impl DramSummary {
    /// Total DRAM read traffic in bytes.
    ///
    /// Byte counts saturate at `u64::MAX`: a `WordBytes` of 2^62, which a
    /// config file or a `/simulate` body can carry, made the unchecked
    /// product wrap to 0 bytes (release) or panic (debug). So does the sum
    /// of the read counts, which can pass `u64::MAX` where each fits.
    pub fn read_bytes(&self) -> u64 {
        self.reads().saturating_mul(self.word_bytes)
    }

    /// DRAM reads of all three operands in elements, saturating at
    /// `u64::MAX`.
    pub fn reads(&self) -> u64 {
        [self.reads_b, self.reads_o]
            .into_iter()
            .fold(self.reads_a, u64::saturating_add)
    }

    /// Total DRAM write traffic in bytes, saturating like
    /// [`DramSummary::read_bytes`].
    pub fn write_bytes(&self) -> u64 {
        self.writes_o.saturating_mul(self.word_bytes)
    }

    /// Total DRAM traffic (reads + writes) in bytes, saturating like
    /// [`DramSummary::read_bytes`].
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes().saturating_add(self.write_bytes())
    }

    /// Total DRAM accesses in elements (for the energy model), saturating
    /// at `u64::MAX` like [`DramSummary::read_bytes`].
    pub fn total_accesses(&self) -> u64 {
        self.reads().saturating_add(self.writes_o)
    }

    /// Combined stall-free bandwidth requirement in bytes/cycle
    /// (peak read window plus peak write window).
    pub fn required_bandwidth(&self) -> f64 {
        self.read_bw.peak() + self.write_bw.peak()
    }

    /// Average interface bandwidth in bytes/cycle.
    pub fn average_bandwidth(&self) -> f64 {
        self.read_bw.average() + self.write_bw.average()
    }

    /// Merges the summary of a *concurrently executing* partition
    /// (scale-out): traffic adds, saturating at `u64::MAX`, and bandwidth
    /// requirements add.
    pub fn merge_concurrent(&mut self, other: &DramSummary) {
        self.reads_a = self.reads_a.saturating_add(other.reads_a);
        self.reads_b = self.reads_b.saturating_add(other.reads_b);
        self.reads_o = self.reads_o.saturating_add(other.reads_o);
        self.writes_o = self.writes_o.saturating_add(other.writes_o);
        self.word_bytes = self.word_bytes.max(other.word_bytes);
        self.read_bw.merge_concurrent(&other.read_bw);
        self.write_bw.merge_concurrent(&other.write_bw);
        self.folds = self.folds.max(other.folds);
    }
}

/// The per-layer DRAM interface model.
///
/// Feed it each fold in execution order via [`DramModel::fold_runs`] — or
/// via [`DramModel::account`], when the fold's miss counts are known
/// without a walk — then call [`DramModel::finish`].
///
/// ```
/// use scalesim_memory::{AddrRuns, DramModel, OperandBufferSpec};
///
/// let spec = OperandBufferSpec::from_kb(1, 1); // 1 KB, 1-byte words
/// let mut dram = DramModel::new(spec, spec, spec);
/// // Fold 0: 100 cycles, touches A[0..100] and B[0..10], writes 5 outputs.
/// let a: AddrRuns = (0..100).collect();
/// let b: AddrRuns = (1000..1010).collect();
/// let writes: AddrRuns = (2000..2005).collect();
/// dram.fold_runs(100, &a, &b, &AddrRuns::new(), &writes);
/// let summary = dram.finish();
/// assert_eq!(summary.reads_a, 100);
/// assert_eq!(summary.writes_o, 5);
/// ```
#[derive(Debug)]
pub struct DramModel {
    a_buf: RunBuffer,
    b_buf: RunBuffer,
    o_buf: RunBuffer,
    word_bytes: u64,
    prev_duration: Option<u64>,
    summary: DramSummary,
    /// Reused across [`DramModel::fold_traced`] calls (clear-don't-drop)
    /// so the traced path allocates per layer, not per fold.
    trace_miss_runs: AddrRuns,
    /// Output installs deferred until the next non-empty spill epoch. The
    /// OFMAP buffer is only observable through spill epochs, so installs
    /// from spill-free folds (all of OS, the first contraction fold of
    /// WS/IS) need never be applied unless a spill arrives later — the
    /// flush replays them in order, so buffer state at every epoch is
    /// identical to eager installation.
    ///
    /// Nothing here caps its length; the producer's labels do. The demand
    /// generator emits one `o_writes` run per fold whose label block ends
    /// where the next fold's begins when the fold's tile is full, so
    /// between flushes this holds at most `fold_rows + fold_cols` runs of
    /// 16 bytes — one per fold row and one per fold of a ragged last row
    /// for a layer that never spills, one per fold column between two
    /// spilling fold rows — not one per fold.
    pending_o: AddrRuns,
}

impl DramModel {
    /// Creates a model with one buffer spec per operand. The word size of
    /// the A-operand spec is used for traffic accounting (all three specs
    /// should agree in practice).
    pub fn new(a: OperandBufferSpec, b: OperandBufferSpec, o: OperandBufferSpec) -> Self {
        Self::with_buffers(
            a,
            RunBuffer::new(a.capacity_elems() as u64),
            RunBuffer::new(b.capacity_elems() as u64),
            RunBuffer::new(o.capacity_elems() as u64),
        )
    }

    /// Like [`DramModel::new`], but draws the operand buffers from `pool`
    /// so repeated simulations reuse grown allocations. Pair with
    /// [`DramModel::finish_into`] to retire them back.
    pub fn new_in(
        a: OperandBufferSpec,
        b: OperandBufferSpec,
        o: OperandBufferSpec,
        pool: &mut BufferPool,
    ) -> Self {
        // Take in reverse of the `finish_into` put order (LIFO pool), so
        // each operand buffer gets its own grown storage back.
        let o_buf = pool.take(o.capacity_elems() as u64);
        let b_buf = pool.take(b.capacity_elems() as u64);
        let a_buf = pool.take(a.capacity_elems() as u64);
        let mut model = Self::with_buffers(a, a_buf, b_buf, o_buf);
        // Reverse of the `finish_into` put order (LIFO pool), so each
        // scratch stream gets its own grown storage back.
        model.trace_miss_runs = pool.take_runs();
        model.pending_o = pool.take_runs();
        model
    }

    fn with_buffers(
        a: OperandBufferSpec,
        a_buf: RunBuffer,
        b_buf: RunBuffer,
        o_buf: RunBuffer,
    ) -> Self {
        DramModel {
            a_buf,
            b_buf,
            o_buf,
            word_bytes: a.word_bytes,
            prev_duration: None,
            summary: DramSummary {
                word_bytes: a.word_bytes,
                ..DramSummary::default()
            },
            trace_miss_runs: AddrRuns::new(),
            pending_o: AddrRuns::new(),
        }
    }

    /// Applies deferred output installs in order. Must run before any
    /// operation that observes OFMAP buffer state.
    fn flush_pending_o(&mut self) {
        if !self.pending_o.is_empty() {
            self.o_buf.install(&self.pending_o);
            self.pending_o.clear();
        }
    }

    /// Processes one fold of run-compressed demand; all buffer traffic is
    /// computed per run, not per element.
    ///
    /// * `duration` — the fold's compute cycles (Eq. 3 of the paper).
    /// * `a_demand` / `b_demand` — the fold's unique operand addresses in
    ///   first-use order.
    /// * `o_spill` — partial-sum addresses this fold must *re-read* to
    ///   accumulate into (empty for OS, and for the first contraction fold
    ///   of WS/IS). A spill that still sits in the OFMAP buffer accumulates
    ///   on-chip; a miss is a DRAM read-back.
    /// * `o_writes` — output addresses produced by this fold (finals or
    ///   partials). They stream to DRAM as produced — the original tool's
    ///   behaviour — and are write-allocated into the OFMAP buffer so later
    ///   spill reads can hit.
    ///
    /// A *sealed* `a_demand` ([`AddrRuns::seal_distinct`]; the demand
    /// generator seals every A stream and promises its addresses distinct)
    /// that repeats the fold before costs O(1) once the IFMAP buffer has
    /// reached a fixed point of it. The fixed points — an epoch that
    /// missed nothing changed nothing (rule 1); one that evicted nothing
    /// (2), or hit nothing and was at most a bufferful (5), left every
    /// demanded element resident; one of more than a bufferful that hit
    /// nothing left the FIFO holding the stream's tail, which the same
    /// distinct stream evicts just ahead of itself for ever (3) — and the
    /// first showing of a stream of at least a bufferful whose first
    /// bufferful is not resident, which misses everywhere and is answered
    /// from a probe of that prefix instead of a walk (4), are proved on
    /// [`RunBuffer::epoch`], which owns the state they are about. This
    /// function knows nothing of seals: an unsealed stream (one collected
    /// from elements, say) is walked, with the same counts.
    pub fn fold_runs(
        &mut self,
        duration: u64,
        a_demand: &AddrRuns,
        b_demand: &AddrRuns,
        o_spill: &AddrRuns,
        o_writes: &AddrRuns,
    ) -> FoldTraffic {
        let a_stats = self.a_buf.epoch(a_demand);
        let b_stats = self.b_buf.epoch(b_demand);
        // Partial sums live in the OFMAP buffer; a spill address that is not
        // resident must be fetched back from DRAM (it was written out
        // earlier when produced). An empty spill epoch observes nothing, so
        // deferred installs only flush when a real probe arrives.
        let o_stats = if o_spill.is_empty() {
            EpochStats::default()
        } else {
            self.flush_pending_o();
            self.o_buf.epoch(o_spill)
        };
        self.pending_o.extend_runs(o_writes);
        self.account(
            duration,
            a_stats.misses,
            b_stats.misses,
            o_stats.misses,
            o_writes.element_count(),
        )
    }

    /// Like [`DramModel::fold_runs`], but also reconstructs the interface
    /// schedule into `tracer` (the "DRAM R/W" trace of Fig. 2): the fold's
    /// miss addresses in fetch order as the read trace, the produced
    /// outputs as the write trace. The streams must carry real addresses —
    /// they are what the trace prints.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the trace writers.
    pub fn fold_traced<W: std::io::Write>(
        &mut self,
        duration: u64,
        a_demand: &AddrRuns,
        b_demand: &AddrRuns,
        o_spill: &AddrRuns,
        o_writes: &AddrRuns,
        tracer: &mut crate::dram_trace::DramTraceWriter<W>,
    ) -> std::io::Result<FoldTraffic> {
        // Miss runs come out in fetch order; expanding them reproduces the
        // element-granular miss sequence exactly (within a missing span the
        // element order is ascending, and spans appear in demand order).
        // The scratch stream persists across folds (clear-don't-drop).
        self.flush_pending_o();
        self.trace_miss_runs.clear();
        let a_stats = self
            .a_buf
            .epoch_with_misses(a_demand, &mut self.trace_miss_runs);
        let b_stats = self
            .b_buf
            .epoch_with_misses(b_demand, &mut self.trace_miss_runs);
        let o_stats = self
            .o_buf
            .epoch_with_misses(o_spill, &mut self.trace_miss_runs);
        tracer.fold(duration, &self.trace_miss_runs, o_writes)?;
        self.o_buf.install(o_writes);
        Ok(self.account(
            duration,
            a_stats.misses,
            b_stats.misses,
            o_stats.misses,
            o_writes.element_count(),
        ))
    }

    /// Accounts one fold of `duration` cycles from its miss counts: the
    /// per-fold entry that [`DramModel::fold_runs`] and
    /// [`DramModel::fold_traced`] end in, for a caller that knows the
    /// counts without walking the buffers, which it leaves untouched.
    /// Folds come in execution order, each once, through one entry or
    /// another. Every count and byte sum saturates at `u64::MAX`.
    pub fn account(
        &mut self,
        duration: u64,
        a_misses: u64,
        b_misses: u64,
        o_spill_misses: u64,
        o_write_count: u64,
    ) -> FoldTraffic {
        let read_elems = a_misses
            .saturating_add(b_misses)
            .saturating_add(o_spill_misses);
        let read_bytes = read_elems.saturating_mul(self.word_bytes);
        let write_bytes = o_write_count.saturating_mul(self.word_bytes);

        // Double buffering: fold f's misses arrive during fold f-1. The
        // first fold's data loads during a cold-start window of its own
        // length (the tool's prefetch lead-in).
        let window = self.prev_duration.unwrap_or(duration);
        self.summary.read_bw.record(window, read_bytes);
        self.summary.write_bw.record(duration, write_bytes);

        let summary = &mut self.summary;
        summary.reads_a = summary.reads_a.saturating_add(a_misses);
        summary.reads_b = summary.reads_b.saturating_add(b_misses);
        summary.reads_o = summary.reads_o.saturating_add(o_spill_misses);
        summary.writes_o = summary.writes_o.saturating_add(o_write_count);
        summary.folds += 1;
        self.prev_duration = Some(duration);

        FoldTraffic {
            duration,
            a_misses,
            b_misses,
            o_spill_misses,
            read_bytes,
            write_bytes,
            required_read_bw: if window > 0 {
                read_bytes as f64 / window as f64
            } else {
                read_bytes as f64
            },
        }
    }

    /// The IFMAP, filter and OFMAP buffers, in that order. A test hook that
    /// pins which of them fragment into the paged form
    /// ([`RunBuffer::is_paged`]).
    #[doc(hidden)]
    pub fn operand_buffers(&self) -> [&RunBuffer; 3] {
        [&self.a_buf, &self.b_buf, &self.o_buf]
    }

    /// Finalizes and returns the layer summary.
    pub fn finish(self) -> DramSummary {
        self.summary
    }

    /// Finalizes the layer summary and retires the operand buffers into
    /// `pool` for the next simulation — the counterpart of
    /// [`DramModel::new_in`].
    pub fn finish_into(self, pool: &mut BufferPool) -> DramSummary {
        pool.put(self.a_buf);
        pool.put(self.b_buf);
        pool.put(self.o_buf);
        pool.put_runs(self.pending_o);
        pool.put_runs(self.trace_miss_runs);
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kb(kb: u64) -> OperandBufferSpec {
        OperandBufferSpec::from_kb(kb, 1)
    }

    /// One `fold_runs` step whose four streams are address ranges (`0..0`
    /// for an empty one), collected element by element and so unsealed.
    fn fold(
        dram: &mut DramModel,
        duration: u64,
        [a, b, o_spill, o_writes]: [std::ops::Range<u64>; 4],
    ) -> FoldTraffic {
        let [a, b, o_spill, o_writes] = [a, b, o_spill, o_writes].map(AddrRuns::from_iter);
        dram.fold_runs(duration, &a, &b, &o_spill, &o_writes)
    }

    #[test]
    fn capacity_from_kb_and_word_size() {
        assert_eq!(
            OperandBufferSpec::from_kb(512, 1).capacity_elems(),
            512 * 1024
        );
        assert_eq!(
            OperandBufferSpec::from_kb(512, 4).capacity_elems(),
            128 * 1024
        );
        // Zero word size is clamped to 1.
        assert_eq!(OperandBufferSpec::from_kb(1, 0).capacity_elems(), 1024);
    }

    #[test]
    fn an_enormous_size_saturates_to_the_unbounded_buffer() {
        // 2^54 KB is 2^64 bytes: the product used to wrap to 0 bytes.
        for kb in [1 << 54, (1 << 54) + 1, u64::MAX] {
            assert_eq!(OperandBufferSpec::from_kb(kb, 1).size_bytes, u64::MAX);
        }
        assert_eq!(
            OperandBufferSpec::from_kb((1 << 54) - 1, 1).size_bytes,
            u64::MAX - 1023
        );
    }

    #[test]
    fn byte_counts_saturate_on_huge_word_sizes() {
        // 4 elements of 2^62 bytes are 2^64 bytes: the products wrapped to 0.
        let huge = OperandBufferSpec::from_kb(64, 1 << 62);
        let mut dram = DramModel::new(huge, huge, huge);
        let t = fold(&mut dram, 10, [0..4, 0..0, 0..0, 0..4]);
        assert_eq!((t.read_bytes, t.write_bytes), (u64::MAX, u64::MAX));
        let t = fold(&mut dram, 10, [4..5, 0..0, 0..0, 0..0]);
        assert_eq!(t.read_bytes, 1 << 62);
        let mut s = dram.finish();
        assert_eq!((s.reads_a, s.writes_o), (5, 4));
        for bytes in [s.read_bytes(), s.write_bytes(), s.total_bytes()] {
            assert_eq!(bytes, u64::MAX);
        }
        assert_eq!(s.read_bw.total_bytes(), u64::MAX);
        s.merge_concurrent(&s.clone());
        assert_eq!(
            (s.read_bw.total_bytes(), s.write_bw.total_bytes()),
            (u64::MAX, u64::MAX)
        );
        assert_eq!(s.total_bytes(), u64::MAX);
    }

    #[test]
    fn cold_start_fetches_everything_once() {
        let mut dram = DramModel::new(kb(64), kb(64), kb(64));
        let t = fold(&mut dram, 10, [0..50, 100..120, 0..0, 200..205]);
        assert_eq!(t.a_misses, 50);
        assert_eq!(t.b_misses, 20);
        assert_eq!(t.read_bytes, 70);
        assert_eq!(t.write_bytes, 5);
        let s = dram.finish();
        assert_eq!(s.reads_a, 50);
        assert_eq!(s.writes_o, 5);
        assert_eq!(s.total_bytes(), 75);
    }

    #[test]
    fn warm_folds_reuse_resident_data() {
        let mut dram = DramModel::new(kb(64), kb(64), kb(64));
        fold(&mut dram, 10, [0..50, 100..120, 0..0, 0..0]);
        let t = fold(&mut dram, 10, [0..50, 100..120, 0..0, 0..0]);
        assert_eq!(t.a_misses + t.b_misses, 0);
        assert_eq!(t.required_read_bw, 0.0);
    }

    #[test]
    fn tiny_buffer_forces_refetch() {
        // 32-element A buffer cannot hold the 50-element working set.
        let tiny = OperandBufferSpec {
            size_bytes: 32,
            word_bytes: 1,
        };
        let mut dram = DramModel::new(tiny, kb(64), kb(64));
        fold(&mut dram, 10, [0..50, 0..0, 0..0, 0..0]);
        let t = fold(&mut dram, 10, [0..50, 0..0, 0..0, 0..0]);
        assert_eq!(t.a_misses, 50, "thrash should refetch all of A");
    }

    #[test]
    fn resident_partials_accumulate_on_chip() {
        let mut dram = DramModel::new(kb(64), kb(64), kb(64));
        // Fold 0 writes 10 partials; they are write-allocated.
        fold(&mut dram, 10, [0..0, 0..0, 0..0, 0..10]);
        // Fold 1 re-reads them: all hit the OFMAP buffer.
        let t = fold(&mut dram, 10, [0..0, 0..0, 0..10, 0..10]);
        assert_eq!(t.o_spill_misses, 0);
        let s = dram.finish();
        assert_eq!(s.reads_o, 0);
        assert_eq!(s.writes_o, 20); // every produced value streams out
    }

    #[test]
    fn evicted_partials_round_trip_to_dram() {
        // OFMAP buffer of 4 elements cannot hold 10 live partials.
        let tiny = OperandBufferSpec {
            size_bytes: 4,
            word_bytes: 1,
        };
        let mut dram = DramModel::new(kb(64), kb(64), tiny);
        fold(&mut dram, 10, [0..0, 0..0, 0..0, 0..10]);
        let t = fold(&mut dram, 10, [0..0, 0..0, 0..10, 0..10]);
        assert!(t.o_spill_misses >= 6, "most partials were evicted");
        let s = dram.finish();
        assert!(s.reads_o >= 6);
    }

    #[test]
    fn bandwidth_requirement_uses_previous_fold_window() {
        let mut dram = DramModel::new(kb(64), kb(64), kb(64));
        // Fold 0: 100 bytes over its own 100-cycle window -> 1 B/c.
        let t0 = fold(&mut dram, 100, [0..100, 0..0, 0..0, 0..0]);
        assert_eq!(t0.required_read_bw, 1.0);
        // Fold 1 needs 200 new bytes prefetched during fold 0's 100 cycles.
        let t1 = fold(&mut dram, 50, [1000..1200, 0..0, 0..0, 0..0]);
        assert_eq!(t1.required_read_bw, 2.0);
        let s = dram.finish();
        assert_eq!(s.read_bw.peak(), 2.0);
    }

    #[test]
    fn fold_traced_matches_untraced_accounting() {
        use crate::dram_trace::DramTraceWriter;
        let mut plain = DramModel::new(kb(1), kb(1), kb(1));
        let mut traced = DramModel::new(kb(1), kb(1), kb(1));
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        let none = AddrRuns::new();
        for step in 0..4u64 {
            let a: AddrRuns = (step * 100..step * 100 + 40).collect();
            let b: AddrRuns = (5000..5020).collect();
            let w: AddrRuns = (9000 + step * 10..9000 + step * 10 + 10).collect();
            let t1 = plain.fold_runs(25, &a, &b, &none, &w);
            let t2 = traced
                .fold_traced(25, &a, &b, &none, &w, &mut tracer)
                .unwrap();
            assert_eq!(t1, t2);
        }
        assert_eq!(plain.finish(), traced.finish());
        let (reads, writes) = tracer.finish().unwrap();
        assert!(!reads.is_empty());
        assert!(!writes.is_empty());
    }

    #[test]
    fn sealed_repeats_survive_interruption_by_any_other_fold() {
        // The model knows nothing of seals, so whatever interrupts a run of
        // sealed repeats — a traced fold, which walks; another sealed
        // stream — it must agree fold for fold with a model fed unsealed
        // copies of the same streams, which is walked every time.
        use crate::dram_trace::DramTraceWriter;
        let stream: AddrRuns = (10..16u64).chain(40..46).collect();
        let other: AddrRuns = (13..19u64).chain(300..302).collect();
        // (A buffer bytes, stream resident beforehand): the first sealed
        // fold is all hits (rule 1), misses without evicting (rule 2),
        // all misses of more than a bufferful (answered by rule 4, its
        // repeats by rule 3).
        for (a_bytes, warm) in [(64, true), (64, false), (5, false)] {
            let spec = |size_bytes| OperandBufferSpec {
                size_bytes,
                word_bytes: 1,
            };
            for interruption in 0..3 {
                for position in 0..5 {
                    let mut fast = DramModel::new(spec(a_bytes), kb(1), kb(1));
                    let mut walked = DramModel::new(spec(a_bytes), kb(1), kb(1));
                    let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
                    let none = AddrRuns::new();
                    if warm {
                        fast.fold_runs(9, &stream, &none, &none, &none);
                        walked.fold_runs(9, &stream, &none, &none, &none);
                    }
                    let mut sealed = stream.clone();
                    sealed.seal_distinct();
                    for fold in 0..5 {
                        if fold == position {
                            let mut interrupt = |model: &mut DramModel, seal: bool| {
                                let a = if interruption == 0 { &stream } else { &other };
                                if interruption < 2 {
                                    model
                                        .fold_traced(9, a, &none, &none, &none, &mut tracer)
                                        .unwrap()
                                } else {
                                    let mut a = a.clone();
                                    if seal {
                                        a.seal_distinct();
                                    }
                                    model.fold_runs(9, &a, &none, &none, &none)
                                }
                            };
                            assert_eq!(interrupt(&mut fast, true), interrupt(&mut walked, false));
                        }
                        assert_eq!(
                            fast.fold_runs(9, &sealed, &none, &none, &none),
                            walked.fold_runs(9, &stream, &none, &none, &none),
                            "{a_bytes} bytes, interruption {interruption} before fold {fold}"
                        );
                    }
                    assert_eq!(fast.finish(), walked.finish());
                }
            }
        }
    }

    #[test]
    fn merge_concurrent_sums_partition_traffic() {
        let mut a = DramModel::new(kb(64), kb(64), kb(64));
        fold(&mut a, 10, [0..10, 0..0, 0..0, 30..32]);
        let mut sa = a.finish();
        let mut b = DramModel::new(kb(64), kb(64), kb(64));
        fold(&mut b, 10, [0..10, 0..0, 0..0, 30..32]);
        let sb = b.finish();
        sa.merge_concurrent(&sb);
        assert_eq!(sa.reads_a, 20);
        assert_eq!(sa.writes_o, 4);
        assert_eq!(sa.read_bw.peak(), 2.0);
    }
}
