//! Trace events and sinks.
//!
//! The trace engines report every SRAM access they generate — cycle plus
//! element address — through a [`TraceSink`]. This is the streaming
//! equivalent of the CSV traces the original tool writes: instead of
//! materializing hundreds of megabytes of trace text, consumers aggregate on
//! the fly. A [`CsvTraceSink`] is provided for compatibility with the
//! original output format (and for debugging small runs).
//!
//! ## Event ordering contract
//!
//! Events are grouped by fold: every event of fold *f* is emitted between
//! `fold_begin(f)` and `fold_end(f)`, and folds arrive in execution order.
//! *Within* a fold, events are emitted stream-major (per operand row /
//! column), **not** sorted by cycle. Sinks that need cycle order (like the
//! CSV writer) buffer one fold and sort; counting sinks do not care.

use std::io::{self, Write};

use serde::{Deserialize, Serialize};

use crate::fold::Fold;

/// Receives the cycle-accurate SRAM access stream from a trace engine.
///
/// All methods have no-op defaults except the four access callbacks, so
/// purpose-built sinks implement only what they consume. `read_a` carries
/// IFMAP-operand reads, `read_b` filter-operand reads, `read_o` partial-sum
/// re-reads (WS/IS contraction folding) and `write_o` output writes.
pub trait TraceSink {
    /// A new fold begins.
    fn fold_begin(&mut self, fold: &Fold) {
        let _ = fold;
    }

    /// Operand-A (IFMAP) SRAM read at `cycle`.
    fn read_a(&mut self, cycle: u64, addr: u64);

    /// Operand-B (filter) SRAM read at `cycle`.
    fn read_b(&mut self, cycle: u64, addr: u64);

    /// Partial-sum SRAM read at `cycle` (accumulation across folds).
    fn read_o(&mut self, cycle: u64, addr: u64) {
        let _ = (cycle, addr);
    }

    /// Output SRAM write at `cycle`.
    fn write_o(&mut self, cycle: u64, addr: u64);

    /// The current fold is complete.
    fn fold_end(&mut self, fold: &Fold) {
        let _ = fold;
    }
}

/// A sink that discards every event — for pure timing runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn read_a(&mut self, _cycle: u64, _addr: u64) {}
    fn read_b(&mut self, _cycle: u64, _addr: u64) {}
    fn write_o(&mut self, _cycle: u64, _addr: u64) {}
}

/// Counts of SRAM accesses by stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SramCounts {
    /// Operand-A (IFMAP) reads.
    pub a_reads: u64,
    /// Operand-B (filter) reads.
    pub b_reads: u64,
    /// Partial-sum re-reads.
    pub o_reads: u64,
    /// Output writes.
    pub o_writes: u64,
}

impl SramCounts {
    /// Total SRAM accesses (reads + writes) — the energy model's input.
    /// Saturates at `u64::MAX`, like each count.
    pub fn total(&self) -> u64 {
        self.reads().saturating_add(self.o_writes)
    }

    /// SRAM reads of all three operands, saturating at `u64::MAX`.
    pub fn reads(&self) -> u64 {
        [self.b_reads, self.o_reads]
            .into_iter()
            .fold(self.a_reads, u64::saturating_add)
    }
}

/// A sink that accumulates access counts and the trace horizon.
#[derive(Debug, Clone, Default)]
pub struct CountingSink {
    counts: SramCounts,
    last_cycle: u64,
    folds_seen: u64,
}

impl CountingSink {
    /// Creates a fresh counting sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated access counts.
    pub fn counts(&self) -> SramCounts {
        self.counts
    }

    /// The largest cycle stamp observed.
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    /// Number of folds observed.
    pub fn folds_seen(&self) -> u64 {
        self.folds_seen
    }

    fn stamp(&mut self, cycle: u64) {
        if cycle > self.last_cycle {
            self.last_cycle = cycle;
        }
    }
}

impl TraceSink for CountingSink {
    fn read_a(&mut self, cycle: u64, _addr: u64) {
        self.counts.a_reads += 1;
        self.stamp(cycle);
    }

    fn read_b(&mut self, cycle: u64, _addr: u64) {
        self.counts.b_reads += 1;
        self.stamp(cycle);
    }

    fn read_o(&mut self, cycle: u64, _addr: u64) {
        self.counts.o_reads += 1;
        self.stamp(cycle);
    }

    fn write_o(&mut self, cycle: u64, _addr: u64) {
        self.counts.o_writes += 1;
        self.stamp(cycle);
    }

    fn fold_end(&mut self, _fold: &Fold) {
        self.folds_seen += 1;
    }
}

/// Writes SCALE-Sim-style CSV traces: one row per cycle,
/// `cycle, addr, addr, …`, in three streams (SRAM reads for IFMAP and
/// filter, SRAM writes for OFMAP; partial-sum re-reads go to the read
/// stream of the OFMAP file prefixed by a `r` marker column).
///
/// Events are buffered per fold in flat vectors and flushed with one
/// stable sort on `fold_end`, restoring the cycle order the original
/// tool's files have. (A flat sort-once buffer replaces an earlier
/// per-event `BTreeMap`: same output bytes — stable sort keeps the
/// within-cycle emission order — without per-event tree rebalancing.)
#[derive(Debug)]
pub struct CsvTraceSink<W: Write> {
    reads: W,
    writes: W,
    /// `(cycle, stream, addr)`: stream 0 = operand A, stream 1 = operand B
    /// and partial-sum re-reads (which share the B half of a row).
    read_events: Vec<(u64, u8, u64)>,
    write_events: Vec<(u64, u64)>,
    error: Option<io::Error>,
}

impl<W: Write> CsvTraceSink<W> {
    /// Creates a CSV sink writing read traffic to `reads` and write traffic
    /// to `writes`. Pass `&mut f` for file writers (generic `W: Write` is
    /// implemented for `&mut W`).
    pub fn new(reads: W, writes: W) -> Self {
        CsvTraceSink {
            reads,
            writes,
            read_events: Vec::new(),
            write_events: Vec::new(),
            error: None,
        }
    }

    /// Finishes the trace, returning the first I/O error encountered (the
    /// sink callbacks themselves are infallible by design — C-DTOR-FAIL).
    pub fn finish(mut self) -> io::Result<(W, W)> {
        self.flush_rows();
        match self.error.take() {
            Some(e) => Err(e),
            None => Ok((self.reads, self.writes)),
        }
    }

    fn flush_rows(&mut self) {
        if self.error.is_some() {
            self.read_events.clear();
            self.write_events.clear();
            return;
        }
        // Stable sorts: rows come out in cycle order with the A addresses
        // before the B/partial-sum addresses, each in emission order —
        // byte-identical to grouping into per-cycle (a, b) vectors.
        self.read_events
            .sort_by_key(|&(cycle, stream, _)| (cycle, stream));
        self.write_events.sort_by_key(|&(cycle, _)| cycle);
        let mut row = String::new();
        let mut read_events = std::mem::take(&mut self.read_events);
        for group in read_events.chunk_by(|a, b| a.0 == b.0) {
            row.clear();
            row.push_str(&format!("{}", group[0].0));
            for &(_, _, addr) in group {
                row.push_str(&format!(",{addr}"));
            }
            row.push('\n');
            if let Err(e) = self.reads.write_all(row.as_bytes()) {
                self.error = Some(e);
                self.write_events.clear();
                return;
            }
        }
        read_events.clear();
        self.read_events = read_events;
        let mut write_events = std::mem::take(&mut self.write_events);
        for group in write_events.chunk_by(|a, b| a.0 == b.0) {
            row.clear();
            row.push_str(&format!("{}", group[0].0));
            for &(_, addr) in group {
                row.push_str(&format!(",{addr}"));
            }
            row.push('\n');
            if let Err(e) = self.writes.write_all(row.as_bytes()) {
                self.error = Some(e);
                return;
            }
        }
        write_events.clear();
        self.write_events = write_events;
    }
}

impl<W: Write> TraceSink for CsvTraceSink<W> {
    fn read_a(&mut self, cycle: u64, addr: u64) {
        self.read_events.push((cycle, 0, addr));
    }

    fn read_b(&mut self, cycle: u64, addr: u64) {
        self.read_events.push((cycle, 1, addr));
    }

    fn read_o(&mut self, cycle: u64, addr: u64) {
        // Partial-sum re-reads appear in the read trace alongside operands.
        self.read_events.push((cycle, 1, addr));
    }

    fn write_o(&mut self, cycle: u64, addr: u64) {
        self.write_events.push((cycle, addr));
    }

    fn fold_end(&mut self, _fold: &Fold) {
        self.flush_rows();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_count_sums_saturate() {
        // Two saturated read counts summed to 1,022 accesses.
        let huge = SramCounts {
            a_reads: u64::MAX,
            b_reads: u64::MAX,
            o_reads: 0,
            o_writes: 1024,
        };
        assert_eq!(huge.reads(), u64::MAX);
        assert_eq!(huge.total(), u64::MAX);
    }

    fn fold() -> Fold {
        Fold {
            fr: 0,
            fc: 0,
            row_base: 0,
            col_base: 0,
            rows_used: 1,
            cols_used: 1,
            base_cycle: 0,
            duration: 1,
        }
    }

    #[test]
    fn counting_sink_tracks_counts_and_horizon() {
        let mut sink = CountingSink::new();
        sink.fold_begin(&fold());
        sink.read_a(5, 1);
        sink.read_b(3, 2);
        sink.read_o(7, 3);
        sink.write_o(9, 4);
        sink.fold_end(&fold());
        assert_eq!(
            sink.counts(),
            SramCounts {
                a_reads: 1,
                b_reads: 1,
                o_reads: 1,
                o_writes: 1
            }
        );
        assert_eq!(sink.counts().total(), 4);
        assert_eq!(sink.last_cycle(), 9);
        assert_eq!(sink.folds_seen(), 1);
    }

    #[test]
    fn csv_sink_sorts_within_fold_and_formats_rows() {
        let mut sink = CsvTraceSink::new(Vec::new(), Vec::new());
        sink.fold_begin(&fold());
        // Emitted out of cycle order on purpose.
        sink.read_a(2, 20);
        sink.read_a(1, 10);
        sink.read_b(1, 11);
        sink.write_o(3, 30);
        sink.fold_end(&fold());
        let (reads, writes) = sink.finish().unwrap();
        assert_eq!(String::from_utf8(reads).unwrap(), "1,10,11\n2,20\n");
        assert_eq!(String::from_utf8(writes).unwrap(), "3,30\n");
    }

    #[test]
    fn csv_sink_interleaves_streams_in_stable_order() {
        let mut sink = CsvTraceSink::new(Vec::new(), Vec::new());
        sink.fold_begin(&fold());
        // Same cycle across streams: A addresses first, then B and
        // partial-sum re-reads in emission order.
        sink.read_b(4, 40);
        sink.read_o(4, 41);
        sink.read_a(4, 42);
        sink.read_a(4, 43);
        sink.write_o(4, 90);
        sink.write_o(4, 91);
        sink.fold_end(&fold());
        // A second fold flushes separately (rows append after).
        sink.fold_begin(&fold());
        sink.read_a(2, 20);
        sink.fold_end(&fold());
        let (reads, writes) = sink.finish().unwrap();
        assert_eq!(String::from_utf8(reads).unwrap(), "4,42,43,40,41\n2,20\n");
        assert_eq!(String::from_utf8(writes).unwrap(), "4,90,91\n");
    }

    #[test]
    fn csv_sink_reports_io_errors_on_finish() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("nope"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = CsvTraceSink::new(Failing, Failing);
        sink.read_a(0, 0);
        sink.fold_end(&fold());
        assert!(sink.finish().is_err());
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut sink = NullSink;
        sink.read_a(0, 0);
        sink.read_b(0, 0);
        sink.read_o(0, 0);
        sink.write_o(0, 0);
    }
}
