//! DRAM trace export — the "DRAM R/W" CSV output of Fig. 2.
//!
//! The original tool emits, besides the SRAM traces, a prefetch trace for
//! each operand: which addresses cross the interface and when. In the
//! double-buffered model a fold's misses are prefetched during the previous
//! fold's compute window, at a fixed number of addresses per cycle from the
//! window's first cycle on; writes stream out the same way during the fold
//! itself. This module reconstructs those schedules from the same per-fold
//! information [`crate::DramModel`] consumes, and writes them in the
//! original `cycle, addr, addr, …` CSV format.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::runs::AddrRuns;

/// Records the interface schedule and writes DRAM trace CSVs.
///
/// Feed it the same folds (plus the miss runs) the [`crate::DramModel`]
/// sees; it schedules fold *f*'s prefetch into fold *f−1*'s window and the
/// writes into fold *f* itself, expanding the runs to addresses as it
/// writes the rows.
///
/// ```
/// use scalesim_memory::dram_trace::DramTraceWriter;
/// use scalesim_memory::AddrRuns;
///
/// let mut reads = Vec::new();
/// let mut writes = Vec::new();
/// let mut tracer = DramTraceWriter::new(&mut reads, &mut writes);
/// // Fold 0 lasts 4 cycles, misses addresses 10..14, writes 20..22.
/// let misses: AddrRuns = (10..14u64).collect();
/// let outputs: AddrRuns = (20..22u64).collect();
/// tracer.fold(4, &misses, &outputs).unwrap();
/// tracer.finish().unwrap();
/// assert_eq!(reads, b"0,10\n1,11\n2,12\n3,13\n");
/// assert_eq!(writes, b"0,20\n1,21\n");
/// ```
#[derive(Debug)]
pub struct DramTraceWriter<W: Write> {
    reads: W,
    writes: W,
    /// Start cycle of the current fold.
    fold_start: u64,
    /// Duration of the previous fold (the prefetch window).
    prev_duration: Option<u64>,
    folds: u64,
    /// The CSV row being built, kept for its capacity.
    row: String,
}

impl<W: Write> DramTraceWriter<W> {
    /// Creates a writer emitting read traffic to `reads` and write traffic
    /// to `writes`.
    pub fn new(reads: W, writes: W) -> Self {
        DramTraceWriter {
            reads,
            writes,
            fold_start: 0,
            prev_duration: None,
            folds: 0,
            row: String::new(),
        }
    }

    /// Records one fold: its compute `duration`, the addresses it must
    /// fetch (`read_misses`, in fetch order) and the addresses it streams
    /// out (`write_addrs`).
    ///
    /// Fold 0's prefetch is scheduled in a lead-in window *before* cycle 0
    /// (negative time in the original tool; clamped to start at the fold's
    /// own length before its start here, i.e. cycle 0).
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn fold(
        &mut self,
        duration: u64,
        read_misses: &AddrRuns,
        write_addrs: &AddrRuns,
    ) -> io::Result<()> {
        // Prefetch window: the previous fold's span (or a cold-start window
        // of this fold's own length, clamped at cycle 0).
        let window = self.prev_duration.unwrap_or(duration).max(1);
        let window_start = self.fold_start.saturating_sub(window);
        emit_spread(
            &mut self.reads,
            &mut self.row,
            read_misses,
            window_start,
            window,
        )?;
        emit_spread(
            &mut self.writes,
            &mut self.row,
            write_addrs,
            self.fold_start,
            duration.max(1),
        )?;
        self.fold_start += duration;
        self.prev_duration = Some(duration);
        self.folds += 1;
        Ok(())
    }

    /// Flushes and returns the writers.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn finish(mut self) -> io::Result<(W, W)> {
        self.reads.flush()?;
        self.writes.flush()?;
        Ok((self.reads, self.writes))
    }
}

/// Writes the elements of `addrs` as CSV rows `cycle, addr, addr, …`, one
/// row per cycle from `start` on, `ceil(elements / window)` addresses to a
/// row — the smallest fixed rate that fits the stream into the window. The
/// rows are therefore front-loaded, not spread evenly: 10 addresses over a
/// 7-cycle window are five rows of two and the last two cycles move
/// nothing. `row` is scratch.
fn emit_spread<W: Write>(
    out: &mut W,
    row: &mut String,
    addrs: &AddrRuns,
    start: u64,
    window: u64,
) -> io::Result<()> {
    let per_cycle = addrs.element_count().div_ceil(window);
    let mut cycle = start;
    let mut in_row = 0;
    for addr in addrs.iter_elements() {
        if in_row == 0 {
            row.clear();
            write!(row, "{cycle}").expect("writing to a String cannot fail");
        }
        write!(row, ",{addr}").expect("writing to a String cannot fail");
        in_row += 1;
        if in_row == per_cycle {
            row.push('\n');
            out.write_all(row.as_bytes())?;
            cycle += 1;
            in_row = 0;
        }
    }
    if in_row > 0 {
        row.push('\n');
        out.write_all(row.as_bytes())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(addrs: &[u64]) -> AddrRuns {
        addrs.iter().copied().collect()
    }

    fn rows(buf: &[u8]) -> Vec<(u64, Vec<u64>)> {
        String::from_utf8(buf.to_vec())
            .unwrap()
            .lines()
            .map(|l| {
                let mut parts = l.split(',');
                let cycle = parts.next().unwrap().parse().unwrap();
                (cycle, parts.map(|a| a.parse().unwrap()).collect())
            })
            .collect()
    }

    #[test]
    fn cold_start_prefetch_begins_at_zero() {
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        tracer.fold(4, &runs(&[1, 2, 3, 4]), &runs(&[])).unwrap();
        let (reads, _) = tracer.finish().unwrap();
        let rows = rows(&reads);
        assert_eq!(rows[0].0, 0);
        assert_eq!(rows.len(), 4); // one address per cycle over a 4-cycle window
    }

    #[test]
    fn second_fold_prefetches_during_first() {
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        tracer.fold(10, &runs(&[]), &runs(&[])).unwrap();
        tracer.fold(5, &runs(&[100, 101]), &runs(&[])).unwrap();
        let (reads, _) = tracer.finish().unwrap();
        let rows = rows(&reads);
        // Two addresses spread over fold 0's window [0, 10).
        assert!(rows.iter().all(|(c, _)| *c < 10));
        let total: usize = rows.iter().map(|(_, a)| a.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn writes_stream_during_their_own_fold() {
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        tracer.fold(3, &runs(&[]), &runs(&[7, 8, 9])).unwrap();
        tracer.fold(3, &runs(&[]), &runs(&[10])).unwrap();
        let (_, writes) = tracer.finish().unwrap();
        let rows = rows(&writes);
        // Fold 0 writes land in [0, 3); fold 1's single write at cycle 3.
        assert!(rows.iter().take(3).all(|(c, _)| *c < 3));
        assert_eq!(rows.last().unwrap().0, 3);
    }

    #[test]
    fn more_addresses_than_cycles_batches_per_row() {
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        let addrs: AddrRuns = (0..10u64).collect();
        tracer.fold(3, &addrs, &runs(&[])).unwrap();
        let (reads, _) = tracer.finish().unwrap();
        let rows = rows(&reads);
        assert!(rows.len() <= 3);
        let total: usize = rows.iter().map(|(_, a)| a.len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn rows_are_front_loaded_at_a_fixed_rate() {
        // ceil(10 / 7) = 2 a cycle from the window's first cycle: five
        // rows, and cycles 5 and 6 of the window move nothing.
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        let addrs: AddrRuns = (0..10u64).collect();
        tracer.fold(7, &addrs, &runs(&[])).unwrap();
        let (reads, _) = tracer.finish().unwrap();
        assert_eq!(reads, b"0,0,1\n1,2,3\n2,4,5\n3,6,7\n4,8,9\n");
    }

    #[test]
    fn a_row_can_span_several_runs() {
        // Three runs that do not coalesce, seven addresses over a 4-cycle
        // window: two a row, and rows 1 and 2 cross a run boundary.
        let mut misses = AddrRuns::new();
        misses.push(0, 3);
        misses.push(10, 3);
        misses.push(5, 1);
        assert_eq!(misses.run_count(), 3);
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        tracer.fold(4, &misses, &runs(&[])).unwrap();
        let (reads, _) = tracer.finish().unwrap();
        assert_eq!(reads, b"0,0,1\n1,2,10\n2,11,12\n3,5\n");
    }

    #[test]
    fn a_zero_cycle_fold_is_a_one_cycle_window() {
        // Fold 0 takes no time: its traffic is one row each at cycle 0,
        // and it leaves fold 1 a one-cycle prefetch window clamped there.
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        tracer.fold(0, &runs(&[1, 2, 3]), &runs(&[7, 8])).unwrap();
        tracer.fold(2, &runs(&[4, 5]), &runs(&[9])).unwrap();
        let (reads, writes) = tracer.finish().unwrap();
        assert_eq!(reads, b"0,1,2,3\n0,4,5\n");
        assert_eq!(writes, b"0,7,8\n0,9\n");
    }

    #[test]
    fn empty_folds_emit_nothing() {
        let mut tracer = DramTraceWriter::new(Vec::new(), Vec::new());
        tracer.fold(5, &runs(&[]), &runs(&[])).unwrap();
        let (reads, writes) = tracer.finish().unwrap();
        assert!(reads.is_empty());
        assert!(writes.is_empty());
    }
}
