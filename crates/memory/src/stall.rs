//! Finite-bandwidth stall model.
//!
//! SCALE-Sim proper reports the bandwidth *requirement* for stall-free
//! operation (Fig. 11); the natural follow-on question — asked by the
//! paper's abstract ("performance improvements … within the available DRAM
//! bandwidth") — is what actually happens when the interface provides
//! *less*. This module answers it with a fold-granular pipeline model:
//!
//! * The interface is a single shared bus of `bandwidth` bytes/cycle,
//!   serving transfers in order.
//! * A fold's operand misses must be on chip before it starts (double
//!   buffering lets the transfer overlap the previous fold's compute, but
//!   never its own).
//! * A fold's output writes occupy the bus from the fold's start (outputs
//!   stream out as produced) and delay later prefetches behind them.
//!
//! Over a layer the result is never below either roofline bound: the
//! compute cycles, and the DRAM bytes over the bandwidth.

use serde::{Deserialize, Serialize};

/// Aggregate result of a stall analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StallSummary {
    /// The interface bandwidth assumed, in bytes/cycle.
    pub bandwidth: f64,
    /// Stall-free (infinite-bandwidth) runtime in cycles.
    pub compute_cycles: u64,
    /// Runtime including memory stalls, in cycles.
    pub stalled_cycles: u64,
    /// Cycles lost to the interface (`stalled − compute`).
    pub stall_cycles: u64,
    /// Fraction of the stalled runtime during which the bus moved data.
    pub bus_utilization: f64,
}

impl StallSummary {
    /// Slowdown factor versus stall-free execution (≥ 1).
    pub fn slowdown(&self) -> f64 {
        if self.compute_cycles == 0 {
            1.0
        } else {
            self.stalled_cycles as f64 / self.compute_cycles as f64
        }
    }
}

/// Fold-granular pipeline simulation of a finite-bandwidth interface.
///
/// Feed folds in execution order, then call [`StallModel::finish`].
///
/// ```
/// use scalesim_memory::stall::StallModel;
///
/// let mut model = StallModel::new(1.0); // 1 byte/cycle
/// // A 100-cycle fold needing 300 bytes in: badly bandwidth-bound.
/// model.fold(100, 300, 0);
/// let summary = model.finish();
/// assert!(summary.stalled_cycles >= 300);
/// assert!(summary.slowdown() > 2.9);
/// ```
#[derive(Debug, Clone)]
pub struct StallModel {
    bandwidth: f64,
    /// Time at which the bus finishes its currently queued transfers.
    bus_free: f64,
    /// Time at which the previous fold's compute completes.
    compute_end: f64,
    /// Total bus-busy time.
    bus_busy: f64,
    compute_cycles: u64,
}

impl StallModel {
    /// Creates a model for an interface moving `bandwidth` bytes/cycle.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not finite and positive.
    pub fn new(bandwidth: f64) -> Self {
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive, got {bandwidth}"
        );
        StallModel {
            bandwidth,
            bus_free: 0.0,
            compute_end: 0.0,
            bus_busy: 0.0,
            compute_cycles: 0,
        }
    }

    /// Processes one fold: `duration` stall-free compute cycles,
    /// `read_bytes` of operand misses that must land before it starts, and
    /// `write_bytes` streamed out while it runs.
    pub fn fold(&mut self, duration: u64, read_bytes: u64, write_bytes: u64) {
        let read_time = read_bytes as f64 / self.bandwidth;
        let write_time = write_bytes as f64 / self.bandwidth;
        self.bus_busy += read_time + write_time;

        // Reads queue behind whatever the bus is doing.
        let read_done = self.bus_free + read_time;
        // Compute waits for the previous fold and for its own data.
        let start = self.compute_end.max(read_done);
        self.compute_end = start + duration as f64;
        // Writes stream out from the fold's start; they hold the bus after
        // the reads and cannot begin before the data exists.
        self.bus_free = read_done.max(start) + write_time;
        self.compute_cycles += duration;
    }

    /// Finalizes the analysis.
    pub fn finish(self) -> StallSummary {
        // The run ends when both the array and the bus are done (the last
        // outputs must drain). The epsilon guards integer-valued ends
        // against float round-up (e.g. 200.0000001 from a near-infinite
        // bandwidth divide).
        let end = self.compute_end.max(self.bus_free);
        let stalled_cycles = (end - 1e-6).ceil().max(0.0) as u64;
        StallSummary {
            bandwidth: self.bandwidth,
            compute_cycles: self.compute_cycles,
            stalled_cycles,
            stall_cycles: stalled_cycles.saturating_sub(self.compute_cycles),
            bus_utilization: if end > 0.0 { self.bus_busy / end } else { 0.0 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ample_bandwidth_means_no_stalls_after_cold_start() {
        let mut m = StallModel::new(1e9);
        m.fold(100, 50, 10);
        m.fold(100, 50, 10);
        let s = m.finish();
        // Transfers are effectively instant: runtime == compute.
        assert_eq!(s.stalled_cycles, 200);
        assert_eq!(s.stall_cycles, 0);
        assert_eq!(s.slowdown(), 1.0);
    }

    #[test]
    fn bandwidth_bound_run_tracks_traffic() {
        let mut m = StallModel::new(1.0);
        for _ in 0..4 {
            m.fold(10, 100, 0); // each fold needs 100 cycles of transfers
        }
        let s = m.finish();
        // Bus is the bottleneck: ~400 cycles of transfers dominate 40 of
        // compute.
        assert!(s.stalled_cycles >= 400);
        assert!(s.stalled_cycles < 430);
        assert!(s.bus_utilization > 0.9);
    }

    #[test]
    fn double_buffering_overlaps_prefetch_with_compute() {
        let mut m = StallModel::new(10.0);
        // Each fold: 100 compute cycles, 500 bytes -> 50 cycles of bus.
        // After the cold start the transfers hide under compute.
        m.fold(100, 500, 0);
        m.fold(100, 500, 0);
        m.fold(100, 500, 0);
        let s = m.finish();
        assert_eq!(s.stalled_cycles, 350); // 50 cold start + 3 * 100
        assert_eq!(s.stall_cycles, 50);
    }

    #[test]
    fn writes_delay_subsequent_prefetches() {
        let mut m_no_writes = StallModel::new(1.0);
        m_no_writes.fold(10, 10, 0);
        m_no_writes.fold(10, 10, 0);
        let base = m_no_writes.finish().stalled_cycles;

        let mut m_writes = StallModel::new(1.0);
        m_writes.fold(10, 10, 50);
        m_writes.fold(10, 10, 0);
        let with_writes = m_writes.finish().stalled_cycles;
        assert!(with_writes > base);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_panics() {
        let _ = StallModel::new(0.0);
    }

    #[test]
    fn slowdown_of_empty_run_is_one() {
        let s = StallModel::new(1.0).finish();
        assert_eq!(s.slowdown(), 1.0);
        assert_eq!(s.bus_utilization, 0.0);
    }
}
