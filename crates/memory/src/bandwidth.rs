//! Windowed bandwidth accounting.
//!
//! Both the SRAM and DRAM reporting paths reduce to the same question: given
//! a sequence of *(window length in cycles, bytes moved in that window)*
//! samples, what are the average and worst-case bytes-per-cycle? The paper's
//! Fig. 11 plots exactly this stall-free *requirement* as partitioning
//! increases.

use serde::{Deserialize, Serialize};

/// Accumulates windowed traffic samples into average / peak bandwidth.
///
/// ```
/// use scalesim_memory::BandwidthProfile;
///
/// let mut bw = BandwidthProfile::new();
/// bw.record(100, 400); // 400 bytes over 100 cycles -> 4 B/cycle
/// bw.record(50, 400);  // 8 B/cycle
/// assert_eq!(bw.peak(), 8.0);
/// assert!((bw.average() - 800.0 / 150.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BandwidthProfile {
    total_bytes: u64,
    total_cycles: u64,
    peak: f64,
    samples: u64,
}

impl BandwidthProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` moved during a window of `cycles` cycles.
    ///
    /// Zero-length windows with traffic are treated as a one-cycle window
    /// (they can occur for degenerate single-cycle folds); zero-traffic
    /// windows still extend the denominator of the average. The totals
    /// saturate at `u64::MAX` rather than wrap.
    pub fn record(&mut self, cycles: u64, bytes: u64) {
        let cycles = if cycles == 0 && bytes > 0 { 1 } else { cycles };
        self.total_bytes = self.total_bytes.saturating_add(bytes);
        self.total_cycles = self.total_cycles.saturating_add(cycles);
        if cycles > 0 {
            let rate = bytes as f64 / cycles as f64;
            if rate > self.peak {
                self.peak = rate;
            }
        }
        self.samples += 1;
    }

    /// Folds another profile into this one (used when aggregating
    /// partitions: bandwidths of concurrent partitions add).
    pub fn merge_concurrent(&mut self, other: &BandwidthProfile) {
        self.total_bytes = self.total_bytes.saturating_add(other.total_bytes);
        // Concurrent streams share the timeline: keep the longer one.
        self.total_cycles = self.total_cycles.max(other.total_cycles);
        self.peak += other.peak;
        self.samples += other.samples;
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total cycles observed.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Number of samples recorded.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Average bytes per cycle over the whole run (0 if no cycles).
    pub fn average(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.total_cycles as f64
        }
    }

    /// Worst single-window bytes per cycle — the stall-free requirement.
    pub fn peak(&self) -> f64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_reports_zero() {
        let bw = BandwidthProfile::new();
        assert_eq!(bw.average(), 0.0);
        assert_eq!(bw.peak(), 0.0);
        assert_eq!(bw.samples(), 0);
    }

    #[test]
    fn peak_tracks_worst_window() {
        let mut bw = BandwidthProfile::new();
        bw.record(10, 10);
        bw.record(10, 100);
        bw.record(10, 50);
        assert_eq!(bw.peak(), 10.0);
        assert_eq!(bw.total_bytes(), 160);
    }

    #[test]
    fn zero_cycle_window_with_traffic_counts_one_cycle() {
        let mut bw = BandwidthProfile::new();
        bw.record(0, 7);
        assert_eq!(bw.peak(), 7.0);
        assert_eq!(bw.total_cycles(), 1);
    }

    #[test]
    fn zero_traffic_window_extends_average_denominator() {
        let mut bw = BandwidthProfile::new();
        bw.record(10, 100);
        bw.record(90, 0);
        assert_eq!(bw.average(), 1.0);
        assert_eq!(bw.peak(), 10.0);
    }

    #[test]
    fn merge_concurrent_adds_bytes_and_peaks() {
        let mut a = BandwidthProfile::new();
        a.record(100, 100);
        let mut b = BandwidthProfile::new();
        b.record(80, 160);
        a.merge_concurrent(&b);
        assert_eq!(a.total_bytes(), 260);
        assert_eq!(a.total_cycles(), 100);
        assert_eq!(a.peak(), 1.0 + 2.0);
    }
}
