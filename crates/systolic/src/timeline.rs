//! Per-cycle array occupancy ("utilization over time").
//!
//! The trace methodology makes cycle-level utilization cheap to recover
//! (Sec. II-C: "The SRAM trace also depicts the number of rows and columns
//! that have valid mapping in each cycle"). For every dataflow, `PE(i, j)`
//! of a fold performs its `T` MACs over the contiguous window
//! `[base + off + i + j, base + off + i + j + T)`, where `off` is `0` for
//! OS and the fill latency `r'` for WS/IS. The number of PEs active at a
//! given cycle is therefore a difference of anti-diagonal counts, which
//! this module evaluates in closed form — no trace replay needed.

use std::collections::BTreeMap;

use scalesim_topology::{Dataflow, MappedDims};

use crate::fold::FoldPlan;
use crate::ArrayShape;

/// Distribution of active-PE counts over a layer's runtime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OccupancyHistogram {
    /// `occupancy → number of cycles spent at that occupancy` (0 included).
    cycles_at: BTreeMap<u64, u64>,
    total_cycles: u64,
}

impl OccupancyHistogram {
    /// Cycles spent at exactly `occupancy` active PEs.
    pub fn cycles_at(&self, occupancy: u64) -> u64 {
        self.cycles_at.get(&occupancy).copied().unwrap_or(0)
    }

    /// The histogram's raw map, ascending by occupancy.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.cycles_at.iter().map(|(&occ, &cyc)| (occ, cyc))
    }

    /// Total cycles covered (the layer's stall-free runtime).
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Highest simultaneous occupancy.
    pub fn peak(&self) -> u64 {
        self.cycles_at.keys().next_back().copied().unwrap_or(0)
    }

    /// Total PE-activity (`Σ occupancy · cycles`) — equals the layer's MAC
    /// count by construction.
    pub fn total_activity(&self) -> u64 {
        self.cycles_at.iter().map(|(&occ, &cyc)| occ * cyc).sum()
    }

    /// Mean occupancy over the runtime.
    pub fn mean(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.total_activity() as f64 / self.total_cycles as f64
        }
    }

    fn add(&mut self, occupancy: u64, cycles: u64) {
        if cycles > 0 {
            *self.cycles_at.entry(occupancy).or_insert(0) += cycles;
            self.total_cycles += cycles;
        }
    }
}

/// Number of `(i, j)` pairs with `0 ≤ i < rows`, `0 ≤ j < cols` and
/// `i + j ≤ s` — the cumulative anti-diagonal count of the wavefront.
fn antidiagonal_cum(rows: u64, cols: u64, s: i64) -> u64 {
    if s < 0 {
        return 0;
    }
    let s = s as u64;
    if s >= rows + cols - 2 {
        return rows * cols;
    }
    // Count pairs with i + j <= s via inclusion-exclusion on the
    // unconstrained triangle minus the parts exceeding each dimension.
    let tri = |n: u64| n * (n + 1) / 2;
    let total = tri(s + 1);
    let over_i = if s >= rows { tri(s + 1 - rows) } else { 0 };
    let over_j = if s >= cols { tri(s + 1 - cols) } else { 0 };
    let over_both = if s + 1 > rows + cols {
        tri(s + 1 - rows - cols)
    } else {
        0
    };
    total - over_i - over_j + over_both
}

/// Computes the occupancy histogram of `dims` on `array` across all folds.
///
/// Runs in `O(Σ_folds (r' + c'))` — it walks wavefront diagonals, not
/// cycles, so even month-long simulated runtimes finish instantly.
///
/// ```
/// use scalesim_systolic::{occupancy_histogram, ArrayShape};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let dims = GemmShape::new(4, 16, 4).project(Dataflow::OutputStationary);
/// let hist = occupancy_histogram(&dims, ArrayShape::square(4));
/// assert_eq!(hist.total_activity(), 4 * 16 * 4); // every MAC accounted
/// assert_eq!(hist.peak(), 16);                   // full array at steady state
/// ```
pub fn occupancy_histogram(dims: &MappedDims, array: ArrayShape) -> OccupancyHistogram {
    let t = dims.temporal as i64;
    let mut hist = OccupancyHistogram::default();
    for fold in FoldPlan::new(dims, array) {
        let ru = fold.rows_used;
        let cu = fold.cols_used;
        let off = match dims.dataflow {
            Dataflow::OutputStationary => 0,
            // WS/IS spend r' fill cycles before the first MAC.
            Dataflow::WeightStationary | Dataflow::InputStationary => ru,
        } as i64;
        // Active PEs at local cycle x: A(x - off) - A(x - off - t), where A
        // is the anti-diagonal cumulative count. The occupancy is constant
        // between wavefront events, which happen at most 2(ru + cu) times.
        let diag_max = (ru + cu - 2) as i64;
        let mut events: Vec<i64> = Vec::with_capacity(2 * (ru + cu) as usize + 2);
        for d in 0..=diag_max {
            events.push(off + d); // wavefront head reaches diagonal d
            events.push(off + d + t); // wavefront tail leaves diagonal d
        }
        events.push(0);
        events.push(fold.duration as i64);
        events.sort_unstable();
        events.dedup();
        let occ_at = |x: i64| -> u64 {
            antidiagonal_cum(ru, cu, x - off) - antidiagonal_cum(ru, cu, x - off - t)
        };
        for pair in events.windows(2) {
            let (start, end) = (pair[0].max(0), pair[1].min(fold.duration as i64));
            if start >= end {
                continue;
            }
            hist.add(occ_at(start), (end - start) as u64);
        }
        // Drain/fill segments beyond the last event (if any) are idle.
        let last = events
            .last()
            .copied()
            .unwrap_or(0)
            .min(fold.duration as i64);
        if last < fold.duration as i64 {
            hist.add(0, (fold.duration as i64 - last) as u64);
        }
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_topology::GemmShape;

    fn brute_force(dims: &MappedDims, array: ArrayShape) -> OccupancyHistogram {
        // Enumerate every PE's activity window per fold, per cycle.
        let t = dims.temporal;
        let mut hist = OccupancyHistogram::default();
        for fold in FoldPlan::new(dims, array) {
            let off = match dims.dataflow {
                Dataflow::OutputStationary => 0,
                _ => fold.rows_used,
            };
            let mut per_cycle = vec![0u64; fold.duration as usize];
            for i in 0..fold.rows_used {
                for j in 0..fold.cols_used {
                    for k in 0..t {
                        let cycle = (off + i + j + k) as usize;
                        if cycle < per_cycle.len() {
                            per_cycle[cycle] += 1;
                        }
                    }
                }
            }
            for occ in per_cycle {
                hist.add(occ, 1);
            }
        }
        hist
    }

    #[test]
    fn matches_brute_force_all_dataflows() {
        for df in Dataflow::ALL {
            for (m, k, n, r, c) in [
                (4u64, 16u64, 4u64, 4u64, 4u64),
                (10, 3, 7, 4, 4),
                (5, 9, 5, 8, 2),
            ] {
                let dims = GemmShape::new(m, k, n).project(df);
                let array = ArrayShape::new(r, c);
                let fast = occupancy_histogram(&dims, array);
                let brute = brute_force(&dims, array);
                assert_eq!(fast, brute, "{df:?} {m}x{k}x{n} on {r}x{c}");
            }
        }
    }

    #[test]
    fn activity_equals_macs_and_horizon_matches() {
        let dims = GemmShape::new(33, 12, 29).project(Dataflow::WeightStationary);
        let array = ArrayShape::new(8, 8);
        let hist = occupancy_histogram(&dims, array);
        assert_eq!(hist.total_activity(), dims.gemm().macs());
        let report = crate::analyze(&dims, array);
        assert_eq!(hist.total_cycles(), report.total_cycles);
        assert!((hist.mean() / (array.macs() as f64) - report.compute_utilization).abs() < 1e-12);
    }

    #[test]
    fn peak_occupancy_reaches_full_tile_when_temporal_is_long() {
        // T >= ru + cu - 1 guarantees a full-array steady state.
        let dims = GemmShape::new(8, 64, 8).project(Dataflow::OutputStationary);
        let hist = occupancy_histogram(&dims, ArrayShape::square(8));
        assert_eq!(hist.peak(), 64);
        assert!(hist.cycles_at(64) > 0);
    }

    #[test]
    fn short_temporal_never_fills_the_array() {
        // T = 1: the wavefront is a single moving anti-diagonal.
        let dims = GemmShape::new(8, 1, 8).project(Dataflow::OutputStationary);
        let hist = occupancy_histogram(&dims, ArrayShape::square(8));
        assert_eq!(hist.peak(), 8); // longest anti-diagonal of an 8x8 grid
    }

    #[test]
    fn antidiagonal_cum_basics() {
        assert_eq!(antidiagonal_cum(3, 3, -1), 0);
        assert_eq!(antidiagonal_cum(3, 3, 0), 1);
        assert_eq!(antidiagonal_cum(3, 3, 1), 3);
        assert_eq!(antidiagonal_cum(3, 3, 2), 6);
        assert_eq!(antidiagonal_cum(3, 3, 3), 8);
        assert_eq!(antidiagonal_cum(3, 3, 4), 9);
        assert_eq!(antidiagonal_cum(3, 3, 100), 9);
        assert_eq!(antidiagonal_cum(1, 5, 2), 3);
    }
}
