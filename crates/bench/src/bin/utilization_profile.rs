//! Cycle-level array occupancy, rendered as a terminal histogram.
//!
//! Shows why two configurations with the same *average* utilization can
//! behave very differently: a convolution keeps the wavefront full for most
//! of its runtime, while a skinny FC layer on the same array never fills
//! more than one row. This is the data behind the utilization trends of
//! Fig. 9(b-c).
//!
//! The trace methodology makes cycle-level utilization cheap to recover
//! (Sec. II-C: "The SRAM trace also depicts the number of rows and columns
//! that have valid mapping in each cycle"). For every dataflow, `PE(i, j)`
//! of a fold performs its `T` MACs over the contiguous window
//! `[base + off + i + j, base + off + i + j + T)`, where `off` is `0` for
//! OS and the fill latency `r'` for WS/IS. The number of PEs active at a
//! given cycle is therefore a difference of anti-diagonal counts, evaluated
//! here in closed form — no trace replay needed.
//!
//! Run: `cargo run --release -p scalesim-bench --bin utilization_profile`

use std::collections::BTreeMap;

use scalesim::{ArrayShape, Dataflow};
use scalesim_systolic::FoldPlan;
use scalesim_topology::{networks, MappedDims};

/// `occupancy → number of cycles spent at that occupancy` (0 included)
/// over a layer's stall-free runtime.
type Histogram = BTreeMap<u64, u64>;

fn add(hist: &mut Histogram, occupancy: u64, cycles: u64) {
    if cycles > 0 {
        *hist.entry(occupancy).or_insert(0) += cycles;
    }
}

/// Total PE-activity (`Σ occupancy · cycles`) — the layer's MAC count.
fn activity(hist: &Histogram) -> u64 {
    hist.iter().map(|(&occ, &cyc)| occ * cyc).sum()
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

/// The occupancy histogram of `dims` on `array` across all folds.
///
/// Runs in `O(Σ_folds (r' + c'))` — it walks wavefront diagonals, not
/// cycles, so even month-long simulated runtimes finish instantly.
fn occupancy_histogram(dims: &MappedDims, array: ArrayShape) -> Histogram {
    let t = dims.temporal as i64;
    let mut hist = Histogram::new();
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
            add(&mut hist, occ_at(start), (end - start) as u64);
        }
        // Drain/fill segments beyond the last event (if any) are idle.
        let last = events
            .last()
            .copied()
            .unwrap_or(0)
            .min(fold.duration as i64);
        if last < fold.duration as i64 {
            add(&mut hist, 0, (fold.duration as i64 - last) as u64);
        }
    }
    hist
}

fn render(name: &str, dims: &MappedDims, array: ArrayShape) {
    let hist = occupancy_histogram(dims, array);
    let total_cycles: u64 = hist.values().sum();
    let mean = if total_cycles == 0 {
        0.0
    } else {
        activity(&hist) as f64 / total_cycles as f64
    };
    println!(
        "{name} on {array}: {total_cycles} cycles, mean occupancy {mean:.1} PEs ({:.1}% of array), peak {}",
        100.0 * mean / array.macs() as f64,
        hist.keys().next_back().copied().unwrap_or(0),
    );
    // Bucket occupancies into tenths of the array for a compact profile.
    let buckets = 10usize;
    let mut cycles_per_bucket = vec![0u64; buckets + 1];
    for (&occ, &cycles) in &hist {
        let idx = ((occ * buckets as u64) / array.macs()) as usize;
        cycles_per_bucket[idx.min(buckets)] += cycles;
    }
    let max = cycles_per_bucket.iter().copied().max().unwrap_or(1).max(1);
    for (i, &cycles) in cycles_per_bucket.iter().enumerate() {
        if cycles == 0 {
            continue;
        }
        let bar = "#".repeat((cycles * 40 / max).max(1) as usize);
        println!(
            "  {:>3}-{:>3}% busy | {:<40} {:>10} cycles",
            i * 10,
            ((i + 1) * 10).min(100),
            bar,
            cycles
        );
    }
    println!();
}

fn main() {
    let array = ArrayShape::square(32);
    let resnet = networks::resnet50();

    // A mid-network convolution: deep temporal dimension, full steady state.
    let conv = resnet.layer("CB2a_2").unwrap();
    render(
        "CB2a_2 (3x3 conv, OS)",
        &conv.shape().project(Dataflow::OutputStationary),
        array,
    );

    // The FC layer under OS: one output pixel -> a single active row.
    let fc = resnet.layer("FC1000").unwrap();
    render(
        "FC1000 (OS)",
        &fc.shape().project(Dataflow::OutputStationary),
        array,
    );

    // The same FC under WS: the array fills because the contraction
    // dimension maps onto rows instead.
    render(
        "FC1000 (WS)",
        &fc.shape().project(Dataflow::WeightStationary),
        array,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim::{SimConfig, Simulator};
    use scalesim_topology::GemmShape;

    fn brute_force(dims: &MappedDims, array: ArrayShape) -> Histogram {
        // Enumerate every PE's activity window per fold, per cycle.
        let t = dims.temporal;
        let mut hist = Histogram::new();
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
                add(&mut hist, occ, 1);
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
    fn every_mac_is_accounted_and_a_long_contraction_fills_the_array() {
        let dims = GemmShape::new(4, 16, 4).project(Dataflow::OutputStationary);
        let hist = occupancy_histogram(&dims, ArrayShape::square(4));
        assert_eq!(activity(&hist), 4 * 16 * 4);
        assert_eq!(hist.keys().next_back(), Some(&16));
    }

    #[test]
    fn activity_equals_macs_and_horizon_matches() {
        let dims = GemmShape::new(33, 12, 29).project(Dataflow::WeightStationary);
        let array = ArrayShape::new(8, 8);
        let hist = occupancy_histogram(&dims, array);
        assert_eq!(activity(&hist), dims.gemm().macs());
        let report = scalesim_systolic::analyze(&dims, array);
        let total_cycles: u64 = hist.values().sum();
        assert_eq!(total_cycles, report.total_cycles);
        let mean = activity(&hist) as f64 / total_cycles as f64;
        assert!((mean / (array.macs() as f64) - report.compute_utilization).abs() < 1e-12);
    }

    #[test]
    fn peak_occupancy_reaches_full_tile_when_temporal_is_long() {
        // T >= ru + cu - 1 guarantees a full-array steady state.
        let dims = GemmShape::new(8, 64, 8).project(Dataflow::OutputStationary);
        let hist = occupancy_histogram(&dims, ArrayShape::square(8));
        assert_eq!(hist.keys().next_back(), Some(&64));
        assert!(hist[&64] > 0);
    }

    #[test]
    fn short_temporal_never_fills_the_array() {
        // T = 1: the wavefront is a single moving anti-diagonal.
        let dims = GemmShape::new(8, 1, 8).project(Dataflow::OutputStationary);
        let hist = occupancy_histogram(&dims, ArrayShape::square(8));
        // The longest anti-diagonal of an 8x8 grid.
        assert_eq!(hist.keys().next_back(), Some(&8));
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

    /// The histogram agrees with the simulator's own report on every
    /// YOLO-tiny layer: runtime, MAC count and mean utilization.
    #[test]
    fn occupancy_mean_equals_simulator_utilization() {
        let config = SimConfig::builder()
            .array(ArrayShape::square(16))
            .sram_kb(64, 64, 32)
            .build();
        let sim = Simulator::new(config);
        for layer in &networks::yolo_tiny() {
            let report = sim.run_layer(layer);
            let dims = layer.shape().project(Dataflow::OutputStationary);
            let hist = occupancy_histogram(&dims, config.array);
            let total_cycles: u64 = hist.values().sum();
            assert_eq!(total_cycles, report.total_cycles, "{}", layer.name());
            assert_eq!(activity(&hist), report.mac_ops, "{}", layer.name());
            let util = activity(&hist) as f64 / total_cycles as f64 / config.array.macs() as f64;
            assert!(
                (util - report.compute_utilization).abs() < 1e-9,
                "{}",
                layer.name()
            );
        }
    }
}
