//! The unified simulation entry point and its report.

use serde::{Deserialize, Serialize};

use scalesim_memory::AddressMap;
use scalesim_topology::{Dataflow, MappedDims};

use crate::fold::FoldPlan;
use crate::trace::{SramCounts, TraceSink};
use crate::{is_df, os, ws, ArrayShape};

/// Summary of one layer's stall-free execution on a single array.
///
/// Produced by [`simulate`]. All SRAM counts are derived from the same fold
/// schedule that drives the trace engines, so they are exactly the counts a
/// [`crate::CountingSink`] would accumulate (the test suite asserts this).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComputeReport {
    /// The projected workload that was simulated.
    pub dims: MappedDims,
    /// The physical array it ran on.
    pub array: ArrayShape,
    /// Total stall-free runtime in cycles (sum of Eq. 3 over all folds).
    pub total_cycles: u64,
    /// Number of folds executed.
    pub folds: u64,
    /// Useful multiply-accumulate operations (`S_R · S_C · T`).
    pub mac_ops: u64,
    /// SRAM access counts by stream.
    pub sram: SramCounts,
    /// Average fraction of PEs with work mapped, over folds (Fig. 9b-c).
    pub mapping_utilization: f64,
    /// MAC throughput utilization: `mac_ops / (R · C · total_cycles)`.
    pub compute_utilization: f64,
}

/// Runs the cycle-accurate trace engine for `dims` on `array`, streaming
/// every SRAM access into `sink`, and returns the execution summary.
///
/// The engine assumes the array never stalls (SCALE-Sim's "inside-out"
/// model, Section II-C): SRAM always delivers operands on time. Whether the
/// memory system *can* deliver them is answered separately by the DRAM model
/// fed from [`crate::fold_demand_runs`].
///
/// ```
/// use scalesim_systolic::{simulate, ArrayShape, NullSink};
/// use scalesim_memory::{GemmAddressMap, RegionOffsets};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let shape = GemmShape::new(32, 16, 32);
/// let dims = shape.project(Dataflow::WeightStationary);
/// let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
/// let report = simulate(&dims, ArrayShape::square(16), &map, &mut NullSink);
/// assert_eq!(report.folds, 2);
/// assert_eq!(report.mac_ops, 32 * 16 * 32);
/// ```
pub fn simulate<M: AddressMap + ?Sized, S: TraceSink + ?Sized>(
    dims: &MappedDims,
    array: ArrayShape,
    map: &M,
    sink: &mut S,
) -> ComputeReport {
    // Trace generation is the expensive cycle-accurate path (unlike
    // `analyze`, which sweeps call in tight loops and stays uninstrumented).
    let _span = scalesim_telemetry::trace::span_with("systolic_trace", || {
        vec![("dataflow", dims.dataflow.to_string())]
    });
    match dims.dataflow {
        Dataflow::OutputStationary => os::trace(dims, array, map, sink),
        Dataflow::WeightStationary => ws::trace(dims, array, map, sink),
        Dataflow::InputStationary => is_df::trace(dims, array, map, sink),
    }
    analyze(dims, array)
}

/// Computes the [`ComputeReport`] for `dims` on `array` without emitting
/// traces — the counts and cycles are closed-form over the fold schedule,
/// so this is cheap enough to call inside design-space sweeps.
///
/// ```
/// use scalesim_systolic::{analyze, ArrayShape};
/// use scalesim_topology::{Dataflow, GemmShape};
///
/// let dims = GemmShape::new(64, 16, 64).project(Dataflow::OutputStationary);
/// let report = analyze(&dims, ArrayShape::square(32));
/// assert_eq!(report.folds, 4);
/// ```
pub fn analyze(dims: &MappedDims, array: ArrayShape) -> ComputeReport {
    let plan = FoldPlan::new(dims, array);
    let t = dims.temporal;
    // Every count saturates at `u64::MAX` on shapes too large to count; a
    // saturated runtime still lower-bounds the real one.
    let product = |a: u64, b: u64, c: u64| a.saturating_mul(b).saturating_mul(c);
    let mut sram = SramCounts::default();
    // O(1) aggregation: sum per fold-shape class instead of per fold.
    for (count, ru, cu) in plan.shape_classes() {
        let add = |total: &mut u64, x: u64, y: u64| {
            *total = total.saturating_add(product(count, x, y));
        };
        match dims.dataflow {
            Dataflow::OutputStationary => {
                add(&mut sram.a_reads, ru, t);
                add(&mut sram.b_reads, cu, t);
                add(&mut sram.o_writes, ru, cu);
            }
            Dataflow::WeightStationary => {
                add(&mut sram.a_reads, ru, t);
                add(&mut sram.b_reads, ru, cu);
                add(&mut sram.o_writes, t, cu);
            }
            Dataflow::InputStationary => {
                add(&mut sram.a_reads, ru, cu);
                add(&mut sram.b_reads, ru, t);
                add(&mut sram.o_writes, t, cu);
            }
        }
    }
    // WS/IS partial-sum re-reads: every fold with fr > 0 re-reads its
    // t x c' outputs; summed over the last F_R - 1 fold rows that is
    // t x S_C per fold row.
    if dims.dataflow != Dataflow::OutputStationary && plan.fold_rows() > 1 {
        sram.o_reads = product(plan.fold_rows() - 1, t, dims.spatial_cols);
    }
    let total_cycles = plan.total_cycles();
    let folds = plan.fold_count();
    let mac_ops = product(dims.spatial_rows, dims.spatial_cols, t);
    ComputeReport {
        dims: *dims,
        array,
        total_cycles,
        folds,
        mac_ops,
        sram,
        mapping_utilization: plan.mapping_utilization(),
        compute_utilization: mac_ops as f64 / array.macs().saturating_mul(total_cycles) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::CountingSink;
    use scalesim_memory::{GemmAddressMap, RegionOffsets};
    use scalesim_topology::GemmShape;

    fn check_counts_match(m: u64, k: u64, n: u64, rows: u64, cols: u64, df: Dataflow) {
        let shape = GemmShape::new(m, k, n);
        let dims = shape.project(df);
        let map = GemmAddressMap::from_shape(shape, RegionOffsets::default());
        let mut sink = CountingSink::new();
        let report = simulate(&dims, ArrayShape::new(rows, cols), &map, &mut sink);
        assert_eq!(report.sram, sink.counts(), "{df:?} counts diverge");
        assert_eq!(
            report.total_cycles,
            sink.last_cycle() + 1,
            "{df:?} horizon diverges"
        );
        assert_eq!(report.folds, sink.folds_seen());
    }

    #[test]
    fn analytic_counts_match_emitted_traces_all_dataflows() {
        for df in Dataflow::ALL {
            check_counts_match(10, 6, 7, 4, 4, df);
            check_counts_match(4, 4, 4, 4, 4, df);
            check_counts_match(17, 3, 5, 8, 2, df);
            check_counts_match(1, 1, 1, 4, 4, df);
        }
    }

    #[test]
    fn utilization_bounds() {
        let shape = GemmShape::new(10, 6, 7);
        for df in Dataflow::ALL {
            let dims = shape.project(df);
            let r = analyze(&dims, ArrayShape::new(4, 4));
            assert!(r.mapping_utilization > 0.0 && r.mapping_utilization <= 1.0);
            assert!(r.compute_utilization > 0.0 && r.compute_utilization < 1.0);
        }
    }

    #[test]
    fn sram_accesses_per_mac_reflects_reuse() {
        // A bigger array exploits more spatial reuse per SRAM read for the
        // same workload (fewer re-streams due to fewer folds).
        let shape = GemmShape::new(64, 16, 64);
        let dims = shape.project(Dataflow::OutputStationary);
        let per_mac = |r: ComputeReport| r.sram.total() as f64 / r.mac_ops as f64;
        let small = analyze(&dims, ArrayShape::square(8));
        let large = analyze(&dims, ArrayShape::square(64));
        assert_eq!(small.mac_ops, large.mac_ops);
        assert!(per_mac(large) < per_mac(small));
    }

    #[test]
    fn counts_saturate_on_huge_gemms() {
        let array = ArrayShape::square(8);
        for df in Dataflow::ALL {
            let fits = analyze(
                &GemmShape::new(1 << 20, 1 << 20, 1 << 20).project(df),
                array,
            );
            assert_eq!(fits.mac_ops, 1 << 60);
            assert_eq!(fits.folds, 1 << 34);
            assert!(fits.total_cycles < u64::MAX);
            let huge = analyze(
                &GemmShape::new(1 << 40, 1 << 40, 1 << 40).project(df),
                array,
            );
            assert_eq!(huge.mac_ops, u64::MAX, "{df:?}");
            assert_eq!(huge.folds, u64::MAX, "{df:?}");
            assert_eq!(huge.total_cycles, u64::MAX, "{df:?}");
            assert_eq!(huge.sram.a_reads, u64::MAX, "{df:?}");
            assert!(huge.compute_utilization > 0.0 && huge.compute_utilization <= 1.0);
        }
    }

    #[test]
    fn total_cycles_equal_across_dataflows_for_symmetric_shapes() {
        // Eq. 3 is dataflow-independent given (S_R, S_C, T); for a cubic
        // GEMM all three projections coincide.
        let shape = GemmShape::new(12, 12, 12);
        let cycles: Vec<u64> = Dataflow::ALL
            .iter()
            .map(|&df| analyze(&shape.project(df), ArrayShape::square(4)).total_cycles)
            .collect();
        assert_eq!(cycles[0], cycles[1]);
        assert_eq!(cycles[1], cycles[2]);
    }
}
