//! Simulation reports: per-layer and per-network aggregates.
//!
//! These correspond to the "reports with aggregated metrics" output of the
//! original tool (Section II-E): cycle counts, utilization, bandwidth
//! requirements and total data transfers, plus this implementation's energy
//! breakdown.

use std::fmt;

use serde::{Deserialize, Serialize};

use scalesim_analytical::PartitionGrid;
use scalesim_energy::EnergyBreakdown;
use scalesim_memory::{DramSummary, StallSummary};
use scalesim_systolic::{ArrayShape, SramCounts};

/// Results of simulating one layer on a (possibly partitioned) accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// The layer's tag.
    pub name: String,
    /// Partition grid the layer ran on (1×1 = monolithic).
    pub grid: PartitionGrid,
    /// Per-partition array shape.
    pub array: ArrayShape,
    /// End-to-end stall-free runtime: the slowest partition's cycles.
    pub total_cycles: u64,
    /// Each active partition's runtime, row-major over the grid.
    pub per_partition_cycles: Vec<u64>,
    /// Partitions that received work (≤ `grid.count()`).
    pub active_partitions: u64,
    /// Useful MAC operations across all partitions.
    pub mac_ops: u64,
    /// SRAM accesses summed over partitions.
    pub sram: SramCounts,
    /// DRAM interface summary (traffic summed, bandwidths added across
    /// concurrent partitions).
    pub dram: DramSummary,
    /// Mean occupied-PE fraction over the active partitions' folds.
    pub mapping_utilization: f64,
    /// `mac_ops / (provisioned PEs × total_cycles)` — counts idle
    /// partitions as provisioned, like the energy model does.
    pub compute_utilization: f64,
    /// Energy breakdown for the layer.
    pub energy: EnergyBreakdown,
    /// Finite-bandwidth stall analysis — present when the configuration
    /// sets a DRAM bandwidth, `None` under the stall-free model.
    pub stall: Option<StallSummary>,
}

impl LayerReport {
    /// Total provisioned MAC units (`grid partitions × array size`),
    /// saturating at `u64::MAX`.
    pub fn provisioned_macs(&self) -> u64 {
        self.grid.count().saturating_mul(self.array.macs())
    }

    /// Stall-free DRAM bandwidth requirement in bytes/cycle
    /// (read-peak + write-peak, summed over concurrent partitions).
    pub fn required_bandwidth(&self) -> f64 {
        self.dram.required_bandwidth()
    }

    /// Average DRAM bandwidth in bytes/cycle.
    pub fn average_bandwidth(&self) -> f64 {
        self.dram.average_bandwidth()
    }

    /// Runtime including memory stalls when the stall model ran, else the
    /// stall-free runtime.
    pub fn effective_cycles(&self) -> u64 {
        self.stall
            .map(|s| s.stalled_cycles)
            .unwrap_or(self.total_cycles)
            .max(self.total_cycles)
    }
}

impl fmt::Display for LayerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:>12} cycles  util {:>5.1}%  SRAM {:>12}  DRAM {:>12} B  BW {:>8.2} B/c  E {:>12.0}",
            self.name,
            self.total_cycles,
            self.compute_utilization * 100.0,
            self.sram.total(),
            self.dram.total_bytes(),
            self.required_bandwidth(),
            self.energy.total(),
        )
    }
}

/// Results of simulating a whole topology, layer by layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkReport {
    name: String,
    layers: Vec<LayerReport>,
}

impl NetworkReport {
    /// Assembles a report from per-layer results.
    pub fn new(name: impl Into<String>, layers: Vec<LayerReport>) -> Self {
        NetworkReport {
            name: name.into(),
            layers,
        }
    }

    /// The workload's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-layer reports, in execution order.
    pub fn layers(&self) -> &[LayerReport] {
        &self.layers
    }

    /// Finds a layer report by tag.
    pub fn layer(&self, name: &str) -> Option<&LayerReport> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// The sum of `count` over layers. Every total saturates at
    /// `u64::MAX`, as each layer's counts do.
    fn sum(&self, count: impl Fn(&LayerReport) -> u64) -> u64 {
        self.layers.iter().map(count).fold(0, u64::saturating_add)
    }

    /// Total runtime: layers execute serially, so cycles add.
    pub fn total_cycles(&self) -> u64 {
        self.sum(|l| l.total_cycles)
    }

    /// Total useful MACs.
    pub fn total_macs(&self) -> u64 {
        self.sum(|l| l.mac_ops)
    }

    /// Total DRAM traffic in bytes.
    pub fn total_dram_bytes(&self) -> u64 {
        self.sum(|l| l.dram.total_bytes())
    }

    /// Total runtime including memory stalls where the stall model ran
    /// (layers execute serially, so effective cycles add).
    pub fn total_effective_cycles(&self) -> u64 {
        self.sum(LayerReport::effective_cycles)
    }

    /// Worst per-layer stall-free bandwidth requirement (bytes/cycle).
    pub fn peak_required_bandwidth(&self) -> f64 {
        self.layers
            .iter()
            .map(LayerReport::required_bandwidth)
            .fold(0.0, f64::max)
    }

    /// Total energy across layers.
    pub fn total_energy(&self) -> EnergyBreakdown {
        let mut total = EnergyBreakdown::default();
        for l in &self.layers {
            total.accumulate(&l.energy);
        }
        total
    }

    /// Network-wide compute utilization (MACs over provisioned PE-cycles).
    pub fn overall_utilization(&self) -> f64 {
        let pe_cycles = self
            .layers
            .iter()
            .map(|l| l.provisioned_macs().saturating_mul(l.total_cycles))
            .fold(0, u64::saturating_add);
        if pe_cycles == 0 {
            0.0
        } else {
            self.total_macs() as f64 / pe_cycles as f64
        }
    }

    /// The header row of the CSV serialization, terminated by a newline.
    pub const CSV_HEADER: &'static str =
        "layer,cycles,macs,mapping_util,compute_util,sram_reads,sram_writes,\
         dram_reads,dram_writes,dram_bytes,req_bw_bytes_per_cycle,avg_bw_bytes_per_cycle,\
         energy,stalled_cycles\n";

    /// Serializes the per-layer metrics as CSV (one row per layer), in the
    /// spirit of the original tool's `REPORT.csv`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push_str(&self.csv_rows());
        out
    }

    /// The CSV data rows alone, without [`Self::CSV_HEADER`] — lets callers
    /// (e.g. the batch runner) concatenate rows from several reports into
    /// one file while staying byte-identical to per-report `to_csv` output.
    pub fn csv_rows(&self) -> String {
        let mut out = String::new();
        for l in &self.layers {
            out.push_str(&format!(
                "{},{},{},{:.4},{:.4},{},{},{},{},{},{:.3},{:.3},{:.1},{}\n",
                l.name,
                l.total_cycles,
                l.mac_ops,
                l.mapping_utilization,
                l.compute_utilization,
                l.sram.reads(),
                l.sram.o_writes,
                l.dram.reads(),
                l.dram.writes_o,
                l.dram.total_bytes(),
                l.required_bandwidth(),
                l.average_bandwidth(),
                l.energy.total(),
                l.stall
                    .map(|s| s.stalled_cycles.to_string())
                    .unwrap_or_default(),
            ));
        }
        out
    }
}

impl fmt::Display for NetworkReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "network: {}", self.name)?;
        for layer in &self.layers {
            writeln!(f, "  {layer}")?;
        }
        write!(
            f,
            "  total: {} cycles, {} MACs, {} DRAM bytes, utilization {:.1}%, energy {:.0}",
            self.total_cycles(),
            self.total_macs(),
            self.total_dram_bytes(),
            self.overall_utilization() * 100.0,
            self.total_energy().total(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_layer(name: &str, cycles: u64) -> LayerReport {
        LayerReport {
            name: name.into(),
            grid: PartitionGrid::monolithic(),
            array: ArrayShape::square(8),
            total_cycles: cycles,
            per_partition_cycles: vec![cycles],
            active_partitions: 1,
            mac_ops: cycles * 10,
            sram: SramCounts {
                a_reads: 5,
                b_reads: 5,
                o_reads: 0,
                o_writes: 2,
            },
            dram: DramSummary::default(),
            mapping_utilization: 0.5,
            compute_utilization: 0.25,
            energy: EnergyBreakdown {
                mac: 1.0,
                idle: 2.0,
                sram: 3.0,
                dram: 4.0,
            },
            stall: None,
        }
    }

    #[test]
    fn network_totals_sum_layers() {
        let report = NetworkReport::new("net", vec![dummy_layer("a", 100), dummy_layer("b", 50)]);
        assert_eq!(report.total_cycles(), 150);
        assert_eq!(report.total_macs(), 1500);
        assert_eq!(report.total_energy().total(), 20.0);
        assert!(report.layer("a").is_some());
        assert!(report.layer("z").is_none());
    }

    #[test]
    fn overall_utilization_weights_by_cycles() {
        let report = NetworkReport::new("net", vec![dummy_layer("a", 100)]);
        // 1000 MACs over 64 PEs * 100 cycles.
        assert!((report.overall_utilization() - 1000.0 / 6400.0).abs() < 1e-12);
    }

    #[test]
    fn csv_has_header_and_one_row_per_layer() {
        let report = NetworkReport::new("net", vec![dummy_layer("a", 1), dummy_layer("b", 2)]);
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("layer,cycles"));
    }

    #[test]
    fn display_is_nonempty() {
        let report = NetworkReport::new("net", vec![dummy_layer("a", 1)]);
        let text = report.to_string();
        assert!(text.contains("network: net"));
        assert!(text.contains("total:"));
    }

    #[test]
    fn effective_cycles_prefers_stalled_runtime() {
        let mut layer = dummy_layer("a", 100);
        assert_eq!(layer.effective_cycles(), 100);
        layer.stall = Some(StallSummary {
            bandwidth: 1.0,
            compute_cycles: 100,
            stalled_cycles: 140,
            stall_cycles: 40,
            bus_utilization: 0.5,
        });
        assert_eq!(layer.effective_cycles(), 140);
        let report = NetworkReport::new("net", vec![layer, dummy_layer("b", 50)]);
        assert_eq!(report.total_effective_cycles(), 190);
        assert_eq!(report.total_cycles(), 150);
    }

    #[test]
    fn empty_network_utilization_is_zero() {
        let report = NetworkReport::new("empty", vec![]);
        assert_eq!(report.overall_utilization(), 0.0);
        assert_eq!(report.peak_required_bandwidth(), 0.0);
    }
}
