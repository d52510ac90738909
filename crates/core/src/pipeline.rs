//! Inter-layer pipelining across partitioned accelerators.
//!
//! SCALE-Sim serializes layers (Section II-E); the paper's related work
//! (Tangram) shows tiled accelerators can instead *pipeline* consecutive
//! layers across tiles. This module models that: the topology is cut into
//! contiguous stages, each stage runs on its own accelerator (an equal
//! slice of the hardware), inputs stream through, and steady-state
//! throughput is set by the slowest stage.
//!
//! Stage assignment uses the classic linear-partitioning dynamic program
//! (minimize the maximum stage cost over contiguous splits), with each
//! layer's simulated cycles as its cost.

use serde::{Deserialize, Serialize};

use scalesim_analytical::PartitionGrid;
use scalesim_topology::Topology;

use crate::config::SimConfig;
use crate::report::LayerReport;
use crate::simulator::Simulator;

/// One pipeline stage: a contiguous run of layers on one accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageReport {
    /// Names of the layers mapped to this stage, in order.
    pub layers: Vec<String>,
    /// The stage's per-input latency (sum of its layers' cycles).
    pub cycles: u64,
}

/// Result of pipelining a topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReport {
    /// The stages, in topology order.
    pub stages: Vec<StageReport>,
    /// Per-input latency of the slowest stage — the pipeline's beat.
    pub bottleneck_cycles: u64,
    /// Latency to fill the pipeline (sum of all stage latencies — also the
    /// single-input end-to-end latency).
    pub fill_cycles: u64,
}

impl PipelineReport {
    /// Total cycles to process `inputs` inputs: fill + (inputs−1) beats.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero.
    pub fn total_cycles(&self, inputs: u64) -> u64 {
        assert!(inputs > 0, "a pipeline processes at least one input");
        self.fill_cycles + (inputs - 1) * self.bottleneck_cycles
    }

    /// Pipeline balance: bottleneck over mean stage latency (1.0 = perfect).
    pub fn imbalance(&self) -> f64 {
        if self.stages.is_empty() {
            return 1.0;
        }
        let mean = self.fill_cycles as f64 / self.stages.len() as f64;
        self.bottleneck_cycles as f64 / mean
    }
}

/// Cuts `costs` into at most `stages` contiguous groups minimizing the
/// maximum group sum (the linear partition problem). Returns the group
/// boundaries as end-exclusive indices (the last is `costs.len()`).
///
/// # Panics
///
/// Panics if `stages` is zero or `costs` is empty.
pub fn balance_stages(costs: &[u64], stages: usize) -> Vec<usize> {
    assert!(stages > 0, "need at least one stage");
    assert!(!costs.is_empty(), "need at least one layer");
    let n = costs.len();
    let k = stages.min(n);
    // prefix[i] = sum of costs[..i]
    let mut prefix = vec![0u64; n + 1];
    for (i, &c) in costs.iter().enumerate() {
        prefix[i + 1] = prefix[i] + c;
    }
    let seg = |a: usize, b: usize| prefix[b] - prefix[a]; // costs[a..b]

    // dp[j][i] = minimal max-stage-cost splitting costs[..i] into j groups.
    let mut dp = vec![vec![u64::MAX; n + 1]; k + 1];
    let mut cut = vec![vec![0usize; n + 1]; k + 1];
    for (i, slot) in dp[1].iter_mut().enumerate().skip(1) {
        *slot = seg(0, i);
    }
    for j in 2..=k {
        for i in j..=n {
            // Last group is costs[m..i]; m ranges over [j-1, i).
            for m in (j - 1)..i {
                let candidate = dp[j - 1][m].max(seg(m, i));
                if candidate < dp[j][i] {
                    dp[j][i] = candidate;
                    cut[j][i] = m;
                }
            }
        }
    }

    // Reconstruct boundaries.
    let mut bounds = vec![0usize; k + 1];
    bounds[k] = n;
    let mut i = n;
    for j in (2..=k).rev() {
        i = cut[j][i];
        bounds[j - 1] = i;
    }
    bounds.remove(0);
    bounds
}

/// Pipelines `topology` over `stages` accelerators, each a copy of `base`
/// running on `grid_per_stage` partitions. Stage boundaries balance the
/// simulated per-layer cycles.
///
/// # Panics
///
/// Panics if `stages` is zero or the topology is empty.
pub fn run_pipeline(
    topology: &Topology,
    base: &SimConfig,
    grid_per_stage: PartitionGrid,
    stages: usize,
) -> PipelineReport {
    assert!(!topology.is_empty(), "cannot pipeline an empty topology");
    let sim = Simulator::new(*base).with_grid(grid_per_stage);
    let reports: Vec<LayerReport> = topology.iter().map(|l| sim.run_layer(l)).collect();
    let costs: Vec<u64> = reports.iter().map(|r| r.total_cycles).collect();
    let bounds = balance_stages(&costs, stages);

    let mut stage_reports = Vec::with_capacity(bounds.len());
    let mut start = 0usize;
    for &end in &bounds {
        let cycles = costs[start..end].iter().sum();
        stage_reports.push(StageReport {
            layers: topology.layers()[start..end]
                .iter()
                .map(|l| l.name().to_owned())
                .collect(),
            cycles,
        });
        start = end;
    }
    let bottleneck_cycles = stage_reports.iter().map(|s| s.cycles).max().unwrap_or(0);
    let fill_cycles = stage_reports.iter().map(|s| s.cycles).sum();
    PipelineReport {
        stages: stage_reports,
        bottleneck_cycles,
        fill_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalesim_systolic::ArrayShape;
    use scalesim_topology::networks;

    #[test]
    fn balance_matches_brute_force_on_small_inputs() {
        fn brute(costs: &[u64], stages: usize) -> u64 {
            // Enumerate all contiguous splits recursively.
            fn go(costs: &[u64], stages: usize) -> u64 {
                if stages == 1 || costs.len() == 1 {
                    return if stages >= costs.len() && stages > 1 {
                        *costs.iter().max().unwrap()
                    } else if stages == 1 {
                        costs.iter().sum()
                    } else {
                        *costs.iter().max().unwrap()
                    };
                }
                (1..costs.len())
                    .map(|cut| {
                        let left: u64 = costs[..cut].iter().sum();
                        left.max(go(&costs[cut..], stages - 1))
                    })
                    .min()
                    .unwrap()
            }
            go(costs, stages.min(costs.len()))
        }
        let cases: [&[u64]; 4] = [
            &[1, 2, 3, 4, 5],
            &[9, 1, 1, 1, 9],
            &[5, 5, 5, 5],
            &[100, 1, 1, 1, 1, 1],
        ];
        for costs in cases {
            for stages in 1..=4 {
                let bounds = balance_stages(costs, stages);
                let mut start = 0;
                let mut worst = 0u64;
                for &end in &bounds {
                    worst = worst.max(costs[start..end].iter().sum());
                    start = end;
                }
                assert_eq!(worst, brute(costs, stages), "{costs:?} @ {stages}");
            }
        }
    }

    #[test]
    fn boundaries_cover_exactly_once() {
        let bounds = balance_stages(&[3, 1, 4, 1, 5, 9, 2, 6], 3);
        assert_eq!(*bounds.last().unwrap(), 8);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn more_stages_than_layers_degenerates_gracefully() {
        let bounds = balance_stages(&[7, 7], 5);
        assert_eq!(bounds, vec![1, 2]);
    }

    #[test]
    fn pipelined_alexnet_beats_serial_on_throughput() {
        let base = SimConfig::builder()
            .array(ArrayShape::square(16))
            .sram_kb(64, 64, 32)
            .build();
        let net = networks::alexnet();
        let pipe = run_pipeline(&net, &base, PartitionGrid::monolithic(), 4);
        assert_eq!(pipe.stages.len(), 4);
        // Single input: pipeline fill == serial latency on the same hw.
        let serial: u64 = Simulator::new(base)
            .run_topology(&net)
            .layers()
            .iter()
            .map(|l| l.total_cycles)
            .sum();
        assert_eq!(pipe.fill_cycles, serial);
        // 100 inputs: the pipeline amortizes to its bottleneck beat, far
        // below 100 serial passes (each stage is its own accelerator).
        let pipelined = pipe.total_cycles(100);
        assert!(pipelined < serial * 100 / 2);
        // Bottleneck bounds: at least fill/stages, at most fill.
        assert!(pipe.bottleneck_cycles >= pipe.fill_cycles / 4);
        assert!(pipe.bottleneck_cycles <= pipe.fill_cycles);
        assert!(pipe.imbalance() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_panics() {
        let report = PipelineReport {
            stages: vec![],
            bottleneck_cycles: 1,
            fill_cycles: 1,
        };
        let _ = report.total_cycles(0);
    }
}
