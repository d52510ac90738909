//! Extension experiment: inter-layer pipelining (Tangram-style).
//!
//! SCALE-Sim serializes layers; tiled accelerators can pipeline them. For
//! AlexNet and ResNet-18 on equal total hardware, this harness compares
//! serial execution on one big partitioned accelerator against a pipeline
//! of S smaller accelerators (the same MACs split S ways), for a stream of
//! 256 inputs. Expected shape: pipelines win on throughput once stages
//! balance, with diminishing returns as the bottleneck stage stops
//! shrinking.
//!
//! The topology is cut into contiguous stages by the linear-partitioning
//! dynamic program (minimize the largest stage cost over contiguous
//! splits), with each layer's simulated cycles as its cost.
//!
//! Run: `cargo run --release -p scalesim-bench --bin ext_pipeline`

use scalesim::sweep::squareish;
use scalesim::{ArrayShape, SimConfig, Simulator};
use scalesim_topology::{networks, Topology};

const INPUTS: u64 = 256;
const TOTAL_MACS: u64 = 1 << 14;

/// Cuts `costs` into at most `stages` contiguous groups minimizing the
/// maximum group sum (the linear partition problem). Returns the group
/// boundaries as end-exclusive indices (the last is `costs.len()`).
///
/// # Panics
///
/// Panics if `stages` is zero or `costs` is empty.
fn balance_stages(costs: &[u64], stages: usize) -> Vec<usize> {
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

/// A topology pipelined over accelerators of one configuration: each
/// stage's per-input latency (the sum of its layers' cycles), in order.
struct Pipeline {
    stage_cycles: Vec<u64>,
}

impl Pipeline {
    /// Pipelines `net` over at most `stages` copies of `config`, with stage
    /// boundaries balancing the simulated per-layer cycles.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is zero or the topology is empty.
    fn new(net: &Topology, config: &SimConfig, stages: usize) -> Self {
        assert!(!net.is_empty(), "cannot pipeline an empty topology");
        let sim = Simulator::new(*config);
        let costs: Vec<u64> = net.iter().map(|l| sim.run_layer(l).total_cycles).collect();
        let mut start = 0;
        let stage_cycles = balance_stages(&costs, stages)
            .into_iter()
            .map(|end| {
                let cycles = costs[start..end].iter().sum();
                start = end;
                cycles
            })
            .collect();
        Pipeline { stage_cycles }
    }

    /// Per-input latency of the slowest stage — the pipeline's beat.
    fn bottleneck_cycles(&self) -> u64 {
        self.stage_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Latency to fill the pipeline: the single-input end-to-end latency.
    fn fill_cycles(&self) -> u64 {
        self.stage_cycles.iter().sum()
    }

    /// Total cycles to process `inputs` inputs: fill + (inputs−1) beats.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero.
    fn total_cycles(&self, inputs: u64) -> u64 {
        assert!(inputs > 0, "a pipeline processes at least one input");
        self.fill_cycles() + (inputs - 1) * self.bottleneck_cycles()
    }

    /// Pipeline balance: bottleneck over mean stage latency (1.0 = perfect).
    fn imbalance(&self) -> f64 {
        let mean = self.fill_cycles() as f64 / self.stage_cycles.len() as f64;
        self.bottleneck_cycles() as f64 / mean
    }
}

fn study(net: &Topology) {
    println!(
        "# Extension: pipelining {} over equal total hardware ({TOTAL_MACS} MACs, {INPUTS} inputs)",
        net.name()
    );
    println!("stages,per_stage_array,bottleneck_cycles,fill_cycles,total_cycles,speedup_vs_serial,imbalance");

    // Serial baseline: all MACs in one (partitioned) accelerator, inputs
    // processed back to back.
    let (ar, ac) = squareish(TOTAL_MACS);
    let serial_cfg = SimConfig::builder().array(ArrayShape::new(ar, ac)).build();
    let serial_once: u64 = Simulator::new(serial_cfg)
        .run_topology(net)
        .layers()
        .iter()
        .map(|l| l.total_cycles)
        .sum();
    let serial_total = serial_once * INPUTS;
    println!(
        "1,{}x{},{serial_once},{serial_once},{serial_total},1.000,1.00",
        ar, ac
    );

    for stages in [2usize, 4, 8] {
        let per_stage = TOTAL_MACS / stages as u64;
        let (sr, sc) = squareish(per_stage);
        let cfg = SimConfig::builder().array(ArrayShape::new(sr, sc)).build();
        let pipe = Pipeline::new(net, &cfg, stages);
        let total = pipe.total_cycles(INPUTS);
        println!(
            "{stages},{}x{},{},{},{},{:.3},{:.2}",
            sr,
            sc,
            pipe.bottleneck_cycles(),
            pipe.fill_cycles(),
            total,
            serial_total as f64 / total as f64,
            pipe.imbalance(),
        );
    }
    println!();
}

fn main() {
    study(&networks::alexnet());
    study(&networks::resnet18());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> SimConfig {
        SimConfig::builder()
            .array(ArrayShape::square(16))
            .sram_kb(64, 64, 32)
            .build()
    }

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
        let base = config();
        let net = networks::alexnet();
        let pipe = Pipeline::new(&net, &base, 4);
        assert_eq!(pipe.stage_cycles.len(), 4);
        // Single input: pipeline fill == serial latency on the same hw.
        let serial: u64 = Simulator::new(base)
            .run_topology(&net)
            .layers()
            .iter()
            .map(|l| l.total_cycles)
            .sum();
        assert_eq!(pipe.fill_cycles(), serial);
        // 100 inputs: the pipeline amortizes to its bottleneck beat, far
        // below 100 serial passes (each stage is its own accelerator).
        let pipelined = pipe.total_cycles(100);
        assert!(pipelined < serial * 100 / 2);
        // Bottleneck bounds: at least fill/stages, at most fill.
        assert!(pipe.bottleneck_cycles() >= pipe.fill_cycles() / 4);
        assert!(pipe.bottleneck_cycles() <= pipe.fill_cycles());
        assert!(pipe.imbalance() >= 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one input")]
    fn zero_inputs_panics() {
        let pipe = Pipeline {
            stage_cycles: vec![1],
        };
        let _ = pipe.total_cycles(0);
    }

    /// Each stage's latency is the sum of the simulator's cycles for a
    /// contiguous run of layers, and the stages cover the topology in order.
    #[test]
    fn pipeline_stage_latencies_match_layer_reports() {
        let net = networks::alexnet();
        let base = config();
        let pipe = Pipeline::new(&net, &base, 3);
        let sim = Simulator::new(base);
        let mut layers = net.iter().map(|l| sim.run_layer(l).total_cycles);
        for &stage in &pipe.stage_cycles {
            let mut sum = layers.next().expect("a stage has a layer");
            while sum < stage {
                sum += layers.next().expect("the stage's layers run out");
            }
            assert_eq!(sum, stage);
        }
        assert_eq!(layers.next(), None);
    }
}
