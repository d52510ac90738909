//! The paper's headline qualitative claims, asserted as tests.
//!
//! These are the "shapes" EXPERIMENTS.md records: each test pins one of the
//! evaluation section's observations so a regression in any model breaks
//! loudly.

use scalesim::{ArrayShape, Dataflow, PartitionGrid, SimConfig, Simulator};
use scalesim_analytical::{best_scaleout, best_scaleup, eq1_unlimited, eq4_scaleup, exact_scaleup};
use scalesim_topology::networks;

/// Sec. III-B: the equation hierarchy. The exact fold schedule equals
/// Eq. 1 when the array covers the workload (the partial fold only pays for
/// the extents it uses), equals Eq. 4 when the workload divides the array
/// exactly, and is upper-bounded by Eq. 4 everywhere (Eq. 4 prices every
/// fold, ragged or not, at the full array size).
#[test]
fn equation_hierarchy() {
    let dims = networks::language_model("TF1")
        .unwrap()
        .shape()
        .project(Dataflow::OutputStationary); // S_R=84, S_C=1024, T=4096
                                              // Oversized array: one partial fold, exact == Eq. 1; Eq. 4 still
                                              // charges the full 128x8192 fill/drain and must exceed both.
    let big = ArrayShape::new(128, 8192);
    assert_eq!(eq1_unlimited(&dims), exact_scaleup(&dims, big));
    assert!(eq4_scaleup(&dims, big) >= eq1_unlimited(&dims));
    // Exactly divisible: Eq. 4 == exact.
    let divisible = ArrayShape::new(84, 128);
    assert_eq!(
        eq4_scaleup(&dims, divisible),
        exact_scaleup(&dims, divisible)
    );
    // Ragged folding: Eq. 4 strictly upper bounds the exact schedule.
    let small = ArrayShape::new(60, 60);
    assert!(eq4_scaleup(&dims, small) > exact_scaleup(&dims, small));
}

/// Fig. 9: runtimes across aspect ratios span a widening range as the MAC
/// budget grows, and the monolithic configurations sit at the slow end of
/// the scale-out space.
#[test]
fn fig9_monolithic_is_never_the_best_point_for_tf0() {
    let dims = networks::language_model("TF0")
        .unwrap()
        .shape()
        .project(Dataflow::OutputStationary);
    for exp in [12u32, 14, 16] {
        let best_mono = best_scaleup(&dims, 1 << exp, 8).cycles;
        let (best_cfg, best_out) = best_scaleout(&dims, 1 << exp, 8);
        assert!(best_out <= best_mono, "2^{exp}");
        assert!(best_cfg.grid.count() != 1, "2^{exp}: TF0 wants partitions");
    }
}

/// Fig. 10: the monolithic-to-partitioned ratio is >= 1 everywhere and
/// grows with scale; language models reach order-tens at 2^16.
#[test]
fn fig10_ratio_grows_with_scale() {
    let mut max_ratio: f64 = 0.0;
    for layer in &networks::language_models() {
        let dims = layer.shape().project(Dataflow::OutputStationary);
        let mut prev = 0.0;
        for exp in [10u32, 13, 16] {
            let up = best_scaleup(&dims, 1 << exp, 8).cycles as f64;
            let (_, out) = best_scaleout(&dims, 1 << exp, 8);
            let ratio = up / out as f64;
            assert!(ratio >= 1.0 - 1e-12, "{} at 2^{exp}", layer.name());
            // Not strictly monotonic for every layer, but never collapsing:
            assert!(
                ratio >= prev * 0.5,
                "{} regressed hard at 2^{exp}",
                layer.name()
            );
            prev = ratio;
            max_ratio = max_ratio.max(ratio);
        }
    }
    assert!(
        max_ratio > 10.0,
        "expected order-tens peak ratio, got {max_ratio:.1}"
    );
}

/// Fig. 11: cycle-accurate sweet-spot trade-off — runtime falls
/// monotonically with partition count while the aggregate stall-free DRAM
/// bandwidth requirement rises.
#[test]
fn fig11_runtime_falls_bandwidth_rises() {
    let layer = networks::language_model("TF0").unwrap();
    let budget_exp = 12u32; // keep the test fast; the harness does 2^18
    let mut prev_cycles = u64::MAX;
    let mut prev_bw = 0.0;
    let mut p = 1u64;
    while (1u64 << budget_exp) / p >= 64 {
        let per = (1u64 << budget_exp) / p;
        let rows = 1u64 << (per.trailing_zeros().div_ceil(2));
        let array = ArrayShape::new(rows, per / rows);
        let grows = 1u64 << (p.trailing_zeros().div_ceil(2));
        let grid = PartitionGrid::new(grows, p / grows);
        let report = Simulator::new(SimConfig::builder().array(array).build())
            .with_grid(grid)
            .run_layer(&layer);
        assert!(
            report.total_cycles <= prev_cycles,
            "runtime should not rise at P={p}"
        );
        assert!(
            report.required_bandwidth() >= prev_bw * 0.9,
            "bandwidth should trend up at P={p}"
        );
        prev_cycles = report.total_cycles;
        prev_bw = report.required_bandwidth();
        p *= 4;
    }
    assert!(prev_bw > 0.0);
}

/// Fig. 12: at small MAC budgets the monolithic configuration is the
/// energy minimum; at large budgets the minimum moves to partitioned
/// configurations.
#[test]
fn fig12_energy_minimum_moves_right_with_scale() {
    let layer = networks::language_model("TF0").unwrap();
    let min_energy_partitions = |budget_exp: u32| -> u64 {
        let mut best = (1u64, f64::INFINITY);
        let mut p = 1u64;
        while (1u64 << budget_exp) / p >= 64 {
            let per = (1u64 << budget_exp) / p;
            let rows = 1u64 << (per.trailing_zeros().div_ceil(2));
            let array = ArrayShape::new(rows, per / rows);
            let grows = 1u64 << (p.trailing_zeros().div_ceil(2));
            let grid = PartitionGrid::new(grows, p / grows);
            let report = Simulator::new(SimConfig::builder().array(array).build())
                .with_grid(grid)
                .run_layer(&layer);
            if report.energy.total() < best.1 {
                best = (p, report.energy.total());
            }
            p *= 4;
        }
        best.0
    };
    let small = min_energy_partitions(8);
    let large = min_energy_partitions(14);
    assert!(
        small <= 4,
        "small budgets should favour few partitions, got {small}"
    );
    assert!(
        large >= small,
        "the energy minimum should move toward more partitions ({small} -> {large})"
    );
}

/// Sec. IV-A: the cost of partitioning is the loss of spatial reuse —
/// total DRAM read traffic grows with partition count for a conv layer.
#[test]
fn partitioning_loses_conv_reuse() {
    let resnet = networks::resnet50();
    let layer = resnet.layer("CB2a_2").unwrap().clone();
    let config = SimConfig::builder()
        .array(ArrayShape::square(16))
        .sram_kb(256, 256, 128)
        .build();
    let mono = Simulator::new(config).run_layer(&layer);
    let split16 = Simulator::new(config)
        .with_grid(PartitionGrid::new(4, 4))
        .run_layer(&layer);
    let reads = |r: &scalesim::LayerReport| r.dram.reads_a + r.dram.reads_b + r.dram.reads_o;
    assert!(reads(&split16) > reads(&mono));
}

/// The energy ordering DRAM >> SRAM >> MAC drives Fig. 12; verify the
/// breakdown surfaces it (DRAM dominates for a bandwidth-hungry config).
#[test]
fn dram_dominates_partitioned_energy() {
    let layer = networks::language_model("DB1").unwrap();
    let report = Simulator::new(SimConfig::builder().array(ArrayShape::square(8)).build())
        .with_grid(PartitionGrid::new(4, 4))
        .run_layer(&layer);
    assert!(report.energy.dram_fraction() > 0.5);
}
