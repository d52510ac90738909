//! Cross-checks among the auxiliary models: the sweep API vs raw runs.
//! The stall model's roofline floor is a property of `metamorphic.rs`.

use scalesim::sweep::{summarize_groups, SweepEngine, SweepPlan, SweepWorkload};
use scalesim::{ArrayShape, SimConfig, Simulator};
use scalesim_topology::{networks, Topology};

fn config() -> SimConfig {
    SimConfig::builder()
        .array(ArrayShape::square(16))
        .sram_kb(64, 64, 32)
        .build()
}

#[test]
fn sweep_points_match_individual_runs() {
    let layer = networks::language_model("NCF1").unwrap();
    let base = config();
    let mut plan = SweepPlan::new("ncf1");
    plan.base = base;
    plan.workloads.push(SweepWorkload {
        label: layer.name().to_owned(),
        topology: Topology::from_layers(layer.name(), vec![layer.clone()]),
    });
    plan.budgets.push(1 << 10);
    let points = SweepEngine::default().run(&plan, 2).unwrap().results;
    for p in &points {
        let manual = Simulator::new(SimConfig {
            array: p.spec.array,
            ..base
        })
        .with_grid(p.spec.grid)
        .run_layer(&layer);
        assert_eq!(p.report.layers(), [manual]);
    }
    // The sweet spot is a real point of the sweep.
    let groups = summarize_groups(points.iter().map(|p| (&p.spec, &*p.report)));
    let spot = groups[0].sweet_spot.unwrap();
    assert!(spot < points.len());
}
