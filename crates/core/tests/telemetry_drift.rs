//! Drift test of the three `telemetry_names` modules (`scalesim`, `sweep`,
//! `explore`): every name one of them declares is rendered by the global
//! registry after one small run, sweep and explore, and is named in
//! DESIGN.md; no series is labeled by a layer name, and none of the series
//! removed for want of a reader comes back. The names are read from the
//! module sources, so a name added without an emitter or a doc fails here.
//! The registry is process-global, so this test has a binary to itself.

use std::fs;
use std::path::{Path, PathBuf};

use scalesim::sweep::SweepPlan;
use scalesim::{
    ExploreBudget, ExploreEngine, ExploreOptions, Layer, SimConfig, Simulator, SweepEngine,
    Topology,
};

fn crate_file(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}

/// The string literals of the `telemetry_names` module in `src/<file>`
/// (constants that re-export another module's name have none).
fn declared_names(file: &str) -> Vec<String> {
    let source = fs::read_to_string(crate_file(&format!("src/{file}"))).unwrap();
    let (_, module) = source
        .split_once("pub mod telemetry_names {")
        .unwrap_or_else(|| panic!("{file} declares no telemetry_names"));
    let (module, _) = module.split_once("\n}").unwrap();
    module
        .lines()
        .filter_map(|line| {
            let (_, literal) = line.trim().strip_prefix("pub const ")?.split_once("= \"")?;
            Some(literal.strip_suffix("\";")?.to_owned())
        })
        .collect()
}

#[test]
fn every_declared_metric_name_is_emitted_and_documented() {
    let names: Vec<String> = ["simulator.rs", "sweep/mod.rs", "explore.rs"]
        .into_iter()
        .flat_map(declared_names)
        .collect();
    assert_eq!(names.len(), 4 + 3 + 3, "{names:?}");

    // A run whose second layer repeats the first one's shape: a
    // layer-cache miss, then a hit.
    let layers = vec![
        Layer::gemm("drift_a", 24, 8, 24),
        Layer::gemm("drift_b", 24, 8, 24),
    ];
    Simulator::new(SimConfig::default()).run_topology(&Topology::from_layers("drift", layers));
    let plan = SweepPlan::parse(
        "name = drift\nworkload = TF1\nbudget = 1024\n\
         config.IfmapSramSz = 64\nconfig.FilterSramSz = 64\nconfig.OfmapSramSz = 32\n",
    )
    .unwrap();
    SweepEngine::default().run(&plan, 2).unwrap();
    let options = ExploreOptions {
        keep_within_pct: 5.0,
        budget: ExploreBudget::Sims(2),
        jobs: 2,
        progress: false,
    };
    ExploreEngine::default().run(&plan, &options).unwrap();

    let rendered = scalesim_telemetry::global().render();
    let design = fs::read_to_string(crate_file("../../DESIGN.md")).unwrap();
    for name in &names {
        assert!(
            rendered.contains(&format!("# TYPE {name} ")),
            "{name} is declared but not rendered:\n{rendered}"
        );
        assert!(
            design.contains(name.as_str()),
            "DESIGN.md never names {name}"
        );
    }
    assert!(!rendered.contains("layer=\""), "{rendered}");
    assert!(!rendered.contains("drift_a"), "{rendered}");
    for removed in [
        "scalesim_sweep_point_seconds",
        "scalesim_sweep_cache_evictions_total",
        "scalesim_sweep_cache_resident_entries",
        "scalesim_exec_tasks_total",
        "scalesim_exec_steals_total",
        "scalesim_explore_stage_seconds",
        "scalesim_explore_frontier_size",
    ] {
        assert!(
            !rendered.contains(removed),
            "{removed} has no reader and is rendered:\n{rendered}"
        );
    }
}
