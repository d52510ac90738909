//! Batch a scale-out sweep through the simulation engine and watch the
//! content-addressed cache absorb the redundancy.
//!
//! The sweep mirrors the paper's Section V methodology: ResNet-50's first
//! layer across monolithic and partitioned configurations, with every job
//! listed twice (as two cooperating users would). The engine runs each
//! distinct configuration once; duplicates are cache hits or single-flight
//! joins.
//!
//! Run with: `cargo run --release --example batch_sweep`

use scalesim_server::{parse_manifest, run_batch, Engine};

fn main() {
    let manifest = "\
# ResNet-50 Conv1 scale-out sweep; every job appears twice.
network=resnet50 layer=Conv1 grid=1x1
network=resnet50 layer=Conv1 grid=2x2
network=resnet50 layer=Conv1 grid=4x4
network=resnet50 layer=Conv1 grid=1x1
network=resnet50 layer=Conv1 grid=2x2
network=resnet50 layer=Conv1 grid=4x4
";
    let jobs = parse_manifest(manifest).expect("manifest parses");
    let engine = Engine::new(4, 64);
    let outcome = run_batch(&engine, &jobs).expect("batch runs");
    engine.shutdown();

    println!("{}", outcome.to_csv());
    for entry in &outcome.entries {
        let grid = entry.job.grid.expect("every manifest line sets a grid");
        println!(
            "grid {grid}: {:>12} cycles  served: {}",
            entry.result.report.total_cycles(),
            entry.served.tag(),
        );
    }
    println!("{}", outcome.summary());
    assert_eq!(outcome.simulations, 3, "each distinct grid simulates once");
}
