//! A rerun of a plan on the same engine, in a test binary of its own: it
//! reads the process-global layer-cache counters, which no other test may
//! move meanwhile.
//!
//! A sweep engine keeps no results between runs. Its second `run` of a
//! plan simulates every distinct point again — duplicates inside the plan
//! are still merged — and every layer of those simulations is answered by
//! the process-wide layer cache, so the rows come back byte for byte and no
//! layer is simulated twice.

use scalesim::sweep::{CsvSink, SweepEngine, SweepPlan};
use scalesim::telemetry_names::LAYER_CACHE_MISSES;

fn layer_cache_misses() -> u64 {
    scalesim_telemetry::global()
        .counter_value(LAYER_CACHE_MISSES, &[])
        .unwrap_or(0)
}

#[test]
fn a_rerun_simulates_every_distinct_point_again_over_the_layer_cache() {
    // Every point twice: the budget is listed twice.
    let plan = SweepPlan::parse(
        "name = warm\nworkload = TF0, TF1\nbudget = 2^10, 2^10\ndataflow = os, auto\n\
         config.IfmapSramSz = 64\nconfig.FilterSramSz = 64\nconfig.OfmapSramSz = 32\n",
    )
    .unwrap();
    let points = plan.expand().unwrap().len() as u64;
    let distinct = plan.space_summary().unwrap().distinct_jobs as u64;
    assert_eq!((points, distinct), (40, 20));

    let engine = SweepEngine::default();
    let run = || {
        let mut sink = CsvSink::new(Vec::new());
        let outcome = engine.run_streaming(&plan, 2, &mut sink).unwrap();
        (outcome, sink.into_inner())
    };
    let (cold, cold_rows) = run();
    assert_eq!(cold.simulations, distinct);
    assert_eq!(cold.cache_hits, points - distinct);

    let misses = layer_cache_misses();
    let (warm, warm_rows) = run();
    assert_eq!(warm_rows, cold_rows, "a rerun changed a row");
    assert_eq!(warm.simulations, distinct);
    assert_eq!(warm.cache_hits, points - distinct);
    assert_eq!(
        layer_cache_misses(),
        misses,
        "a rerun simulated a layer the first run had"
    );
}
