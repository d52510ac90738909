//! The traced run behind the per-layer metrics: the workload's layer
//! simulations replayed serially at finer grain under the benchmark's own
//! recorder, then the probes. End-to-end metrics never come from here.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use crate::metrics::{self, Metric};
use crate::probes;
use crate::replay::{self, SimCounts};
use crate::run::RunReport;
use crate::stats::{median, percentile, summarize};
use crate::sys;
use crate::trace::{totals_by_name, Recorder, Span};
use crate::workloads::{Scale, Tally, Workload};

/// Replay passes with the recorder on, and as many with it off.
const PASSES: usize = 3;

/// Reconcile ratios outside this band mean the parts do not add up to the
/// whole, and the layer numbers beside them are not to be trusted.
pub const RECONCILED: std::ops::RangeInclusive<f64> = 0.85..=1.15;

/// Where `trace.<workload>.json` goes.
pub fn trace_path(workload: &str) -> std::path::PathBuf {
    sys::bench_dir()
        .join("out")
        .join(format!("trace.{workload}.json"))
}

/// Layer metrics read off the spans of the recorded replay passes.
fn replay_values(
    spans: &[Span],
    cold_ops: &HashSet<u64>,
    counts: SimCounts,
    notes: &mut Vec<String>,
) -> probes::Values {
    let totals = totals_by_name(spans);
    let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    for (name, t) in &totals {
        notes.push(format!(
            "span {name:<28} n={:<7} total {:>10.3} ms  self {:>10.3} ms",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
        ));
    }

    // Facade time of cold layers, and of those among them that were
    // replayed (1x1 grid): op id -> nanoseconds.
    let mut facade: HashMap<u64, f64> = HashMap::new();
    let mut replayed: Vec<u64> = Vec::new();
    for span in spans {
        if span.name == replay::FACADE && cold_ops.contains(&span.op) {
            facade.insert(span.op, span.duration_ns() as f64);
        } else if span.name == replay::REPLAY {
            replayed.push(span.op);
        }
    }
    let cold_us: Vec<f64> = facade.values().map(|ns| ns / 1e3).collect();
    let facade_ns: f64 = replayed.iter().map(|op| facade[op]).sum();
    let parts_ns: f64 = replay::PARTS.iter().map(|name| total_ns(name)).sum();
    let reconcile = parts_ns / facade_ns;
    if !RECONCILED.contains(&reconcile) {
        notes.push(format!(
            "UNRECONCILED core.reconcile_layer_ratio {reconcile:.3}: the systolic.*, memory.* and \
             core.facade_overhead figures of this workload do not add up to run_layer"
        ));
    }

    // Counts are those of one pass; span times cover `PASSES` of them.
    let passes = PASSES as f64;
    let runs = counts.demand_runs as f64;
    let layers = replayed.len() as f64;
    vec![
        (
            "systolic.demand_gen_ns_per_run",
            self_ns(replay::DEMAND_GEN) / (runs * passes),
        ),
        (
            "systolic.analyze_ns_per_layer",
            self_ns(replay::ANALYZE) / layers,
        ),
        ("systolic.demand_runs", runs),
        ("systolic.demand_elements", counts.demand_elements as f64),
        (
            "systolic.elements_per_run",
            counts.demand_elements as f64 / runs,
        ),
        (
            "memory.fold_runs_ns_per_run",
            self_ns(replay::FOLD_RUNS) / (runs * passes),
        ),
        (
            "memory.sram_hit_ratio",
            1.0 - counts.dram_reads as f64 / counts.sram_reads as f64,
        ),
        ("core.run_layer_us_p50", median(&cold_us)),
        ("core.run_layer_us_p95", percentile(&cold_us, 95.0)),
        (
            "core.facade_overhead_us_per_layer",
            (facade_ns - parts_ns) / layers / 1e3,
        ),
        ("core.reconcile_layer_ratio", reconcile),
        (
            "core.host_ns_per_sim_cycle",
            facade.values().sum::<f64>() / (counts.cycles as f64 * passes),
        ),
    ]
}

/// The traced run of workload `W`; its spans go to [`trace_path`] as
/// process `pid`.
pub fn traced<W: Workload>(seed: u64, pid: usize) -> Result<RunReport, String> {
    let jobs = sys::workers();
    let cli = sys::build_cli()?;
    let workload = W::setup(seed, jobs, Scale::Full);
    let ops = workload.sim_ops();
    let mut notes = vec![format!(
        "{} layer simulations per replay pass, {PASSES} passes recorded and {PASSES} not",
        ops.len()
    )];

    let mut rec = Recorder::new(true);
    let mut scratch = replay::Scratch::default();
    let mut tally = Tally::default();
    let mut pass_s = [Vec::new(), Vec::new()];
    let mut first = None;
    let mut cold_ops = HashSet::new();
    for pass in 0..PASSES {
        // Off then on, alternating, so drift of the host hits both alike.
        for on in [false, true] {
            rec.enabled = on;
            let started = Instant::now();
            let outcome = replay::pass(&mut rec, &ops, (pass * ops.len()) as u64, &mut scratch);
            pass_s[usize::from(on)].push(started.elapsed().as_secs_f64());
            tally.add(outcome.tally);
            if on {
                cold_ops.extend(outcome.cold_ops);
            }
            // Simulated counts repeat exactly; a pass that differs from the
            // first fails every op it covers.
            let counts = *first.get_or_insert(outcome.counts);
            tally.add(Tally::all_or_nothing(
                ops.len() as u64,
                counts == outcome.counts,
            ));
        }
    }
    rec.enabled = true;
    let counts = first.expect("PASSES is at least one");
    let (off_s, on_s) = (median(&pass_s[0]), median(&pass_s[1]));
    notes.push(format!(
        "replay pass {off_s:.3} s unrecorded, {on_s:.3} s recorded; {} folds, {} simulated cycles per pass",
        counts.folds, counts.cycles
    ));

    let mut values = replay_values(rec.spans(), &cold_ops, counts, &mut notes);
    values.push(("bench.trace_overhead_pct", (on_s - off_s) / off_s * 100.0));
    drop(workload);
    values.extend(probes::all(seed, jobs, &cli, &mut rec));

    let path = trace_path(W::NAME);
    std::fs::create_dir_all(path.parent().expect("the trace has a directory"))
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut w = std::io::BufWriter::new(file);
            rec.write_chrome_json(&mut w, pid, W::NAME)?;
            std::io::Write::flush(&mut w)
        })
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    notes.push(format!("{} spans in {}", rec.spans().len(), path.display()));

    let metrics = metrics::PER_LAYER
        .iter()
        .map(|spec| {
            let value = values
                .iter()
                .find(|(name, _)| *name == spec.name)
                .map(|(_, value)| *value)
                .filter(|value| value.is_finite())
                .ok_or_else(|| format!("no finite value for per-layer metric {}", spec.name))?;
            Ok(Metric::new(spec, summarize(&[value])))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunReport {
        workload: W::NAME,
        traced: true,
        tally,
        metrics,
        digest: None,
        notes,
    })
}
