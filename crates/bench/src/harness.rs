//! Tiny table/series printing helpers shared by the figure harnesses, and
//! the Fig. 11/12 partition sweep.

use scalesim::sweep::{SweepEngine, SweepPlan, SweepResult, SweepWorkload};
use scalesim_topology::{Layer, Topology};

/// A named data series: `(x, y)` pairs plus a label, printed as CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label (e.g. `"2^14 MACs"`).
    pub label: String,
    /// The points, in x order.
    pub points: Vec<(String, f64)>,
}

impl Series {
    /// Creates an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, x: impl ToString, y: f64) {
        self.points.push((x.to_string(), y));
    }
}

/// Prints series as CSV: a header of x labels, then one row per series.
/// All series must share the same x axis (asserted).
pub fn print_series(title: &str, x_name: &str, series: &[Series]) {
    println!("# {title}");
    if series.is_empty() {
        return;
    }
    let xs: Vec<&str> = series[0].points.iter().map(|(x, _)| x.as_str()).collect();
    for s in series {
        assert_eq!(
            s.points.len(),
            xs.len(),
            "series `{}` has a different x axis",
            s.label
        );
    }
    println!("{x_name},{}", xs.join(","));
    for s in series {
        let ys: Vec<String> = s.points.iter().map(|(_, y)| format!("{y:.6}")).collect();
        println!("{},{}", s.label, ys.join(","));
    }
    println!();
}

/// The MAC budgets the paper sweeps (Figs. 9–12): powers of two from
/// `2^lo` to `2^hi` inclusive.
pub fn mac_budgets(lo: u32, hi: u32) -> Vec<u64> {
    (lo..=hi).map(|e| 1u64 << e).collect()
}

/// The Fig. 11/12 experiment: `layer` alone at every power-of-two
/// partition count of `budget` MACs, down to 8×8 arrays, square-ish grids
/// of square-ish arrays over the default configuration (the paper's SRAM,
/// divided evenly among partitions). Results come monolithic first, in
/// ascending partition count; each report is byte-identical to a
/// single-shot `Simulator::run_layer` of its point.
///
/// # Panics
///
/// Panics if `budget` is not a power of two of at least 64 MACs.
pub fn partition_sweep(layer: &Layer, budget: u64) -> Vec<SweepResult> {
    let mut plan = SweepPlan::new(layer.name());
    plan.workloads.push(SweepWorkload {
        label: layer.name().to_owned(),
        topology: Topology::from_layers(layer.name(), vec![layer.clone()]),
    });
    plan.budgets.push(budget);
    let jobs = std::thread::available_parallelism().map_or(4, |n| n.get());
    SweepEngine::default()
        .run(&plan, jobs)
        .expect("a power-of-two budget of at least 8x8 MACs")
        .results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accumulates_points() {
        let mut s = Series::new("test");
        s.push(1024, 2.0);
        s.push("2048", 4.0);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].0, "1024");
    }

    #[test]
    fn budgets_are_powers_of_two() {
        let b = mac_budgets(8, 12);
        assert_eq!(b, vec![256, 512, 1024, 2048, 4096]);
    }

    #[test]
    #[should_panic(expected = "different x axis")]
    fn mismatched_series_panic() {
        let mut a = Series::new("a");
        a.push(1, 1.0);
        let b = Series::new("b");
        print_series("t", "x", &[a, b]);
    }
}
