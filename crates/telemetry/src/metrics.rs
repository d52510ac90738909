//! Metric primitives: counters, gauges, and fixed-bucket histograms.
//!
//! All primitives are lock-free (`Ordering::Relaxed` atomics — these are
//! monotonic telemetry values, not synchronization points) and are handed
//! out as `Arc`s by the [`Registry`](crate::Registry), so instrumented code
//! pays one atomic op per update with no registry lookup on the hot path.
//!
//! A histogram's running sum (`Histogram::observe`) stores the `f64` as its
//! bit pattern in an `AtomicU64` and accumulates with a compare-and-swap
//! loop, the standard std-only idiom for atomic floats.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An integer gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A gauge starting at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram in the Prometheus style: cumulative bucket
/// counts over a sorted list of upper bounds, plus a running sum and count.
///
/// Bucket bounds are fixed at construction; an implicit `+Inf` bucket
/// catches everything above the last bound.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound plus the `+Inf` slot; *non*-cumulative — each
    /// observation lands in exactly one slot, cumulation happens at render.
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (upper bucket edges). Bounds are sorted
    /// and deduplicated; non-finite bounds are dropped (`+Inf` is implicit).
    pub fn new(bounds: &[f64]) -> Histogram {
        let mut bounds: Vec<f64> = bounds.iter().copied().filter(|b| b.is_finite()).collect();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds compare"));
        bounds.dedup();
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            count: AtomicU64::new(0),
        }
    }

    /// Default buckets for wall-clock durations in seconds: 1 ms .. 60 s.
    pub fn duration_buckets() -> Vec<f64> {
        vec![0.001, 0.005, 0.025, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0]
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        if !v.is_finite() {
            return;
        }
        let slot = self.bounds.partition_point(|&b| b < v);
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// The configured upper bounds (without the implicit `+Inf`).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Cumulative count at or below each bound, ending with the `+Inf`
    /// total — the `le` series of the Prometheus exposition.
    pub fn cumulative_counts(&self) -> Vec<u64> {
        let mut total = 0;
        self.counts
            .iter()
            .map(|c| {
                total += c.load(Ordering::Relaxed);
                total
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(10);
        g.sub(3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn histogram_buckets_observations_at_boundaries() {
        let h = Histogram::new(&[1.0, 5.0, 10.0]);
        // Prometheus buckets are `le` (inclusive upper bound).
        h.observe(0.5); // le=1
        h.observe(1.0); // le=1 (boundary is inclusive)
        h.observe(1.0001); // le=5
        h.observe(5.0); // le=5
        h.observe(7.0); // le=10
        h.observe(10.5); // +Inf
        assert_eq!(h.cumulative_counts(), vec![2, 4, 5, 6]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 25.0001).abs() < 1e-9);
    }

    #[test]
    fn histogram_sorts_and_dedups_bounds() {
        let h = Histogram::new(&[5.0, 1.0, 5.0, f64::INFINITY]);
        assert_eq!(h.bounds(), &[1.0, 5.0]);
        assert_eq!(h.cumulative_counts().len(), 3);
    }

    #[test]
    fn histogram_ignores_non_finite_observations() {
        let h = Histogram::new(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn histogram_under_concurrency_is_consistent() {
        use std::sync::Arc;
        let h = Arc::new(Histogram::new(&[10.0, 100.0]));
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..1000 {
                        h.observe((t * 50 + i % 3) as f64);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(*h.cumulative_counts().last().unwrap(), 4000);
    }
}
