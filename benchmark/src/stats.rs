//! Order statistics: medians, quartiles and the percentile picker.

/// Quartiles and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quartiles by the rule of Python's `statistics.quantiles(v, n=4)` (the
/// exclusive method), which is what the benchmark driver applies to the
/// values of several runs; one sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice: every metric has at least one sample.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let v = sorted(samples);
    let n = v.len();
    let (min, max) = (v[0], v[n - 1]);
    if n == 1 {
        return Summary {
            n,
            min,
            q1: min,
            median: min,
            q3: min,
            max,
        };
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        min,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        max,
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).median
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let v = sorted(samples);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [u32; 5] = [50, 75, 90, 95, 99];

/// The highest percentile of the ladder that still has at least ten of `n`
/// samples beyond it — below that a tail is a handful of outliers and does
/// not repeat between runs. Falls back to the median when even that has
/// fewer than ten beyond.
pub fn tail_percentile(n: usize) -> f64 {
    let pick = LADDER
        .into_iter()
        .rev()
        .find(|p| n as u64 * u64::from(100 - p) >= 10 * 100)
        .unwrap_or(LADDER[0]);
    f64::from(pick)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.n, s.q1, s.median, s.q3), (10, 2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.0, 2.0, 3.0, 3.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
    }

    #[test]
    fn picker_takes_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(39), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(100_000), 99.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
