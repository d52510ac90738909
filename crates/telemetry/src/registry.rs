//! The metric registry and the Prometheus text-format exporter.
//!
//! A [`Registry`] is a named, label-aware collection of metric families.
//! `counter`/`gauge`/`histogram` are *get-or-create*: the first call for a
//! `(name, labels)` pair creates the series, later calls return the same
//! `Arc`, so callers can either hold the handle (hot paths) or re-resolve
//! it by name (cold paths). Families render in registration order, series
//! in creation order, which keeps the exposition deterministic — the golden
//! tests rely on that.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

use crate::metrics::{Counter, Gauge, Histogram};

/// The concrete metric behind one labeled series.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Series {
    labels: Vec<(String, String)>,
    metric: Metric,
}

#[derive(Debug)]
struct Family {
    name: String,
    help: String,
    series: Vec<Series>,
}

/// A thread-safe collection of metric families with a Prometheus
/// text-format renderer.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

/// Borrowed label pairs, e.g. `&[("layer", "Conv1")]`.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get-or-create an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get-or-create a counter series under `labels`.
    pub fn counter_with(&self, name: &str, help: &str, labels: Labels) -> Arc<Counter> {
        match self.resolve(name, help, labels, || {
            Metric::Counter(Arc::new(Counter::new()))
        }) {
            Metric::Counter(c) => c,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Get-or-create an unlabeled gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get-or-create a gauge series under `labels`.
    pub fn gauge_with(&self, name: &str, help: &str, labels: Labels) -> Arc<Gauge> {
        match self.resolve(name, help, labels, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Get-or-create an unlabeled histogram over `bounds`.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Get-or-create a histogram series under `labels`. The bounds of the
    /// first creation win; later calls for the same series ignore `bounds`.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
        labels: Labels,
    ) -> Arc<Histogram> {
        let create = || Metric::Histogram(Arc::new(Histogram::new(bounds)));
        match self.resolve(name, help, labels, create) {
            Metric::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    fn resolve(
        &self,
        name: &str,
        help: &str,
        labels: Labels,
        create: impl FnOnce() -> Metric,
    ) -> Metric {
        let mut families = self.families.lock().unwrap();
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => f,
            None => {
                families.push(Family {
                    name: name.to_owned(),
                    help: help.to_owned(),
                    series: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        debug_assert_eq!(
            family.help, help,
            "metric `{name}` registered with two help texts"
        );
        if let Some(series) = family.series.iter().find(|s| labels_eq(&s.labels, labels)) {
            return series.metric.clone();
        }
        let metric = create();
        family.series.push(Series {
            labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            metric: metric.clone(),
        });
        metric
    }

    /// The current value of a counter series, if it exists.
    pub fn counter_value(&self, name: &str, labels: Labels) -> Option<u64> {
        let families = self.families.lock().unwrap();
        let family = families.iter().find(|f| f.name == name)?;
        let series = family
            .series
            .iter()
            .find(|s| labels_eq(&s.labels, labels))?;
        match &series.metric {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Renders every family in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` preambles, one sample line per
    /// series, histograms expanded into `_bucket`/`_sum`/`_count`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let families = self.families.lock().unwrap();
        for family in families.iter() {
            if family.series.is_empty() {
                continue;
            }
            let kind = family.series[0].metric.kind();
            let _ = writeln!(out, "# HELP {} {}", family.name, escape_help(&family.help));
            let _ = writeln!(out, "# TYPE {} {kind}", family.name);
            for series in &family.series {
                render_series(&mut out, &family.name, series);
            }
        }
        out
    }
}

fn labels_eq(owned: &[(String, String)], borrowed: Labels) -> bool {
    owned.len() == borrowed.len()
        && owned
            .iter()
            .zip(borrowed)
            .all(|((ok, ov), (bk, bv))| ok == bk && ov == bv)
}

fn render_series(out: &mut String, name: &str, series: &Series) {
    match &series.metric {
        Metric::Counter(c) => {
            let _ = writeln!(
                out,
                "{name}{} {}",
                label_block(&series.labels, None),
                c.get()
            );
        }
        Metric::Gauge(g) => {
            let _ = writeln!(
                out,
                "{name}{} {}",
                label_block(&series.labels, None),
                g.get()
            );
        }
        Metric::Histogram(h) => {
            let cumulative = h.cumulative_counts();
            for (i, count) in cumulative.iter().enumerate() {
                let le = match h.bounds().get(i) {
                    Some(b) => format_value(*b),
                    None => "+Inf".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{name}_bucket{} {count}",
                    label_block(&series.labels, Some(&le))
                );
            }
            let _ = writeln!(
                out,
                "{name}_sum{} {}",
                label_block(&series.labels, None),
                format_value(h.sum())
            );
            let _ = writeln!(
                out,
                "{name}_count{} {}",
                label_block(&series.labels, None),
                h.count()
            );
        }
    }
}

/// `{k="v",...}` (with an optional trailing `le`), or the empty string.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Formats a sample value: integral floats print without a fraction
/// (`1` not `1.0` — matching Rust's shortest-round-trip `Display`, which
/// Prometheus accepts), non-finite values use Prometheus spellings.
fn format_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else if v == f64::INFINITY {
        "+Inf".to_owned()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_owned()
    } else {
        format!("{v}")
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

/// The process-wide default registry, used by the simulator crates so
/// instrumentation needs no plumbing. Servers typically render this
/// *plus* their own per-engine registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "registered with two help texts")]
    fn a_name_registered_with_two_help_texts_is_caught() {
        let r = Registry::new();
        r.counter("m", "One help.");
        r.counter("m", "Another help.");
    }

    #[test]
    fn get_or_create_returns_the_same_series() {
        let r = Registry::new();
        let a = r.counter_with("jobs_total", "Jobs.", &[("kind", "x")]);
        let b = r.counter_with("jobs_total", "Jobs.", &[("kind", "x")]);
        let c = r.counter_with("jobs_total", "Jobs.", &[("kind", "y")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert_eq!(c.get(), 0);
        assert_eq!(r.counter_value("jobs_total", &[("kind", "x")]), Some(1));
        assert_eq!(r.counter_value("jobs_total", &[("kind", "z")]), None);
        assert_eq!(r.counter_value("nope", &[]), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", "help");
        r.gauge("m", "help");
    }

    /// Exact-string golden test of the full exposition format.
    #[test]
    fn prometheus_text_format_golden() {
        let r = Registry::new();
        r.counter("sim_jobs_total", "Total jobs.").add(3);
        r.counter_with(
            "sim_requests_total",
            "Requests by outcome.",
            &[("outcome", "hit")],
        )
        .add(2);
        r.counter_with(
            "sim_requests_total",
            "Requests by outcome.",
            &[("outcome", "fresh")],
        )
        .inc();
        r.gauge("sim_in_flight", "Jobs in flight.").set(1);
        let h = r.histogram("sim_wait_seconds", "Queue wait.", &[0.5, 1.0]);
        h.observe(0.25);
        h.observe(0.75);
        h.observe(9.0);
        let expected = "\
# HELP sim_jobs_total Total jobs.
# TYPE sim_jobs_total counter
sim_jobs_total 3
# HELP sim_requests_total Requests by outcome.
# TYPE sim_requests_total counter
sim_requests_total{outcome=\"hit\"} 2
sim_requests_total{outcome=\"fresh\"} 1
# HELP sim_in_flight Jobs in flight.
# TYPE sim_in_flight gauge
sim_in_flight 1
# HELP sim_wait_seconds Queue wait.
# TYPE sim_wait_seconds histogram
sim_wait_seconds_bucket{le=\"0.5\"} 1
sim_wait_seconds_bucket{le=\"1\"} 2
sim_wait_seconds_bucket{le=\"+Inf\"} 3
sim_wait_seconds_sum 10
sim_wait_seconds_count 3
";
        assert_eq!(r.render(), expected);
    }

    #[test]
    fn labeled_histogram_appends_le_last() {
        let r = Registry::new();
        r.histogram_with("lat", "Latency.", &[1.0], &[("route", "simulate")])
            .observe(0.5);
        let text = r.render();
        assert!(text.contains("lat_bucket{route=\"simulate\",le=\"1\"} 1"));
        assert!(text.contains("lat_sum{route=\"simulate\"} 0.5"));
        assert!(text.contains("lat_count{route=\"simulate\"} 1"));
    }

    #[test]
    fn label_values_are_escaped() {
        let r = Registry::new();
        r.counter_with("m", "h", &[("name", "a\"b\\c\nd")]).inc();
        assert!(r.render().contains(r#"m{name="a\"b\\c\nd"} 1"#));
    }

    #[test]
    fn empty_registry_renders_empty() {
        assert_eq!(Registry::new().render(), "");
    }

    /// Multi-label series render deterministically: families in
    /// registration order, series in creation order, label pairs in the
    /// order the caller gave them — byte-for-byte stable across calls.
    #[test]
    fn multi_label_render_order_is_deterministic() {
        let r = Registry::new();
        r.counter_with(
            "phase_micros",
            "Phase time.",
            &[("layer", "Conv1"), ("phase", "dram")],
        )
        .add(7);
        r.counter_with(
            "phase_micros",
            "Phase time.",
            &[("layer", "Conv1"), ("phase", "compute")],
        )
        .add(3);
        r.counter_with(
            "phase_micros",
            "Phase time.",
            &[("phase", "compute"), ("layer", "Conv2")],
        )
        .add(1);
        let expected = "\
# HELP phase_micros Phase time.
# TYPE phase_micros counter
phase_micros{layer=\"Conv1\",phase=\"dram\"} 7
phase_micros{layer=\"Conv1\",phase=\"compute\"} 3
phase_micros{phase=\"compute\",layer=\"Conv2\"} 1
";
        assert_eq!(r.render(), expected);
        assert_eq!(r.render(), expected, "rendering is stable across calls");
        // Label *order* is part of series identity here: the same pairs in
        // a different order resolve to a different series.
        assert_eq!(
            r.counter_value("phase_micros", &[("layer", "Conv1"), ("phase", "dram")]),
            Some(7)
        );
        assert_eq!(
            r.counter_value("phase_micros", &[("phase", "dram"), ("layer", "Conv1")]),
            None
        );
    }

    /// Concurrent first-touch of the same (name, labels) from many
    /// threads must agree on one series: every increment lands in one
    /// counter and the family gains exactly one series per label set.
    #[test]
    fn concurrent_first_touch_creates_one_series() {
        let r = Registry::new();
        const THREADS: usize = 16;
        const INCS: usize = 100;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let r = &r;
                s.spawn(move || {
                    for _ in 0..INCS {
                        r.counter_with(
                            "first_touch_total",
                            "Racy get-or-create.",
                            &[("shared", "yes")],
                        )
                        .inc();
                        r.counter_with(
                            "first_touch_total",
                            "Racy get-or-create.",
                            &[("thread", &t.to_string())],
                        )
                        .inc();
                    }
                });
            }
        });
        assert_eq!(
            r.counter_value("first_touch_total", &[("shared", "yes")]),
            Some((THREADS * INCS) as u64)
        );
        let text = r.render();
        assert_eq!(
            text.matches("first_touch_total{shared=\"yes\"}").count(),
            1,
            "exactly one shared series survived the race:\n{text}"
        );
        for t in 0..THREADS {
            let labels = [("thread", t.to_string())];
            let labels: Vec<(&str, &str)> = labels.iter().map(|(k, v)| (*k, v.as_str())).collect();
            assert_eq!(
                r.counter_value("first_touch_total", &labels),
                Some(INCS as u64)
            );
        }
    }
}
