//! Where a sweep's rows go: the [`SweepSink`] trait, its CSV and JSON
//! Lines sinks, and the one row format both write — and explore's writers
//! too.

use std::fmt;
use std::io;

use scalesim_telemetry::JsonStr;

use super::plan::{PointSpec, SweepPlan};
use crate::report::NetworkReport;

/// Where a sweep streams its rows. Called from the engine's emitter in
/// strict plan order — implementations never see out-of-order points.
pub trait SweepSink {
    /// Called once before any point, with the total point count.
    ///
    /// # Errors
    ///
    /// I/O errors abort the sweep.
    fn begin(&mut self, plan: &SweepPlan, points: usize) -> io::Result<()> {
        let _ = (plan, points);
        Ok(())
    }

    /// Called once per point, in plan order, as results become available.
    ///
    /// # Errors
    ///
    /// I/O errors abort the sweep.
    fn point(&mut self, spec: &PointSpec, report: &NetworkReport) -> io::Result<()>;

    /// Called once after the last point.
    ///
    /// # Errors
    ///
    /// I/O errors abort the sweep.
    fn end(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The CSV columns emitted by [`CsvSink`], terminated by a newline.
pub const SWEEP_CSV_HEADER: &str = "workload,budget,partitions,grid,array,dataflow,cycles,\
     effective_cycles,macs,overall_util,dram_bytes,peak_bw_bytes_per_cycle,energy\n";

/// How a row's fields are written: bare comma-separated values (CSV), or
/// comma-separated `"key":value` members with quoted, escaped text (JSON).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowFormat {
    Csv,
    Json,
}

/// A sweep row in two halves: the fields naming the point, then its
/// measured ones. The one field list behind every sweep and explore row,
/// CSV and JSONL alike; explore writes its prediction between the halves
/// and its frontier flag after them.
pub(crate) fn row_halves(
    spec: &PointSpec,
    report: &NetworkReport,
    format: RowFormat,
) -> (String, String) {
    let text = |value: &dyn fmt::Display| match format {
        RowFormat::Csv => value.to_string(),
        RowFormat::Json => format!("\"{}\"", JsonStr(&value.to_string())),
    };
    let point = [
        ("workload", text(&spec.workload)),
        ("budget", spec.budget.to_string()),
        ("partitions", spec.partitions().to_string()),
        ("grid", text(&spec.grid)),
        ("array", text(&spec.array)),
        ("dataflow", text(&spec.dataflow)),
    ];
    let measured = [
        ("cycles", report.total_cycles().to_string()),
        (
            "effective_cycles",
            report.total_effective_cycles().to_string(),
        ),
        ("macs", report.total_macs().to_string()),
        (
            "overall_util",
            format!("{:.4}", report.overall_utilization()),
        ),
        ("dram_bytes", report.total_dram_bytes().to_string()),
        (
            "peak_bw_bytes_per_cycle",
            format!("{:.3}", report.peak_required_bandwidth()),
        ),
        ("energy", format!("{:.1}", report.total_energy().total())),
    ];
    let join = |fields: &[(&str, String)]| {
        let mut out = String::new();
        for (key, value) in fields {
            if !out.is_empty() {
                out.push(',');
            }
            if format == RowFormat::Json {
                out.push_str(&format!("\"{key}\":"));
            }
            out.push_str(value);
        }
        out
    };
    (join(&point), join(&measured))
}

/// Streams sweep rows as CSV ([`SWEEP_CSV_HEADER`] + one row per point).
pub struct CsvSink<W: io::Write> {
    writer: W,
}

impl<W: io::Write> CsvSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> CsvSink<W> {
        CsvSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: io::Write> SweepSink for CsvSink<W> {
    fn begin(&mut self, _plan: &SweepPlan, _points: usize) -> io::Result<()> {
        self.writer.write_all(SWEEP_CSV_HEADER.as_bytes())
    }

    fn point(&mut self, spec: &PointSpec, report: &NetworkReport) -> io::Result<()> {
        let (point, measured) = row_halves(spec, report, RowFormat::Csv);
        writeln!(self.writer, "{point},{measured}")
    }

    fn end(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// Streams sweep rows as JSON Lines: one object per point, fixed key
/// order, deterministic for identical results.
pub struct JsonLinesSink<W: io::Write> {
    writer: W,
}

impl<W: io::Write> JsonLinesSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> JsonLinesSink<W> {
        JsonLinesSink { writer }
    }

    /// Unwraps the inner writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl<W: io::Write> SweepSink for JsonLinesSink<W> {
    fn point(&mut self, spec: &PointSpec, report: &NetworkReport) -> io::Result<()> {
        let (point, measured) = row_halves(spec, report, RowFormat::Json);
        writeln!(self.writer, "{{{point},{measured}}}")
    }

    fn end(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

/// A sink that discards rows (for callers that only want the outcome).
pub(crate) struct NullSink;

impl SweepSink for NullSink {
    fn point(&mut self, _spec: &PointSpec, _report: &NetworkReport) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::plan::tests::small_plan;
    use crate::sweep::SweepEngine;
    use scalesim_telemetry::Registry;

    #[test]
    fn jsonl_sink_emits_one_valid_object_per_point() {
        let plan = small_plan();
        let mut sink = JsonLinesSink::new(Vec::new());
        SweepEngine::with_registry(&Registry::new())
            .run_streaming(&plan, 2, &mut sink)
            .unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            assert!(line.starts_with("{\"workload\":\"TF1\""));
            assert!(line.ends_with('}'));
        }
    }

    #[test]
    fn the_jsonl_keys_are_the_csv_columns() {
        let plan = small_plan();
        let mut sink = JsonLinesSink::new(Vec::new());
        SweepEngine::with_registry(&Registry::new())
            .run_streaming(&plan, 1, &mut sink)
            .unwrap();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let line = text.lines().next().unwrap();
        let keys: Vec<&str> = line
            .split(",\"")
            .map(|member| member.trim_start_matches("{\"").split('"').next().unwrap())
            .collect();
        assert_eq!(keys.join(",") + "\n", SWEEP_CSV_HEADER);
    }
}
