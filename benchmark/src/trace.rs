//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from this package only, around the calls into each
//! layer of the program; the program's own trace ring stays off. The traced
//! replays are single-threaded, so a stack gives every span its parent. A
//! disabled recorder runs the closures without reading the clock, which is
//! what `bench.trace_overhead_pct` compares against.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder was made.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    /// The operation (design point, layer, request) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in memory until the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    pub enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of operation `op`. Spans opened
    /// by `f` through the recorder it is handed become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(index);
        let result = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as Chrome trace events (a bare JSON array, one
    /// complete event per line), all on thread `tid` of process `pid`.
    pub fn write_chrome_json(
        &self,
        w: &mut dyn Write,
        pid: usize,
        process: &str,
    ) -> io::Result<()> {
        writeln!(w, "[")?;
        write!(
            w,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\
             \"args\":{{\"name\":\"{process}\"}}}}"
        )?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{index},\"parent\":{parent},\"op\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
                span.op,
            )?;
        }
        writeln!(w, "\n]")
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children cover. Children are clipped to the parent and overlapping
/// children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span totals by name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += span.duration_ns();
        entry.self_ns += self_ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 30, Some(1)),
            span("sibling", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].self_ns, 30);
        assert_eq!(totals["child"].total_ns, 50);
    }

    #[test]
    fn self_time_counts_overlapping_and_overhanging_children_once() {
        let spans = [
            span("root", 100, 200, None),
            // Two children overlapping on [130, 150].
            span("a", 110, 150, Some(0)),
            span("b", 130, 170, Some(0)),
            // A child contained in another, and one hanging past the end.
            span("c", 135, 140, Some(0)),
            span("d", 190, 250, Some(0)),
        ];
        // Covered: [110, 170] and [190, 200] = 70 of 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_links_children_to_the_enclosing_span() {
        let mut rec = Recorder::new(true);
        let value = rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| 1) + rec.span("inner", 7, |_| 2)
        });
        assert_eq!(value, 3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let mut json = Vec::new();
        rec.write_chrome_json(&mut json, 1, "test").unwrap();
        let text = String::from_utf8(json).unwrap();
        assert!(scalesim_server::Json::parse(&text).is_ok(), "{text}");
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("outer", 0, |rec| rec.span("inner", 0, |_| 5)), 5);
        assert!(rec.spans().is_empty());
    }
}
