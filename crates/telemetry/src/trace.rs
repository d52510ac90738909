//! Hierarchical trace recording with Chrome trace-event export.
//!
//! When tracing is [`install`]ed, every [`TraceSpan`] (opened via
//! [`span`]/[`span_with`]) records one *complete* event — name, start,
//! duration, thread, parent span — into a bounded ring buffer.
//! [`export_chrome_json`] serializes the ring in the
//! Chrome trace-event format, which loads directly into Perfetto or
//! `chrome://tracing` and renders the run as a per-thread timeline with
//! nested spans.
//!
//! # Cost model
//!
//! Tracing is **off by default** and the disabled path is one relaxed
//! atomic load per span with no allocation — [`span`] returns an inert
//! guard and [`span_with`] never calls its argument closure. When enabled,
//! recording a finished span is a `fetch_add` to claim a ring slot plus
//! one store under that slot's own (almost always uncontended) lock; the
//! ring is preallocated at [`install`] time, so the steady state allocates
//! only the span's argument strings. The buffer is bounded: once full, new
//! events overwrite the oldest — tracing can run forever without growing.
//!
//! Recording **never blocks**: the slot store uses `try_lock`, so if a
//! concurrent snapshot (or a wrap-around writer racing for the same slot)
//! holds the lock, the event is dropped instead of stalling the simulating
//! thread, and `scalesim_trace_events_dropped_total` in the global metric
//! registry counts the loss. The claim itself is a lock-free `fetch_add`;
//! the per-slot copy is mutex-guarded, which is why the ring as a whole is
//! *non-blocking for writers* rather than strictly lock-free.
//!
//! # Hierarchy
//!
//! Parent/child links come from a per-thread stack of open span ids:
//! entering a span pushes its id, dropping it pops. Spans therefore nest
//! within a thread (the RAII discipline guarantees well-formed nesting),
//! while spans on different threads — e.g. sweep workers — appear as
//! separate timeline rows keyed by a process-local thread id. Each event
//! carries its own `id` and its `parent` id (0 for a root span) in the
//! exported `args`, so consumers can rebuild the tree exactly.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::JsonStr;

/// Default ring capacity for [`install`]: deep enough for a full
/// sweep/explore run at per-layer/per-phase granularity, small enough
/// (a few MiB) to preallocate without thought.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// Registry name of the counter of events dropped because their ring slot
/// was contended (see the module docs' cost model).
pub const DROPPED_COUNTER: &str = "scalesim_trace_events_dropped_total";

/// The contention-drop counter, registered in the global metric registry
/// on first use so `/metrics` exposes it alongside the simulator counters.
fn dropped_counter() -> &'static std::sync::Arc<crate::Counter> {
    static DROPPED: OnceLock<std::sync::Arc<crate::Counter>> = OnceLock::new();
    DROPPED.get_or_init(|| {
        crate::global().counter(
            DROPPED_COUNTER,
            "Trace events dropped because their ring slot was contended.",
        )
    })
}

/// Total trace events dropped on slot contention since process start.
pub fn events_dropped() -> u64 {
    dropped_counter().get()
}

/// One finished span, as stored in the ring and returned by [`events`].
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (the first argument of [`span`]/[`span_with`]).
    pub name: &'static str,
    /// Unique id of this span (process-local, never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// Process-local id of the thread the span ran on.
    pub tid: u64,
    /// Start time in microseconds since the recorder's epoch.
    pub start_micros: u64,
    /// Wall duration in microseconds.
    pub dur_micros: u64,
    /// Key/value arguments attached to the span.
    pub args: Vec<(&'static str, String)>,
}

/// Bounded ring of trace events. Slot claim is a single `fetch_add`;
/// each slot has its own lock, contended only against a concurrent
/// snapshot or a wrap-around overwrite of that exact slot — and writers
/// `try_lock`, dropping (and counting) the event rather than blocking.
struct Ring {
    slots: Vec<Mutex<Option<TraceEvent>>>,
    /// Total events ever recorded; `head % capacity` is the next slot.
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn record(&self, event: TraceEvent) {
        let i = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        // Never block a simulating thread on telemetry: if a snapshot (or
        // a wrapping writer) holds this slot, drop the event and count it.
        match slot.try_lock() {
            Ok(mut slot) => *slot = Some(event),
            Err(_) => dropped_counter().inc(),
        }
    }

    /// Snapshot in record order, oldest surviving event first.
    fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Relaxed);
        let cap = self.slots.len() as u64;
        let len = head.min(cap);
        let first = head - len; // index of the oldest surviving event
        (first..head)
            .filter_map(|i| {
                self.slots[(i % cap) as usize]
                    .lock()
                    .unwrap()
                    .as_ref()
                    .cloned()
            })
            .collect()
    }

    fn clear(&self) {
        for slot in &self.slots {
            *slot.lock().unwrap() = None;
        }
        self.head.store(0, Ordering::Relaxed);
    }
}

/// The installed recorder: the ring plus the time epoch and the table of
/// thread names seen so far (exported as `thread_name` metadata events).
struct Recorder {
    epoch: Instant,
    ring: Ring,
    thread_names: Mutex<Vec<(u64, String)>>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: OnceLock<Recorder> = OnceLock::new();
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Per-thread id, assigned on first use.
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Open span ids on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread's name is already in the recorder's table.
    static NAMED: Cell<bool> = const { Cell::new(false) };
}

/// Installs the global recorder with a ring of `capacity` events and
/// enables recording. Idempotent: the first call fixes the capacity and
/// the time epoch; later calls only re-enable recording.
pub fn install(capacity: usize) {
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        ring: Ring::new(capacity),
        thread_names: Mutex::new(Vec::new()),
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns recording on or off. A no-op until [`install`] has run; the
/// already-recorded events stay in the ring either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(on && RECORDER.get().is_some(), Ordering::Relaxed);
}

/// Whether spans are currently being recorded. This is the whole disabled
/// path: one relaxed load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Live context of an open span; produced by [`begin`], consumed by
/// [`end`]. Every live [`TraceSpan`] holds one.
#[derive(Debug)]
struct SpanCtx {
    id: u64,
    parent: u64,
    tid: u64,
    start: Instant,
}

/// Opens a traced region: assigns a span id, links it to the innermost
/// open span on this thread and pushes it onto the thread's stack.
/// Returns `None` (without allocating) when tracing is disabled.
fn begin() -> Option<SpanCtx> {
    if !enabled() {
        return None;
    }
    let tid = TID.with(|t| *t);
    register_thread(tid);
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Some(SpanCtx {
        id,
        parent,
        tid,
        start: Instant::now(),
    })
}

/// Closes a traced region: pops it off the thread's stack and records the
/// complete event into the ring.
fn end(ctx: SpanCtx, name: &'static str, args: &[(&'static str, String)]) {
    STACK.with(|s| {
        let mut s = s.borrow_mut();
        if let Some(pos) = s.iter().rposition(|&id| id == ctx.id) {
            s.truncate(pos);
        }
    });
    let Some(recorder) = RECORDER.get() else {
        return;
    };
    let start = ctx.start.saturating_duration_since(recorder.epoch);
    recorder.ring.record(TraceEvent {
        name,
        id: ctx.id,
        parent: ctx.parent,
        tid: ctx.tid,
        start_micros: start.as_micros() as u64,
        dur_micros: ctx.start.elapsed().as_micros() as u64,
        args: args.to_vec(),
    });
}

/// Remembers the current thread's name (or a synthetic one) the first
/// time it records, for `thread_name` metadata in the export.
fn register_thread(tid: u64) {
    if NAMED.with(|n| n.replace(true)) {
        return;
    }
    if let Some(recorder) = RECORDER.get() {
        let name = std::thread::current()
            .name()
            .map(str::to_owned)
            .unwrap_or_else(|| format!("thread-{tid}"));
        recorder.thread_names.lock().unwrap().push((tid, name));
    }
}

/// The RAII span guard: times the region it is alive for into the trace
/// ring, never into the metric registry. Inert — a single branch, no
/// allocation, no clock read — when tracing is disabled.
#[derive(Debug)]
pub struct TraceSpan {
    name: &'static str,
    ctx: Option<SpanCtx>,
    args: Vec<(&'static str, String)>,
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        if let Some(ctx) = self.ctx.take() {
            end(ctx, self.name, &self.args);
        }
    }
}

/// Opens an argument-less [`TraceSpan`] named `name`.
#[inline]
pub fn span(name: &'static str) -> TraceSpan {
    TraceSpan {
        name,
        ctx: begin(),
        args: Vec::new(),
    }
}

/// Opens a [`TraceSpan`] whose arguments come from `args` — called only
/// when tracing is enabled, so the disabled path never allocates.
#[inline]
pub fn span_with(
    name: &'static str,
    args: impl FnOnce() -> Vec<(&'static str, String)>,
) -> TraceSpan {
    let ctx = begin();
    TraceSpan {
        name,
        args: if ctx.is_some() { args() } else { Vec::new() },
        ctx,
    }
}

/// Snapshot of the recorded events, oldest surviving event first. Empty
/// until [`install`] has run.
pub fn events() -> Vec<TraceEvent> {
    RECORDER.get().map_or_else(Vec::new, |r| r.ring.snapshot())
}

/// Empties the ring (the epoch and thread table stay). Test/bench hook.
pub fn clear() {
    if let Some(recorder) = RECORDER.get() {
        recorder.ring.clear();
    }
}

/// Serializes the recorded events as Chrome trace-event JSON:
/// an object with a `traceEvents` array of `ph:"X"` complete events
/// (microsecond `ts`/`dur`, one `tid` row per thread) preceded by
/// `thread_name` metadata, loadable in Perfetto or `chrome://tracing`.
/// Span ids and parent links ride in each event's `args`.
///
/// # Errors
///
/// Propagates write errors from `w`.
pub fn export_chrome_json(w: &mut dyn Write) -> io::Result<()> {
    let mut events = events();
    events.sort_by_key(|e| (e.start_micros, e.id));
    writeln!(w, "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
    let mut first = true;
    if let Some(recorder) = RECORDER.get() {
        for (tid, name) in recorder.thread_names.lock().unwrap().iter() {
            comma(w, &mut first)?;
            writeln!(
                w,
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"{}\"}}}}",
                JsonStr(name)
            )?;
        }
    }
    for e in &events {
        comma(w, &mut first)?;
        write!(
            w,
            "{{\"name\":\"{}\",\"cat\":\"scalesim\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}",
            JsonStr(e.name),
            e.start_micros,
            e.dur_micros,
            e.tid,
            e.id,
            e.parent,
        )?;
        for (k, v) in &e.args {
            write!(w, ",\"{}\":\"{}\"", JsonStr(k), JsonStr(v))?;
        }
        writeln!(w, "}}}}")?;
    }
    writeln!(w, "]}}")
}

fn comma(w: &mut dyn Write, first: &mut bool) -> io::Result<()> {
    if !*first {
        w.write_all(b",")?;
    }
    *first = false;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_keeps_the_newest_events() {
        let ring = Ring::new(4);
        let event = |i: u64| TraceEvent {
            name: "e",
            id: i,
            parent: 0,
            tid: 1,
            start_micros: i,
            dur_micros: 1,
            args: Vec::new(),
        };
        for i in 0..10 {
            ring.record(event(i));
        }
        let kept: Vec<u64> = ring.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(kept, vec![6, 7, 8, 9], "oldest events are overwritten");
        ring.clear();
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn contended_slot_drops_the_event_instead_of_blocking() {
        let ring = Ring::new(2);
        let event = |i: u64| TraceEvent {
            name: "e",
            id: i,
            parent: 0,
            tid: 1,
            start_micros: i,
            dur_micros: 1,
            args: Vec::new(),
        };
        // Simulate a snapshot holding slot 0: recording into it must
        // return immediately (a hang here would time the suite out),
        // drop the event, and bump the drop counter.
        let dropped_before = events_dropped();
        {
            let _held = ring.slots[0].lock().unwrap();
            ring.record(event(1));
        }
        assert_eq!(events_dropped(), dropped_before + 1);
        // The claim still advanced past the contended slot, so the next
        // event lands in slot 1 and survives.
        ring.record(event(2));
        let kept: Vec<u64> = ring.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(kept, vec![2], "the contended event is gone, not stuck");
    }

    #[test]
    fn disabled_tracing_records_nothing() {
        // Not installed (or explicitly disabled): begin is None and the
        // guard stays inert.
        let was = enabled();
        set_enabled(false);
        {
            let _g = span("trace_test_disabled");
            let _h = span_with("trace_test_disabled_args", || {
                panic!("args closure must not run when tracing is disabled")
            });
        }
        assert!(!events()
            .iter()
            .any(|e| e.name.starts_with("trace_test_disabled")));
        set_enabled(was);
    }

    #[test]
    fn spans_nest_within_a_thread_and_cross_threads_get_own_rows() {
        install(4096);
        let before: Vec<u64> = events()
            .iter()
            .filter(|e| e.name.starts_with("trace_test_nest"))
            .map(|e| e.id)
            .collect();
        {
            let _outer = span("trace_test_nest_outer");
            {
                let _inner =
                    span_with("trace_test_nest_inner", || vec![("worker", "3".to_owned())]);
            }
            std::thread::spawn(|| {
                let _other = span("trace_test_nest_thread");
            })
            .join()
            .unwrap();
        }
        let fresh: Vec<TraceEvent> = events()
            .into_iter()
            .filter(|e| e.name.starts_with("trace_test_nest") && !before.contains(&e.id))
            .collect();
        let find = |name: &str| {
            fresh
                .iter()
                .find(|e| e.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        let outer = find("trace_test_nest_outer");
        let inner = find("trace_test_nest_inner");
        let other = find("trace_test_nest_thread");
        assert_eq!(inner.parent, outer.id, "inner span links to its parent");
        assert_eq!(inner.args, vec![("worker", "3".to_owned())]);
        assert_eq!(other.parent, 0, "a span on a fresh thread is a root");
        assert_ne!(other.tid, outer.tid, "threads get distinct rows");
        assert!(outer.dur_micros >= inner.dur_micros);
    }

    #[test]
    fn the_drop_counter_is_exported_by_the_global_registry() {
        let dropped = events_dropped();
        let text = crate::global().render();
        assert!(
            text.contains(&format!("# TYPE {DROPPED_COUNTER} counter\n")),
            "{text}"
        );
        // Other tests may drop events meanwhile; the count never falls.
        let rendered = text
            .lines()
            .find_map(|line| line.strip_prefix(&format!("{DROPPED_COUNTER} ")))
            .expect("one unlabeled series");
        assert!(rendered.parse::<u64>().unwrap() >= dropped);
    }

    #[test]
    fn chrome_export_is_valid_shape() {
        install(4096);
        {
            let _g = span_with("trace_test_export", || {
                vec![("layer", "Conv\"1\"\n".to_owned())]
            });
        }
        let mut out = Vec::new();
        export_chrome_json(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"name\":\"trace_test_export\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"layer\":\"Conv\\\"1\\\"\\n\""), "{text}");
        // Balanced enough to be JSON: every line between the brackets is
        // one object, separated by commas.
        assert!(!text.contains("\n\n"));
    }
}
