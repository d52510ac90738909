//! A minimal HTTP/1.1 front end over the [`Engine`], built directly on
//! `std::net` — no async runtime; a small set of threads that each accept
//! a connection and serve it to completion (see *Connection threads*).
//!
//! Routes:
//!
//! * `POST /simulate` — body is a [`SimJob`] JSON
//!   object; responds with the result JSON. The `X-Scalesim-Cache` header
//!   carries `miss` / `hit` / `joined`; the *body* is identical for equal
//!   jobs regardless of how they were served.
//! * `POST /sweep` — body is a design-space sweep plan (see
//!   [`crate::sweep`]); every expanded point runs through the same engine
//!   cache as `/simulate`, and the response lists points in plan order.
//! * `POST /explore` — body is a sweep plan plus `keep_within` / `budget`
//!   knobs (see [`crate::explore`]); analytical pruning picks the
//!   candidates worth simulating and the response carries the measured
//!   Pareto frontier per workload.
//! * `GET /stats` — service counters (legacy JSON view of the metrics).
//! * `GET /metrics` — Prometheus text exposition: the engine's registry
//!   (request outcomes, queue wait, cache occupancy/evictions, dedup
//!   fan-in, HTTP latency) plus the process-global registry (layer-cache
//!   and demand-volume counters, sweep/explore/executor series, dropped
//!   trace events). No series is labeled by a client-chosen name, so the
//!   exposition does not grow with the jobs served.
//! * `GET /healthz` — liveness probe with crate version, uptime and the
//!   serving state (`ok` while serving, `draining` once shutdown has
//!   begun), so fleet probes can detect stale deploys and pull a draining
//!   instance out of rotation; answers immediately even while long
//!   simulations are running (handled on a connection thread of its own,
//!   never queued behind the worker pool).
//! * `GET /debug/jobs` — the engine's flight recorder: the last
//!   [`crate::engine::FLIGHT_RECORDER_CAPACITY`] job records (key, route,
//!   request id, outcome, queue wait, simulation time, worker), oldest
//!   first, as JSON.
//! * `GET /debug/trace` — the process trace ring as Chrome trace-event
//!   JSON (empty `traceEvents` unless tracing was installed).
//!
//! # Overload & shutdown semantics
//!
//! Every request either completes, is shed with a typed error, or times
//! out — never blocks forever:
//!
//! * **Admission control** — the engine's queue of leaders waiting for a
//!   worker is bounded; a job that would overflow it is shed with HTTP 503
//!   plus a `Retry-After` header (seconds, from recent simulation times).
//! * **Deadlines** — `/simulate` and `/sweep` honor an
//!   `X-Scalesim-Deadline-Ms` request header (capped wait, HTTP 504 on
//!   expiry) and apply [`ServerOptions::default_deadline`] when the client
//!   sends none. The simulations in flight keep running on expiry and
//!   their results still land in the cache for the next request.
//! * **Sweep bounds** — `/sweep` refuses a plan of more than
//!   [`crate::sweep::MAX_SWEEP_POINTS`] points with HTTP 400 before
//!   expanding it, and keeps no more points in flight than the engine's
//!   queue admits, so it never sheds itself.
//! * **Connection limiting** — no more than
//!   [`ServerOptions::max_connections`] connection threads exist; when all
//!   of them are inside a connection nobody calls `accept()` and excess
//!   connections wait in the TCP accept backlog. Accept errors (e.g. fd
//!   exhaustion) back off briefly instead of spinning, counted in
//!   `scalesim_http_accept_errors_total`.
//! * **Graceful drain** — [`ServerHandle::drain`] flips `/healthz` to
//!   `draining`, stops the engine accepting new jobs (they shed with 503),
//!   waits a bounded grace period for in-flight work and connections to
//!   finish, then stops the connection threads.
//!
//! # Connection threads
//!
//! A request costs no thread spawn: `http-conn` threads outlive their
//! connections. Each blocks in `accept()` on the one listener, serves the
//! connection it gets (socket timeouts, header and body caps, the
//! `scalesim_http_connections_active` gauge) and goes back to `accept()`.
//!
//! * **Growth** — [`Server::spawn`] starts one thread. A thread is *busy*
//!   from the moment it takes a connection until its reply is ready to
//!   write; one that becomes busy and finds every thread busy starts one
//!   more, while fewer than `max_connections` exist. So the set is the
//!   peak number of requests in progress at once plus one: a probe is
//!   never queued behind a long simulation while the cap has room, a
//!   steady load spawns nothing once its peak has been seen, and the set
//!   never shrinks (an idle thread costs a stack's address space).
//!   Busy ends *before* the reply is written, not when the thread is back
//!   in `accept()`: the client's next connection can arrive before the
//!   thread that answered it has run again, and a rule that counted that
//!   thread out would add a thread per such race, without bound on a
//!   loaded machine. The reply is tried without blocking; only if it does
//!   not fit the socket's send buffer is the thread busy again while the
//!   peer drains it.
//! * **Stop** — when [`ServerHandle::stop`] or [`ServerHandle::drain`]
//!   returns, the listener is closed (a connect is refused, the port can
//!   be bound again) and no thread is in `accept()`: a thread looks for
//!   the listener before it blocks and again when it wakes, and the
//!   stopper connects once per idle thread to wake it and waits until all
//!   of them have exited. A busy thread finishes its reply, then exits.
//! * **Unwinding** — a handler that panics closes its connection
//!   unanswered; `catch_unwind` keeps the thread, and drop guards keep the
//!   gauge and the thread counts right, so capacity is not lost.
//!
//! Every response carries an `X-Scalesim-Request-Id` header — the client's
//! own if it sent one, a generated `pid-sequence` id otherwise — and every
//! request (including malformed ones rejected before routing) makes one
//! latency-histogram observation, so attack traffic is as visible as
//! well-formed traffic. Request ids live in headers and the flight
//! recorder only, never in bodies: responses for equal jobs stay
//! byte-identical regardless of telemetry.
//!
//! The subset implemented is deliberately small: one request per
//! connection (`Connection: close`), `Content-Length` bodies only, 16 KiB
//! header cap, 4 MiB body cap, 5 s socket timeouts. Both caps are
//! enforced with [`Read::take`] on the raw stream, so a peer that never
//! sends a line terminator cannot buffer more than the cap into memory.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use scalesim_telemetry::{Counter, Gauge, Histogram};

use crate::engine::Engine;
use crate::job::{JobError, SimJob};
use crate::json::Json;

const MAX_HEADER_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// Tunables for a [`Server`]. `..Default::default()` keeps the historical
/// behavior everywhere a knob is not set explicitly.
#[derive(Debug, Clone, Copy)]
pub struct ServerOptions {
    /// Maximum connection threads, which is the maximum of connections
    /// served at once; the set grows to it only under that much
    /// concurrency, and excess connections wait in the TCP accept backlog
    /// (minimum 1).
    pub max_connections: usize,
    /// Deadline applied to `/simulate` and `/sweep` requests that carry
    /// no `X-Scalesim-Deadline-Ms` header; `None` waits indefinitely.
    pub default_deadline: Option<Duration>,
    /// Per-socket read/write timeout.
    pub socket_timeout: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            max_connections: 256,
            default_deadline: Some(Duration::from_secs(120)),
            socket_timeout: Duration::from_secs(5),
        }
    }
}

/// The `route` label of each latency histogram, indexed by
/// [`route_index`]: a bounded set, which caps the metric's cardinality.
const ROUTE_LABELS: [&str; 9] = [
    "simulate",
    "sweep",
    "explore",
    "stats",
    "healthz",
    "metrics",
    "debug_jobs",
    "debug_trace",
    "other",
];

/// The index in [`ROUTE_LABELS`] of a request path; unknown paths —
/// including unparseable requests — collapse into `other`.
fn route_index(path: &str) -> usize {
    match path {
        "/simulate" => 0,
        "/sweep" => 1,
        "/explore" => 2,
        "/stats" => 3,
        "/healthz" => 4,
        "/metrics" => 5,
        "/debug/jobs" => 6,
        "/debug/trace" => 7,
        _ => 8,
    }
}

/// The set of `http-conn` threads and the listener they share.
struct ConnThreads {
    /// The listening socket while serving; `None` once the server has
    /// stopped. A thread clones the `Arc` to block in `accept()` and drops
    /// the clone as soon as `accept()` returns, so the socket closes when
    /// [`ServerHandle::stop_accepting`] has seen every thread that is not
    /// `busy` exit and dropped the reference it took from here.
    listener: Option<Arc<TcpListener>>,
    /// Threads alive; never more than [`ServerOptions::max_connections`].
    alive: usize,
    /// Threads that hold a connection and may yet wait on its peer or on
    /// the engine (see [`Busy`]). The others are in `accept()` or get
    /// there without waiting on anything but the processor.
    busy: usize,
}

/// Shared per-server state handed to every connection thread.
struct Context {
    engine: Engine,
    started: Instant,
    request_seq: AtomicU64,
    options: ServerOptions,
    /// Set once drain begins: `/healthz` reports `draining`.
    draining: AtomicBool,
    threads: Mutex<ConnThreads>,
    /// Signalled when `alive` falls, which
    /// [`ServerHandle::stop_accepting`] waits for.
    thread_left: Condvar,
    connections: Arc<Gauge>,
    accept_errors: Arc<Counter>,
    /// `scalesim_http_request_seconds`, one series per [`ROUTE_LABELS`]
    /// entry.
    latency: [Arc<Histogram>; ROUTE_LABELS.len()],
}

impl Context {
    /// Every update of [`ConnThreads`] is one assignment, so the counts
    /// are valid even if a holder of the lock panicked.
    fn threads(&self) -> MutexGuard<'_, ConnThreads> {
        self.threads.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A bound, not-yet-serving HTTP server.
pub struct Server {
    listener: TcpListener,
    context: Arc<Context>,
}

/// Handle to a serving [`Server`]; stops it hard via [`ServerHandle::stop`]
/// or gracefully via [`ServerHandle::drain`].
pub struct ServerHandle {
    addr: SocketAddr,
    context: Arc<Context>,
}

impl Server {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) with
    /// default [`ServerOptions`].
    pub fn bind(addr: &str, engine: Engine) -> std::io::Result<Server> {
        Server::bind_with(addr, engine, ServerOptions::default())
    }

    /// Binds with explicit [`ServerOptions`].
    pub fn bind_with(
        addr: &str,
        engine: Engine,
        options: ServerOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let registry = engine.registry();
        let connections = registry.gauge(
            "scalesim_http_connections_active",
            "HTTP connections currently being served.",
        );
        let accept_errors = registry.counter(
            "scalesim_http_accept_errors_total",
            "Accept-loop errors (e.g. fd exhaustion); each backs off briefly.",
        );
        let buckets = Histogram::duration_buckets();
        let latency = ROUTE_LABELS.map(|route| {
            registry.histogram_with(
                "scalesim_http_request_seconds",
                "HTTP request latency from first byte read to response write.",
                &buckets,
                &[("route", route)],
            )
        });
        Ok(Server {
            listener,
            context: Arc::new(Context {
                engine,
                started: Instant::now(),
                request_seq: AtomicU64::new(0),
                options,
                draining: AtomicBool::new(false),
                threads: Mutex::new(ConnThreads {
                    listener: None,
                    alive: 0,
                    busy: 0,
                }),
                thread_left: Condvar::new(),
                connections,
                accept_errors,
                latency,
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// Serves until the returned handle is stopped or drained, on
    /// `http-conn` threads that each accept and serve: this starts the
    /// first, and the set grows with the load up to
    /// [`ServerOptions::max_connections`] (see the module's *Connection
    /// threads*).
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr();
        *self.context.threads() = ConnThreads {
            listener: Some(Arc::new(self.listener)),
            alive: 1,
            busy: 0,
        };
        spawn_conn_thread(&self.context).expect("spawn the first http connection thread");
        ServerHandle {
            addr,
            context: self.context,
        }
    }
}

/// Starts one `http-conn` thread, which the caller has already counted in
/// [`ConnThreads::alive`]; on failure the count is given back. The thread
/// is detached: a hard stop does not wait for the connection it may be in.
fn spawn_conn_thread(context: &Arc<Context>) -> std::io::Result<()> {
    let member = Arc::clone(context);
    let spawned = std::thread::Builder::new()
        .name("http-conn".into())
        .spawn(move || conn_thread(&member));
    if spawned.is_err() {
        context.threads().alive -= 1;
    }
    spawned.map(drop)
}

/// Gives a thread's place in [`ConnThreads::alive`] back however the
/// thread ends.
struct Member<'a>(&'a Context);

impl Drop for Member<'_> {
    fn drop(&mut self) {
        self.0.threads().alive -= 1;
        self.0.thread_left.notify_all();
    }
}

/// Counts one connection in `scalesim_http_connections_active` until
/// dropped, unwinding included.
struct ActiveConnection<'a>(&'a Gauge);

impl<'a> ActiveConnection<'a> {
    fn new(gauge: &'a Gauge) -> ActiveConnection<'a> {
        gauge.add(1);
        ActiveConnection(gauge)
    }
}

impl Drop for ActiveConnection<'_> {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// A connection thread's mark in [`ConnThreads::busy`], given back when
/// dropped, unwinding included. Taking the mark is what grows the set: a
/// thread that finds every thread busy starts one more while the cap has
/// room, so that a request is never queued behind a peer or a simulation
/// somebody else waits on. The mark is released *before* the reply is
/// written (see [`write_reply`]), not when the thread is back in
/// `accept()`: the client's next connection can arrive before the thread
/// that answered it has run again, and must not count that thread busy.
struct Busy<'a> {
    context: &'a Arc<Context>,
    held: bool,
}

impl<'a> Busy<'a> {
    fn new(context: &'a Arc<Context>) -> Busy<'a> {
        let mut busy = Busy {
            context,
            held: false,
        };
        busy.hold();
        busy
    }

    fn hold(&mut self) {
        debug_assert!(!self.held);
        self.held = true;
        let context = self.context;
        let grow = {
            let mut threads = context.threads();
            threads.busy += 1;
            let grow = threads.busy == threads.alive
                && threads.listener.is_some()
                && threads.alive < context.options.max_connections;
            threads.alive += usize::from(grow);
            grow
        };
        if grow {
            if let Err(e) = spawn_conn_thread(context) {
                eprintln!("error: http-conn thread not started: {e}");
            }
        }
    }

    fn release(&mut self) {
        if std::mem::take(&mut self.held) {
            self.context.threads().busy -= 1;
        }
    }
}

impl Drop for Busy<'_> {
    fn drop(&mut self) {
        self.release();
    }
}

/// The life of one `http-conn` thread: accept, serve the connection to
/// completion, accept again, until the server stops.
fn conn_thread(context: &Arc<Context>) {
    let _member = Member(context);
    // Accept-error backoff: under fd exhaustion (EMFILE) `accept` fails
    // continuously; sleeping between retries keeps the thread from
    // spinning at 100% CPU while the condition lasts.
    let mut backoff = Duration::from_millis(1);
    loop {
        // A stopped server has no listener: looked for before blocking...
        let Some(listener) = context.threads().listener.clone() else {
            return;
        };
        let accepted = listener.accept();
        drop(listener);
        // ...and after waking, which is how `stop_accepting` gets the
        // blocked threads out.
        if context.threads().listener.is_none() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                backoff = Duration::from_millis(1);
                let _active = ActiveConnection::new(&context.connections);
                let mut busy = Busy::new(context);
                // A handler that unwinds costs its connection (the stream
                // closes unanswered), not this thread.
                let handler = AssertUnwindSafe(|| handle_connection(&stream, context, &mut busy));
                if catch_unwind(handler).is_err() {
                    eprintln!(
                        "error: request handler panicked; its connection was closed unanswered"
                    );
                }
            }
            Err(_) => {
                context.accept_errors.inc();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
        }
    }
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this server fronts (e.g. to dump its flight recorder
    /// before a drain).
    pub fn engine(&self) -> &Engine {
        &self.context.engine
    }

    /// Gracefully drains the server: `/healthz` flips to `draining`, the
    /// engine sheds new jobs with [`JobError::ShuttingDown`] (HTTP 503)
    /// while already-queued work completes, and the connection threads
    /// keep answering probes until in-flight work and connections finish
    /// or `grace` expires; then the listener is closed as by
    /// [`ServerHandle::stop`]. Returns `true` if everything drained within
    /// the grace period.
    pub fn drain(self, grace: Duration) -> bool {
        self.context.draining.store(true, Ordering::SeqCst);
        self.context.engine.shutdown();
        let deadline = Instant::now() + grace;
        let drained = loop {
            if self.context.engine.is_idle() && self.context.connections.get() <= 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        self.stop_accepting();
        drained
    }

    /// Stops accepting: when this returns the listener is closed (a
    /// connect is refused, the port can be bound again) and no thread is
    /// left in `accept()`. A thread inside a connection finishes its reply
    /// and exits. (Hard stop: does not wait for those — use
    /// [`ServerHandle::drain`] for a graceful exit.)
    pub fn stop(self) {
        self.stop_accepting();
    }

    fn stop_accepting(&self) {
        let mut threads = self.context.threads();
        let listener = threads.listener.take();
        // A busy thread looks for the listener before it accepts again and
        // exits by itself; the others may be in `accept()`.
        while threads.alive > threads.busy {
            // One connection wakes one thread blocked in `accept()`, which
            // sees the listener gone and leaves.
            let idle = threads.alive - threads.busy;
            drop(threads);
            for _ in 0..idle {
                let _ = TcpStream::connect(self.addr);
            }
            // The timeout covers a wake-up lost to a full backlog, and a
            // thread that turned busy again in `write_reply`.
            (threads, _) = self
                .context
                .thread_left
                .wait_timeout_while(
                    self.context.threads(),
                    Duration::from_millis(50),
                    |threads| threads.alive > threads.busy,
                )
                .unwrap_or_else(PoisonError::into_inner);
        }
        // The last reference: this closes the socket.
        drop(listener);
    }
}

/// One routed response: status, extra headers, content type, body.
struct Routed {
    status: u16,
    headers: Vec<(&'static str, String)>,
    content_type: &'static str,
    body: String,
}

impl Routed {
    fn json(status: u16, body: String) -> Routed {
        Routed {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body,
        }
    }
}

/// One parsed request off the wire.
struct Request {
    method: String,
    path: String,
    body: String,
    request_id: Option<String>,
    /// Client deadline from `X-Scalesim-Deadline-Ms`, if sent.
    deadline_ms: Option<u64>,
}

fn handle_connection(
    stream: &TcpStream,
    context: &Context,
    busy: &mut Busy<'_>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(context.options.socket_timeout))?;
    stream.set_write_timeout(Some(context.options.socket_timeout))?;
    // `take` bounds what a peer can make us buffer: a request line or
    // header sent without `\n` hits the cap as a clean EOF instead of
    // growing a String without limit. The limit is raised to the body cap
    // once headers are in.
    let mut reader = BufReader::new(stream.take(MAX_HEADER_BYTES as u64));
    let received = Instant::now();

    // Malformed requests flow through the same response/telemetry tail as
    // routed ones — id header, latency histogram — so attack traffic is
    // visible in `/metrics`.
    let (path, request_id, routed) = match read_request(&mut reader) {
        Ok(req) => {
            let request_id = req.request_id.clone().unwrap_or_else(|| mint_id(context));
            let deadline = req
                .deadline_ms
                .map(Duration::from_millis)
                .or(context.options.default_deadline)
                .map(|budget| received + budget);
            let routed = route(context, &req, deadline, &request_id);
            (req.path, request_id, routed)
        }
        Err(msg) => (
            "-".to_owned(),
            mint_id(context),
            Routed::json(400, error_body(&msg).to_string()),
        ),
    };

    let mut headers: Vec<(&str, &str)> = vec![("X-Scalesim-Request-Id", &request_id)];
    headers.extend(routed.headers.iter().map(|(k, v)| (*k, v.as_str())));

    // Observe latency *before* writing the response: once the client has
    // the body it may immediately scrape `/metrics` and must see this
    // request in the histogram. (The wire time is not in `elapsed`, but
    // the histogram's contract is request handling, not socket flush.)
    context.latency[route_index(&path)].observe_duration(received.elapsed());
    let reply = render_reply(routed.status, &headers, routed.content_type, &routed.body);
    write_reply(stream, reply.as_bytes(), busy)
}

fn mint_id(context: &Context) -> String {
    format!(
        "{:x}-{}",
        std::process::id(),
        context.request_seq.fetch_add(1, Ordering::Relaxed)
    )
}

fn route(context: &Context, req: &Request, deadline: Option<Instant>, request_id: &str) -> Routed {
    let engine = &context.engine;
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let draining = context.draining.load(Ordering::SeqCst);
            Routed::json(
                200,
                Json::obj(vec![
                    (
                        "status",
                        Json::str(if draining { "draining" } else { "ok" }),
                    ),
                    ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                    (
                        "uptime_seconds",
                        Json::Int(context.started.elapsed().as_secs().into()),
                    ),
                ])
                .to_string(),
            )
        }
        ("GET", "/stats") => Routed::json(200, engine.stats().to_json().to_string()),
        ("GET", "/metrics") => {
            // Engine-scoped metrics first, then the process-global
            // registry (layer cache, demand volume, trace ring).
            let mut text = engine.registry().render();
            text.push_str(&scalesim_telemetry::global().render());
            Routed {
                status: 200,
                headers: Vec::new(),
                content_type: "text/plain; version=0.0.4",
                body: text,
            }
        }
        ("POST", "/simulate") => {
            let job = Json::parse(&req.body)
                .map_err(|e| JobError::bad_request(format!("invalid JSON: {e}")))
                .and_then(|json| SimJob::from_json(&json));
            match job {
                Err(e) => error_response(&e),
                Ok(job) => match engine.run_with_context(
                    &job,
                    deadline,
                    crate::engine::JobContext {
                        route: "/simulate",
                        request_id,
                    },
                ) {
                    Ok((result, served)) => Routed {
                        status: 200,
                        headers: vec![("X-Scalesim-Cache", served.tag().to_owned())],
                        content_type: "application/json",
                        body: result.to_json().to_string(),
                    },
                    Err(e) => error_response(&e),
                },
            }
        }
        ("POST", "/sweep") => {
            let plan = Json::parse(&req.body)
                .map_err(|e| JobError::bad_request(format!("invalid JSON: {e}")))
                .and_then(|json| crate::sweep::run_sweep(engine, &json, deadline, request_id));
            match plan {
                Ok(response) => Routed::json(200, response.to_string()),
                Err(e) => error_response(&e),
            }
        }
        ("POST", "/explore") => {
            let outcome = Json::parse(&req.body)
                .map_err(|e| JobError::bad_request(format!("invalid JSON: {e}")))
                .and_then(|json| crate::explore::run_explore(engine, &json, deadline, request_id));
            match outcome {
                Ok(response) => Routed::json(200, response.to_string()),
                Err(e) => error_response(&e),
            }
        }
        ("GET", "/debug/jobs") => {
            let records: Vec<Json> = engine
                .recent_jobs()
                .iter()
                .map(crate::engine::JobRecord::to_json)
                .collect();
            Routed::json(
                200,
                Json::obj(vec![
                    (
                        "capacity",
                        Json::Int((crate::engine::FLIGHT_RECORDER_CAPACITY as u64).into()),
                    ),
                    ("jobs", Json::Arr(records)),
                ])
                .to_string(),
            )
        }
        ("GET", "/debug/trace") => {
            let mut buf: Vec<u8> = Vec::new();
            match scalesim_telemetry::trace::export_chrome_json(&mut buf) {
                Ok(()) => Routed::json(
                    200,
                    String::from_utf8(buf).unwrap_or_else(|e| {
                        error_body(&format!("trace export was not UTF-8: {e}")).to_string()
                    }),
                ),
                Err(e) => Routed::json(
                    500,
                    error_body(&format!("trace export failed: {e}")).to_string(),
                ),
            }
        }
        #[cfg(test)]
        ("GET", "/debug/panic") => panic!("injected handler panic"),
        ("GET" | "POST", _) => Routed::json(404, error_body("no such route").to_string()),
        _ => Routed::json(405, error_body("method not allowed").to_string()),
    }
}

/// Maps a [`JobError`] to its HTTP response. Shedding outcomes carry a
/// `Retry-After` header (whole seconds, rounded up) so well-behaved
/// clients back off instead of hammering an overloaded or draining server.
fn error_response(e: &JobError) -> Routed {
    let body = error_body(&e.to_string()).to_string();
    match e {
        JobError::BadRequest(_) => Routed::json(400, body),
        JobError::Internal(_) => Routed::json(500, body),
        JobError::Overloaded { retry_after_ms } => Routed {
            status: 503,
            headers: vec![(
                "Retry-After",
                retry_after_ms.div_ceil(1000).max(1).to_string(),
            )],
            content_type: "application/json",
            body,
        },
        JobError::ShuttingDown => Routed {
            status: 503,
            headers: vec![("Retry-After", "1".to_owned())],
            content_type: "application/json",
            body,
        },
        JobError::DeadlineExpired => Routed::json(504, body),
    }
}

fn error_body(msg: &str) -> Json {
    Json::obj(vec![("error", Json::str(msg))])
}

/// Reads one header line into `line`. Errors if the header cap was
/// exhausted before a line terminator arrived — the `take` limit turns an
/// unbounded header into a clean EOF instead of unbounded buffering.
fn read_header_line(
    reader: &mut BufReader<std::io::Take<&TcpStream>>,
    line: &mut String,
    what: &str,
) -> Result<(), String> {
    reader
        .read_line(line)
        .map_err(|e| format!("read {what}: {e}"))?;
    if !line.ends_with('\n') && reader.get_ref().limit() == 0 {
        return Err(format!("headers too large (cap {MAX_HEADER_BYTES} bytes)"));
    }
    Ok(())
}

/// Reads one request off the wire, with both the header block and the body
/// bounded by `Read::take` limits.
fn read_request(reader: &mut BufReader<std::io::Take<&TcpStream>>) -> Result<Request, String> {
    let mut request_line = String::new();
    read_header_line(reader, &mut request_line, "request line")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_owned();
    let path = parts.next().ok_or("request line missing path")?.to_owned();
    let version = parts.next().ok_or("request line missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported protocol `{version}`"));
    }

    let mut content_length: usize = 0;
    let mut request_id = None;
    let mut deadline_ms = None;
    let mut header_bytes = request_line.len();
    loop {
        let mut line = String::new();
        read_header_line(reader, &mut line, "header")?;
        header_bytes += line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err("headers too large".into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad Content-Length `{}`", value.trim()))?;
            } else if name.eq_ignore_ascii_case("x-scalesim-request-id") {
                request_id = Some(value.trim().to_owned());
            } else if name.eq_ignore_ascii_case("x-scalesim-deadline-ms") {
                deadline_ms = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad X-Scalesim-Deadline-Ms `{}`", value.trim()))?,
                );
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err("body too large".into());
    }

    // Headers are in; re-bound the raw stream for the body. Bytes the
    // BufReader already buffered were counted against the header limit.
    reader.get_mut().set_limit(MAX_BODY_BYTES as u64);
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("read body: {e}"))?;
    let body = String::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Request {
        method,
        path,
        body,
        request_id,
        deadline_ms,
    })
}

fn render_reply(
    status: u16,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> String {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    };
    let mut response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        response.push_str(&format!("{name}: {value}\r\n"));
    }
    response.push_str("\r\n");
    response.push_str(body);
    response
}

/// Writes the reply, the last thing a connection does. A reply that fits
/// the socket's send buffer — nearly every one — cannot wait on the peer,
/// so the thread gives up its [`Busy`] mark first and tries without
/// blocking; if the peer has to drain the buffer before the rest goes out,
/// which may take the socket timeout, the thread is busy again while it
/// waits.
fn write_reply(mut stream: &TcpStream, reply: &[u8], busy: &mut Busy<'_>) -> std::io::Result<()> {
    busy.release();
    stream.set_nonblocking(true)?;
    let sent = match stream.write(reply) {
        Ok(sent) => sent,
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => 0,
        Err(e) => return Err(e),
    };
    if sent < reply.len() {
        busy.hold();
        stream.set_nonblocking(false)?;
        stream.write_all(&reply[sent..])?;
    }
    Ok(())
}

/// A tiny blocking HTTP client for tests and the batch tool's self-checks.
pub mod client {
    use super::*;

    /// A parsed HTTP response.
    #[derive(Debug, Clone)]
    pub struct Response {
        /// Status code.
        pub status: u16,
        /// Response headers, lowercased names.
        pub headers: Vec<(String, String)>,
        /// Body text.
        pub body: String,
    }

    impl Response {
        /// Looks up a header value by case-insensitive name.
        pub fn header(&self, name: &str) -> Option<&str> {
            let name = name.to_ascii_lowercase();
            self.headers
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.as_str())
        }
    }

    /// Issues one request against `addr` and reads the full response.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        request_with_headers(addr, method, path, body, &[])
    }

    /// Like [`request`], but sends extra request headers (e.g. a client
    /// `X-Scalesim-Request-Id` to verify the echo path, or an
    /// `X-Scalesim-Deadline-Ms` budget).
    pub fn request_with_headers(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        let body = body.unwrap_or("");
        let extra: String = headers
            .iter()
            .map(|(name, value)| format!("{name}: {value}\r\n"))
            .collect();
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        stream.flush()?;

        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line)?;
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line `{}`", status_line.trim_end()),
                )
            })?;
        let mut headers = Vec::new();
        let mut content_length = None;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_owned();
                if name == "content-length" {
                    content_length = value.parse::<usize>().ok();
                }
                headers.push((name, value));
            }
        }
        let body = match content_length {
            Some(n) => {
                let mut buf = vec![0u8; n];
                reader.read_exact(&mut buf)?;
                String::from_utf8_lossy(&buf).into_owned()
            }
            None => {
                let mut buf = String::new();
                reader.read_to_string(&mut buf)?;
                buf
            }
        };
        Ok(Response {
            status,
            headers,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Shutdown;

    /// `raw`, sent by a peer that then closes its side, as
    /// [`read_request`] reads it off the server's end of the connection.
    fn read(raw: &[u8]) -> Result<Request, String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let raw = raw.to_vec();
        // A writer of its own: a request larger than the socket buffers
        // would block a write made before the read.
        let writer = std::thread::spawn(move || {
            let _ = peer.write_all(&raw);
            let _ = peer.shutdown(Shutdown::Write);
        });
        let (stream, _) = listener.accept().unwrap();
        let request = read_request(&mut BufReader::new((&stream).take(MAX_HEADER_BYTES as u64)));
        drop(stream);
        writer.join().unwrap();
        request
    }

    #[test]
    fn route_index_labels_every_route_and_collapses_the_rest() {
        for (path, label) in [
            ("/simulate", "simulate"),
            ("/sweep", "sweep"),
            ("/explore", "explore"),
            ("/stats", "stats"),
            ("/healthz", "healthz"),
            ("/metrics", "metrics"),
            ("/debug/jobs", "debug_jobs"),
            ("/debug/trace", "debug_trace"),
        ] {
            assert_eq!(ROUTE_LABELS[route_index(path)], label, "{path}");
        }
        // An unparseable request is observed under the path `-`.
        for path in [
            "-",
            "",
            "/",
            "/simulate/",
            "/SIMULATE",
            "/debug",
            "/debug/panic",
        ] {
            assert_eq!(ROUTE_LABELS[route_index(path)], "other", "{path:?}");
        }
    }

    #[test]
    fn job_errors_map_to_their_statuses_with_a_json_error_body() {
        let cases = [
            (JobError::BadRequest("no \"layer\"".into()), 400, None),
            (JobError::Internal("boom".into()), 500, None),
            (JobError::ShuttingDown, 503, Some("1")),
            (JobError::DeadlineExpired, 504, None),
        ];
        for (error, status, retry_after) in cases {
            let routed = error_response(&error);
            assert_eq!(routed.status, status, "{error}");
            assert_eq!(routed.content_type, "application/json");
            let retry = routed
                .headers
                .iter()
                .find(|(name, _)| *name == "Retry-After");
            assert_eq!(
                retry.map(|(_, value)| value.as_str()),
                retry_after,
                "{error}"
            );
            let body = Json::parse(&routed.body).expect("the body is JSON");
            let message = body.get("error").and_then(Json::as_str);
            assert_eq!(message, Some(error.to_string().as_str()));
        }
    }

    #[test]
    fn overloaded_retry_after_is_whole_seconds_rounded_up() {
        for (retry_after_ms, seconds) in [(0, "1"), (1, "1"), (1000, "1"), (1001, "2"), (2500, "3")]
        {
            let routed = error_response(&JobError::Overloaded { retry_after_ms });
            assert_eq!(routed.status, 503);
            assert_eq!(
                routed.headers,
                vec![("Retry-After", seconds.to_owned())],
                "{retry_after_ms} ms"
            );
        }
    }

    #[test]
    fn a_reply_counts_its_body_in_bytes_and_ends_its_headers_once() {
        let reply = render_reply(
            503,
            &[("X-Scalesim-Request-Id", "r1"), ("Retry-After", "2")],
            "application/json",
            "{\"error\":\"µs\"}",
        );
        assert_eq!(
            reply,
            "HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\n\
             Content-Length: 15\r\nConnection: close\r\nX-Scalesim-Request-Id: r1\r\n\
             Retry-After: 2\r\n\r\n{\"error\":\"µs\"}"
        );
        let unknown = render_reply(418, &[], "text/plain", "");
        assert!(unknown.starts_with("HTTP/1.1 418 Unknown\r\n"), "{unknown}");
        assert!(unknown.ends_with("Content-Length: 0\r\nConnection: close\r\n\r\n"));
    }

    #[test]
    fn a_request_reads_its_headers_by_any_case() {
        let request = read(
            b"POST /simulate HTTP/1.1\r\nhost: x\r\nCONTENT-LENGTH: 4\r\n\
              x-scalesim-request-id:  abc \r\nX-Scalesim-Deadline-Ms: 250\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/simulate")
        );
        assert_eq!(request.body, "body");
        assert_eq!(request.request_id.as_deref(), Some("abc"));
        assert_eq!(request.deadline_ms, Some(250));

        let bare = read(b"GET /healthz HTTP/1.0\n\n").unwrap();
        assert_eq!(
            (bare.method.as_str(), bare.path.as_str()),
            ("GET", "/healthz")
        );
        assert_eq!(
            (bare.body.as_str(), bare.request_id, bare.deadline_ms),
            ("", None, None)
        );
    }

    #[test]
    fn a_body_longer_than_the_header_cap_is_read_whole() {
        let body = "x".repeat(MAX_HEADER_BYTES + 4096);
        let raw = format!(
            "POST /sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(read(raw.as_bytes()).unwrap().body, body);
    }

    #[test]
    fn malformed_requests_are_refused_with_their_reason() {
        let refused = |raw: &[u8]| read(raw).err().expect("refused");
        assert_eq!(refused(b""), "empty request line");
        assert_eq!(refused(b"GET\r\n\r\n"), "request line missing path");
        assert_eq!(refused(b"GET /\r\n\r\n"), "request line missing version");
        assert_eq!(
            refused(b"GET / HTTP/2\r\n\r\n"),
            "unsupported protocol `HTTP/2`"
        );
        assert_eq!(
            refused(b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n"),
            "bad Content-Length `-1`"
        );
        assert_eq!(
            refused(b"GET / HTTP/1.1\r\nX-Scalesim-Deadline-Ms: soon\r\n\r\n"),
            "bad X-Scalesim-Deadline-Ms `soon`"
        );
        let too_long = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(refused(too_long.as_bytes()), "body too large");
        assert_eq!(
            refused(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe"),
            "body is not UTF-8"
        );
        let short = refused(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert!(short.starts_with("read body: "), "{short}");
    }

    #[test]
    fn the_header_block_is_capped() {
        // One header line longer than the cap: `take` ends it without a
        // line terminator.
        let endless = format!("GET / HTTP/1.1\r\nX-Pad: {}", "a".repeat(MAX_HEADER_BYTES));
        let refused = read(endless.as_bytes()).err().expect("refused");
        assert_eq!(
            refused,
            format!("headers too large (cap {MAX_HEADER_BYTES} bytes)")
        );
        // Many short lines that add up to more than the cap.
        let line = format!("X-Pad: {}\r\n", "a".repeat(100));
        let many = format!(
            "GET / HTTP/1.1\r\n{}\r\n",
            line.repeat(MAX_HEADER_BYTES / line.len() + 1)
        );
        let refused = read(many.as_bytes()).err().expect("refused");
        assert!(refused.starts_with("headers too large"), "{refused}");
    }

    /// With a single connection thread, losing it to a panic would leave
    /// nobody to answer: a handler that unwinds must cost its connection
    /// only, and leave the gauge and the thread counts as they were.
    #[test]
    fn an_unwinding_handler_costs_its_connection_and_no_thread() {
        let options = ServerOptions {
            max_connections: 1,
            ..ServerOptions::default()
        };
        let server = Server::bind_with("127.0.0.1:0", Engine::new(1, 4), options).unwrap();
        let context = Arc::clone(&server.context);
        let handle = server.spawn();

        for _ in 0..3 {
            let reply = client::request(handle.addr(), "GET", "/debug/panic", None);
            assert!(reply.is_err(), "the connection closes unanswered");
        }
        let health = client::request(handle.addr(), "GET", "/healthz", None).unwrap();
        assert_eq!(health.status, 200);

        // The reply is written before the thread is back in `accept()`.
        let patience = Instant::now() + Duration::from_secs(5);
        while context.threads().busy != 0 || context.connections.get() != 0 {
            assert!(Instant::now() < patience, "the thread never came back");
            std::thread::yield_now();
        }
        assert_eq!(context.threads().alive, 1);

        handle.stop();
        let patience = Instant::now() + Duration::from_secs(5);
        while context.threads().alive != 0 {
            assert!(Instant::now() < patience, "the thread never exited");
            std::thread::yield_now();
        }
    }
}
