//! The serving loop: a blocking `TcpListener` accept thread that serves
//! each connection on a scoped thread of its own (plain `std::thread`,
//! deterministic shutdown, no external runtime). Each connection thread
//! owns a [`PdpPin`], so it decides against a pinned snapshot revalidated
//! by one epoch load per call, with no shared lock on the decision path,
//! and a busy keep-alive client holds its own thread only. A connection
//! that idles past [`ServerOptions::idle_deadline`] or trickles a request
//! past [`ServerOptions::request_deadline`] is closed, so an idle or slow
//! client holds its thread for a bounded time. A connection that finds
//! [`ServerOptions::max_connections`] connections already live, or whose
//! thread fails to start, is answered `503` and closed, its write side
//! first and after reading away what it has already sent, so a flood of
//! connections starts no further threads and a shed client reads the
//! `503`, then EOF.
//! While telemetry is on, each connection thread times the stages of about
//! one request in 64 into the registry's `pdpd.*` histograms.

use crate::http::{write_response, ConnBuf, HttpError, HttpRequest};
use crate::json::{self, Json};
use crate::wire;
use agenp_core::arch::{PdpHandle, PdpPin, ServeStats};
use agenp_obs::{Histogram, Sampler};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Read timeouts a connection may wait between requests before it is
/// closed (5 s at the default 200 ms read timeout).
const IDLE_DEADLINE_READS: u32 = 25;

/// Reads of up to 4 KiB a shed connection's drain makes at most.
const SHED_DRAIN_READS: usize = 16;

/// Read timeouts a request may take to arrive once it needs a second read,
/// before it is answered `408` and its connection closed (10 s at the
/// default read timeout).
const REQUEST_DEADLINE_READS: u32 = 50;

/// Live connections allowed per [`ServerOptions::threads`].
const CONNECTIONS_PER_THREAD: usize = 64;

thread_local! {
    /// Picks the requests this connection thread times into the `pdpd.*`
    /// stage histograms (see [`Stages::sample`]).
    static STAGE_SAMPLER: Sampler = const { Sampler::new() };
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Sizes the connection cap, [`ServerOptions::max_connections`]
    /// (minimum 1). Every connection is served on a thread of its own.
    pub threads: usize,
    /// Socket read timeout; bounds how long shutdown can lag, and sets the
    /// idle and request deadlines.
    pub read_timeout: Duration,
}

impl ServerOptions {
    /// How long a connection may wait for its next request, counted from
    /// its first read that times out, on a fresh connection and after
    /// each response: 25 read timeouts. Its thread then closes it, so an
    /// idle keep-alive client cannot hold a thread indefinitely.
    pub fn idle_deadline(&self) -> Duration {
        self.read_timeout.saturating_mul(IDLE_DEADLINE_READS)
    }

    /// How long a request may take to arrive in full once it needs a
    /// second read: 50 read timeouts. Its thread then answers `408` and
    /// closes the connection, so a client trickling bytes cannot hold a
    /// thread indefinitely either.
    pub fn request_deadline(&self) -> Duration {
        self.read_timeout.saturating_mul(REQUEST_DEADLINE_READS)
    }

    /// How many connections may be live at once: 64 per `threads`. The
    /// accept loop answers any connection beyond them `503` with
    /// `Connection: close` and closes it.
    pub fn max_connections(&self) -> usize {
        CONNECTIONS_PER_THREAD * self.threads.max(1)
    }
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            threads: std::thread::available_parallelism().map_or(2, usize::from),
            read_timeout: Duration::from_millis(200),
        }
    }
}

/// Monotone counters for one running server.
#[derive(Clone, Copy, Debug, Default)]
pub struct HttpStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests answered `2xx`.
    pub ok: u64,
    /// Requests refused `4xx`.
    pub client_errors: u64,
    /// Decisions rendered over HTTP (batch requests count each element).
    pub decisions: u64,
    /// Connections answered `503` because the connection cap was reached
    /// or their thread failed to start (counted in `connections` too).
    pub shed: u64,
}

#[derive(Default, Debug)]
struct HttpCounters {
    connections: AtomicU64,
    ok: AtomicU64,
    client_errors: AtomicU64,
    decisions: AtomicU64,
    shed: AtomicU64,
}

impl HttpCounters {
    fn stats(&self) -> HttpStats {
        HttpStats {
            connections: self.connections.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            client_errors: self.client_errors.load(Ordering::Relaxed),
            decisions: self.decisions.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// A running PDP daemon. Dropping it (or calling
/// [`PdpdServer::shutdown`]) stops the accept loop, lets every connection
/// thread finish, and joins them all.
#[derive(Debug)]
pub struct PdpdServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    counters: Arc<HttpCounters>,
    handle: PdpHandle,
}

impl PdpdServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// serving `handle`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from bind/configure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        handle: PdpHandle,
        options: ServerOptions,
    ) -> io::Result<PdpdServer> {
        let listener = TcpListener::bind(addr)?;
        PdpdServer::serve(listener, handle, options)
    }

    /// Starts serving on an already-bound listener.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from local-address lookup.
    pub fn serve(
        listener: TcpListener,
        handle: PdpHandle,
        options: ServerOptions,
    ) -> io::Result<PdpdServer> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(HttpCounters::default());
        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let handle = handle.clone();
            thread::spawn(move || accept_loop(&listener, &handle, &options, &shutdown, &counters))
        };
        Ok(PdpdServer {
            addr,
            shutdown,
            accept: Some(accept),
            counters,
            handle,
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving handle (e.g. to publish new snapshots while serving).
    pub fn handle(&self) -> &PdpHandle {
        &self.handle
    }

    /// HTTP-level counters.
    pub fn http_stats(&self) -> HttpStats {
        self.counters.stats()
    }

    /// Stops accepting, drains in-flight connections, joins all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join();
    }

    /// Blocks until the server is shut down from another thread (the
    /// standalone daemon's main thread parks here).
    pub fn join(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for PdpdServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Serves one connection's byte stream against `handle` until the stream
/// ends, a fault closes it or a deadline passes, and returns its counters
/// (`connections` reads 1). This is the loop every connection thread of
/// a [`PdpdServer`] runs, so tests can drive the wire protocol in memory.
pub fn serve_stream<S: Read + Write>(
    stream: S,
    handle: &PdpHandle,
    options: &ServerOptions,
) -> HttpStats {
    let counters = HttpCounters {
        connections: AtomicU64::new(1),
        ..HttpCounters::default()
    };
    let shutdown = AtomicBool::new(false);
    serve_connection(stream, options, &shutdown, &counters, &mut handle.pin());
    counters.stats()
}

/// Accepts connections until shutdown, each served on a scoped thread of
/// its own; returns once every connection thread has finished.
fn accept_loop(
    listener: &TcpListener,
    handle: &PdpHandle,
    options: &ServerOptions,
    shutdown: &AtomicBool,
    counters: &HttpCounters,
) {
    let live = AtomicUsize::new(0);
    thread::scope(|scope| {
        while !shutdown.load(Ordering::SeqCst) {
            let Ok((stream, _)) = listener.accept() else {
                // `WouldBlock` (nothing to accept) or a failed accept.
                thread::sleep(Duration::from_millis(5));
                continue;
            };
            counters.connections.fetch_add(1, Ordering::Relaxed);
            if live.load(Ordering::Relaxed) >= options.max_connections() {
                shed(stream, counters);
                continue;
            }
            let mut conn = LiveConn::new(stream, &live, counters);
            // A thread that fails to start drops this closure, and with it
            // `conn`, which sheds the connection.
            let _ = thread::Builder::new().spawn_scoped(scope, move || {
                if let Some(stream) = conn.stream.take() {
                    let _ = stream.set_read_timeout(Some(options.read_timeout));
                    let _ = stream.set_nodelay(true);
                    serve_connection(stream, options, shutdown, counters, &mut handle.pin());
                }
            });
        }
    });
}

/// An accepted connection, counted in `live` until it drops. One that
/// drops still holding its stream was never served (its thread failed to
/// start), so it is shed.
struct LiveConn<'a> {
    stream: Option<TcpStream>,
    live: &'a AtomicUsize,
    counters: &'a HttpCounters,
}

impl<'a> LiveConn<'a> {
    fn new(stream: TcpStream, live: &'a AtomicUsize, counters: &'a HttpCounters) -> LiveConn<'a> {
        live.fetch_add(1, Ordering::Relaxed);
        LiveConn {
            stream: Some(stream),
            live,
            counters,
        }
    }
}

impl Drop for LiveConn<'_> {
    fn drop(&mut self) {
        if let Some(stream) = self.stream.take() {
            shed(stream, self.counters);
        }
        self.live.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Answers a connection the server cannot take with `503` and
/// `Connection: close`, then closes it cleanly: it shuts the write side,
/// so the client reads the answer and then EOF, and reads away what the
/// client has already sent before the socket drops. A socket closed with
/// unread bytes sends a reset instead, which can reach the client ahead of
/// the `503`. A fresh socket's send buffer takes the one write without
/// blocking and the drain never waits, so shedding never stalls the accept
/// loop; bytes that arrive after the drain can still draw a reset.
fn shed(mut stream: TcpStream, counters: &HttpCounters) {
    counters.shed.fetch_add(1, Ordering::Relaxed);
    let _ = write_response(
        &mut stream,
        503,
        wire::error_body("server busy: too many connections").as_bytes(),
        true,
    );
    let _ = stream.shutdown(Shutdown::Write);
    if stream.set_nonblocking(true).is_ok() {
        let mut buf = [0u8; 4096];
        for _ in 0..SHED_DRAIN_READS {
            // EOF, an error or `WouldBlock` (nothing more received yet).
            if !matches!(stream.read(&mut buf), Ok(n) if n > 0) {
                break;
            }
        }
    }
}

/// Serves one connection until close, error, shutdown, or a missed idle
/// or request deadline.
fn serve_connection<S: Read + Write>(
    stream: S,
    options: &ServerOptions,
    shutdown: &AtomicBool,
    counters: &HttpCounters,
    pin: &mut PdpPin,
) {
    let mut conn = ConnBuf::new(stream).with_request_deadline(options.request_deadline());
    // When the connection went idle: its first read that times out, on a
    // fresh connection and after each response (so serving reads no clock).
    let mut idle_since: Option<Instant> = None;
    loop {
        let request = match conn.read_request() {
            Ok(Some(r)) => r,
            Ok(None) => return, // clean close
            Err(HttpError::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if conn.is_idle()
                    && idle_since.get_or_insert_with(Instant::now).elapsed()
                        > options.idle_deadline()
                {
                    return;
                }
                continue;
            }
            Err(fault) => {
                let (status, message) = match fault {
                    HttpError::Malformed(msg) => (400, msg),
                    HttpError::TooLarge(what) => (
                        if what == "body" { 413 } else { 431 },
                        format!("{what} too large"),
                    ),
                    HttpError::DeadlineExceeded => (408, "request deadline exceeded".to_string()),
                    HttpError::TimedOut | HttpError::Io(_) => return,
                };
                counters.client_errors.fetch_add(1, Ordering::Relaxed);
                let body = wire::error_body(&message);
                let _ = write_response(conn.stream_mut(), status, body.as_bytes(), true);
                return;
            }
        };
        idle_since = None;
        let stages = Stages::sample();
        let keep_alive = request.keep_alive;
        let (status, body) = route(pin, counters, &request, &stages);
        if status < 400 {
            counters.ok.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.client_errors.fetch_add(1, Ordering::Relaxed);
        }
        let written = stages.time(
            |m| &m.write,
            || write_response(conn.stream_mut(), status, body.as_bytes(), !keep_alive),
        );
        if written.is_err() {
            return;
        }
        stages.finish();
        if !keep_alive {
            return;
        }
    }
}

/// The daemon's stage histograms in the global registry (`pdpd.*`), named
/// as the stages of a request the repository benchmark replays.
struct StageMetrics {
    json_parse: Arc<Histogram>,
    request_build: Arc<Histogram>,
    encode: Arc<Histogram>,
    write: Arc<Histogram>,
    /// From `read_request` returning to the response written; the
    /// decide itself is `serve.decide_latency_ns`.
    service: Arc<Histogram>,
}

impl StageMetrics {
    fn global() -> &'static StageMetrics {
        static METRICS: OnceLock<StageMetrics> = OnceLock::new();
        METRICS.get_or_init(|| {
            let r = agenp_obs::registry();
            StageMetrics {
                json_parse: r.histogram("pdpd.json_parse_ns"),
                request_build: r.histogram("pdpd.request_build_ns"),
                encode: r.histogram("pdpd.encode_ns"),
                write: r.histogram("pdpd.write_ns"),
                service: r.histogram("pdpd.service_ns"),
            }
        })
    }
}

/// The stage timing of one request: for a sampled request, its start and
/// the histograms it records into; otherwise nothing, and no clock read.
struct Stages(Option<(u64, &'static StageMetrics)>);

impl Stages {
    /// With telemetry on, one tick of this thread's [`STAGE_SAMPLER`]:
    /// about one request in 64, at random gaps, is timed. With telemetry
    /// off, the only cost is one relaxed atomic load.
    fn sample() -> Stages {
        if !agenp_obs::enabled() || STAGE_SAMPLER.with(|s| s.tick(1)).is_none() {
            return Stages(None);
        }
        Stages(Some((agenp_obs::monotonic_ns(), StageMetrics::global())))
    }

    /// Runs `work`, and for a sampled request records its time into the
    /// histogram `stage` picks.
    fn time<T>(&self, stage: fn(&StageMetrics) -> &Histogram, work: impl FnOnce() -> T) -> T {
        let Some((_, metrics)) = self.0 else {
            return work();
        };
        let start = agenp_obs::monotonic_ns();
        let done = work();
        stage(metrics).record(agenp_obs::monotonic_ns().saturating_sub(start));
        done
    }

    /// Records a sampled request's whole service time.
    fn finish(self) {
        if let Some((start, metrics)) = self.0 {
            let elapsed = agenp_obs::monotonic_ns().saturating_sub(start);
            metrics.service.record(elapsed);
        }
    }
}

/// Dispatches one request to its endpoint. Returns `(status, JSON body)`.
fn route(
    pin: &mut PdpPin,
    counters: &HttpCounters,
    request: &HttpRequest,
    stages: &Stages,
) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/decide") => match stages
            .time(|m| &m.json_parse, || parse_body(&request.body))
            .and_then(|v| {
                stages
                    .time(|m| &m.request_build, || wire::request_from_json(&v))
                    .map_err(|e| format!("bad request shape: {e}"))
            }) {
            Ok(req) => {
                let outcome = pin.decide(&req);
                counters.decisions.fetch_add(1, Ordering::Relaxed);
                let body = stages.time(|m| &m.encode, || wire::outcome_to_json(&outcome));
                (200, body)
            }
            Err(msg) => (400, wire::error_body(&msg)),
        },
        ("POST", "/decide_batch") => match parse_batch_body(&request.body, stages) {
            Ok(reqs) => {
                let outcomes = pin.decide_batch(&reqs);
                counters
                    .decisions
                    .fetch_add(outcomes.len() as u64, Ordering::Relaxed);
                let body = stages.time(|m| &m.encode, || wire::batch_to_json(&outcomes));
                (200, body)
            }
            Err(msg) => (400, wire::error_body(&msg)),
        },
        ("GET", "/metrics") => (200, metrics_body(pin.handle().stats(), counters)),
        ("GET", "/healthz") => (200, "{\"ok\": true}".to_string()),
        ("POST" | "GET", "/decide" | "/decide_batch" | "/metrics" | "/healthz") => (
            405,
            wire::error_body(&format!(
                "method {} not allowed on {}",
                request.method, request.path
            )),
        ),
        _ => (404, wire::error_body(&format!("no route {}", request.path))),
    }
}

fn parse_body(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    json::parse(text).map_err(|e| format!("bad JSON: {e}"))
}

fn parse_batch_body(body: &[u8], stages: &Stages) -> Result<Vec<agenp_policy::Request>, String> {
    let value = stages.time(|m| &m.json_parse, || parse_body(body))?;
    let items = value
        .get("requests")
        .and_then(Json::as_arr)
        .ok_or_else(|| "body must be {\"requests\": [...]}".to_string())?;
    stages.time(
        |m| &m.request_build,
        || {
            items
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    wire::request_from_json(v).map_err(|e| format!("bad request at index {i}: {e}"))
                })
                .collect()
        },
    )
}

/// The obs-backed `/metrics` document: per-handle serve stats, HTTP-level
/// counters, and (when telemetry is enabled) the full `agenp-obs` dump.
fn metrics_body(serve: ServeStats, counters: &HttpCounters) -> String {
    let count = |c: &AtomicU64| Json::from(c.load(Ordering::Relaxed));
    let http = Json::obj([
        ("connections", count(&counters.connections)),
        ("ok", count(&counters.ok)),
        ("client_errors", count(&counters.client_errors)),
        ("decisions", count(&counters.decisions)),
        ("shed", count(&counters.shed)),
    ]);
    let serve = [
        ("decisions", serve.decisions),
        ("publishes", serve.publishes),
    ];
    let obs = agenp_obs::enabled().then(|| agenp_obs::snapshot("pdpd.metrics").json());
    Json::obj([
        ("serve", Json::obj(serve.map(|(k, v)| (k, v.into())))),
        ("http", http),
        ("obs", obs.into()),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_connection_whose_thread_never_starts_is_shed() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let (stream, _) = listener.accept().expect("accept");
        let live = AtomicUsize::new(0);
        let counters = HttpCounters::default();
        let conn = LiveConn::new(stream, &live, &counters);
        assert_eq!(live.load(Ordering::Relaxed), 1);
        // A failed `spawn_scoped` drops its closure, and the connection in
        // it, unrun.
        drop(move || drop(conn));
        assert_eq!(live.load(Ordering::Relaxed), 0);
        assert_eq!(counters.stats().shed, 1);
        let mut answer = String::new();
        client.read_to_string(&mut answer).expect("a 503, then EOF");
        assert!(
            answer.starts_with("HTTP/1.1 503 Service Unavailable\r\n")
                && answer.contains("\r\nConnection: close\r\n"),
            "{answer}"
        );
    }
}
