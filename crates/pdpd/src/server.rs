//! The serving loop: a blocking `TcpListener` accept thread feeding a fixed
//! worker pool over a bounded channel (plain `std::thread` + channels,
//! deterministic shutdown, no external runtime). Each worker owns a [`PdpPin`],
//! so every connection it serves decides against a pinned snapshot revalidated
//! by one epoch load per call, with no shared lock on the decision path. A
//! worker drops a connection that idles past [`ServerOptions::idle_deadline`]
//! or trickles a request past [`ServerOptions::request_deadline`], so an idle
//! or slow client holds a worker for a bounded time only. A connection that
//! finds [`ServerOptions::accept_queue`] connections already waiting is
//! answered `503` and closed, its write side first and after reading away
//! what it has already sent, so a flood of connections queues no further
//! and a shed client reads the `503`, then EOF.
//! While telemetry is on, each worker times the stages of about one request
//! in 64 into the registry's `pdpd.*` histograms.

use crate::http::{write_response, ConnBuf, HttpError, HttpRequest};
use crate::json::{self, Json};
use crate::wire;
use agenp_core::arch::{PdpHandle, PdpPin, ServeStats};
use agenp_obs::{Histogram, Sampler};
use std::io::{self, Read as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
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

/// Accepted connections that may wait for a worker, per worker thread.
const QUEUED_PER_WORKER: usize = 64;

thread_local! {
    /// Picks the requests this worker times into the `pdpd.*` stage
    /// histograms (see [`Stages::sample`]).
    static STAGE_SAMPLER: Sampler = const { Sampler::new() };
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Worker threads serving connections (minimum 1).
    pub threads: usize,
    /// Socket read timeout; bounds how long shutdown can lag, and sets the
    /// idle and request deadlines.
    pub read_timeout: Duration,
}

impl ServerOptions {
    /// How long a connection may wait for its next request, counted from
    /// its accept or, after a response, from its first timed-out read:
    /// 25 read timeouts. A worker then closes it, so an idle keep-alive
    /// client cannot hold a worker indefinitely.
    pub fn idle_deadline(&self) -> Duration {
        self.read_timeout.saturating_mul(IDLE_DEADLINE_READS)
    }

    /// How long a request may take to arrive in full once it needs a
    /// second read: 50 read timeouts. A worker then answers `408` and
    /// closes the connection, so a client trickling bytes cannot hold a
    /// worker indefinitely either.
    pub fn request_deadline(&self) -> Duration {
        self.read_timeout.saturating_mul(REQUEST_DEADLINE_READS)
    }

    /// How many accepted connections may wait for a worker: 64 per
    /// worker thread. The accept loop answers any connection beyond them
    /// `503` with `Connection: close` and closes it.
    pub fn accept_queue(&self) -> usize {
        QUEUED_PER_WORKER * self.threads.max(1)
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
    /// Connections answered `503` because the accept queue was full
    /// (counted in `connections` too).
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

/// A running PDP daemon. Dropping it (or calling
/// [`PdpdServer::shutdown`]) stops the accept loop, drains the workers,
/// and joins every thread.
#[derive(Debug)]
pub struct PdpdServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
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
        let threads = options.threads.max(1);
        let (tx, rx) = sync_channel::<(TcpStream, Instant)>(options.accept_queue());
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(threads);
        for _ in 0..threads {
            let rx = Arc::clone(&rx);
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let pin = handle.pin();
            let options = options.clone();
            workers.push(std::thread::spawn(move || {
                worker_loop(&rx, &shutdown, &counters, pin, &options);
            }));
        }

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || accept_loop(&listener, &tx, &shutdown, &counters))
        };

        Ok(PdpdServer {
            addr,
            shutdown,
            accept: Some(accept),
            workers,
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
        HttpStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            ok: self.counters.ok.load(Ordering::Relaxed),
            client_errors: self.counters.client_errors.load(Ordering::Relaxed),
            decisions: self.counters.decisions.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting, drains in-flight connections, joins all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Blocks until the server is shut down from another thread (the
    /// standalone daemon's main thread parks here).
    pub fn join(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for PdpdServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    tx: &SyncSender<(TcpStream, Instant)>,
    shutdown: &AtomicBool,
    counters: &HttpCounters,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                counters.connections.fetch_add(1, Ordering::Relaxed);
                // The idle deadline counts from here, so time spent queued
                // behind busy workers counts too.
                match tx.try_send((stream, Instant::now())) {
                    Ok(()) => {}
                    Err(TrySendError::Full((stream, _))) => shed(stream, counters),
                    Err(TrySendError::Disconnected(_)) => return, // every worker is gone
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping `tx` here closes the channel; workers drain and exit.
}

/// Answers a connection the full accept queue cannot take with `503` and
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
        wire::error_body("server busy: accept queue full").as_bytes(),
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

fn worker_loop(
    rx: &Mutex<Receiver<(TcpStream, Instant)>>,
    shutdown: &AtomicBool,
    counters: &HttpCounters,
    mut pin: PdpPin,
    options: &ServerOptions,
) {
    loop {
        // Take the next connection; recv_timeout so shutdown is noticed
        // even when the accept loop is idle.
        let (stream, accepted) = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            match guard.recv_timeout(Duration::from_millis(100)) {
                Ok(s) => s,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    continue;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return,
            }
        };
        let _ = stream.set_read_timeout(Some(options.read_timeout));
        let _ = stream.set_nodelay(true);
        serve_connection(stream, accepted, options, shutdown, counters, &mut pin);
    }
}

/// Serves one connection until close, error, shutdown, or a missed idle
/// or request deadline.
fn serve_connection(
    stream: TcpStream,
    accepted: Instant,
    options: &ServerOptions,
    shutdown: &AtomicBool,
    counters: &HttpCounters,
    pin: &mut PdpPin,
) {
    let write_half = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut write_half = write_half;
    let mut conn = ConnBuf::new(stream).with_request_deadline(options.request_deadline());
    // When the connection went idle: its accept, and after each response
    // the first read that times out (so serving reads no clock).
    let mut idle_since = Some(accepted);
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
            Err(HttpError::DeadlineExceeded) => {
                counters.client_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_response(
                    &mut write_half,
                    408,
                    wire::error_body("request deadline exceeded").as_bytes(),
                    true,
                );
                return;
            }
            Err(HttpError::Malformed(msg)) => {
                counters.client_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_response(
                    &mut write_half,
                    400,
                    wire::error_body(&msg).as_bytes(),
                    true,
                );
                return;
            }
            Err(HttpError::TooLarge(what)) => {
                counters.client_errors.fetch_add(1, Ordering::Relaxed);
                let status = if what == "body" { 413 } else { 431 };
                let _ = write_response(
                    &mut write_half,
                    status,
                    wire::error_body(&format!("{what} too large")).as_bytes(),
                    true,
                );
                return;
            }
            Err(HttpError::Io(_)) => return,
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
            || write_response(&mut write_half, status, body.as_bytes(), !keep_alive),
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
    /// With telemetry on, one tick of this worker's [`STAGE_SAMPLER`]:
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
