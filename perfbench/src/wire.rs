//! `wire-hot`: `POST /decide` over one keep-alive loopback connection to an
//! in-process `PdpdServer` with one worker, 128 distinct XACML requests,
//! telemetry off. The worker's pin cache answers nearly every request, so
//! the time goes to HTTP, JSON, and socket work.
//!
//! The HTTP client is the benchmark's own, so an edit to pdpd's load
//! client cannot move the yardstick. From pdpd the benchmark uses only
//! `PdpdServer` and the public stage functions it replays when tracing.

use crate::calib::{self, Calibrator, Speedometer};
use crate::report::{Report, Windows};
use crate::stats::{self, nanos, Sample};
use crate::trace::Tracer;
use crate::Args;
use agenp_core::arch::{DecisionSnapshot, PdpHandle};
use agenp_core::scenarios::xacml::{self, XacmlRequest, ACTIONS, RESOURCE_TYPES, ROLES};
use agenp_pdpd::http::{write_response, ConnBuf};
use agenp_pdpd::{json, wire, PdpdServer, ServerOptions};
use agenp_policy::{CombiningAlg, Decision};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Distinct requests in the mix.
const DISTINCT: usize = 128;
/// Set-ups per run; the run reports their median.
const SETUPS: usize = 7;
/// Warm-up passes over the request mix inside each set-up.
const WARMUP_PASSES: usize = 16;
/// Measured time per window.
const WINDOW_NS: u64 = 250_000_000;
/// Publish-to-adoption probes after each window.
const PROBES_PER_WINDOW: usize = 12;
/// When tracing, every `REPLAY_EVERY`-th request is replayed stage by
/// stage after the measured loop.
const REPLAY_EVERY: usize = 8;
/// How much more than the calibration kernel a slow phase of the machine
/// slows a request: raw request times followed the kernel's speed to a
/// power of about 1.2 over runs (see `calib`).
const SENSITIVITY: f64 = 1.25;

/// One request of the mix: its wire bytes and the oracle's decision.
struct Shot {
    payload: Vec<u8>,
    expected: Decision,
}

/// The wire form of an XACML request (the benchmark's own encoder).
fn request_json(r: &XacmlRequest) -> String {
    format!(
        "{{\"subject\": {{\"role\": \"{}\", \"age\": {}}}, \"resource\": {{\"type\": \"{}\"}}, \
         \"action\": {{\"action-id\": \"{}\"}}}}",
        ROLES[r.role], r.age, RESOURCE_TYPES[r.rtype], ACTIONS[r.action]
    )
}

fn shots(seed: u64) -> Vec<Shot> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5749_5245);
    let mut seen: Vec<XacmlRequest> = Vec::with_capacity(DISTINCT);
    while seen.len() < DISTINCT {
        let r = XacmlRequest::random(&mut rng);
        if !seen.contains(&r) {
            seen.push(r);
        }
    }
    seen.iter()
        .map(|r| {
            let body = request_json(r);
            let payload = format!(
                "POST /decide HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes();
            Shot {
                payload,
                expected: xacml::oracle(r),
            }
        })
        .collect()
}

/// A blocking keep-alive HTTP/1.1 client for one request in flight.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// The fields of a `/decide` response the checks need.
#[derive(Debug, PartialEq, Eq)]
struct Answer {
    status: u16,
    decision: String,
    epoch: u64,
    cached: bool,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    /// Sends one request and reads its response.
    fn roundtrip(&mut self, payload: &[u8]) -> io::Result<Answer> {
        self.stream.write_all(payload)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let (head_end, body_len) = loop {
            if let Some(end) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break (end, content_length(&self.buf[..end])?);
            }
            self.fill(&mut chunk)?;
        };
        let body_start = head_end + 4;
        while self.buf.len() < body_start + body_len {
            self.fill(&mut chunk)?;
        }
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(invalid)?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let body =
            std::str::from_utf8(&self.buf[body_start..body_start + body_len]).map_err(invalid)?;
        Ok(parse_answer(status, body))
    }

    fn fill(&mut self, chunk: &mut [u8]) -> io::Result<()> {
        let n = self.stream.read(chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn content_length(head: &[u8]) -> io::Result<usize> {
    let head = std::str::from_utf8(head).map_err(invalid)?;
    head.split("\r\n")
        .find_map(|line| {
            let (name, value) = line.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())
                .flatten()
        })
        .ok_or_else(|| invalid("no content-length"))
}

/// Pulls `decision`, `epoch` and `cached` out of a `/decide` body.
fn parse_answer(status: u16, body: &str) -> Answer {
    let field = |key: &str| -> &str {
        let Some(at) = body.find(&format!("\"{key}\": ")) else {
            return "";
        };
        let rest = &body[at + key.len() + 4..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().trim_matches('"')
    };
    Answer {
        status,
        decision: field("decision").to_owned(),
        epoch: field("epoch").parse().unwrap_or(0),
        cached: field("cached") == "true",
    }
}

/// A bound server, its handle, and one connected client.
struct Rig {
    // Declared first so it drops first: the worker sees the close and
    // frees itself before the server's shutdown joins it.
    client: Client,
    server: PdpdServer,
    handle: PdpHandle,
}

fn snapshot() -> DecisionSnapshot {
    DecisionSnapshot::new(
        vec![xacml::ground_truth_policy()],
        CombiningAlg::DenyOverrides,
    )
}

/// Binds, publishes, connects and warms up; returns the rig and its time.
fn set_up(shots: &[Shot], report: &mut Report) -> io::Result<(Rig, Duration)> {
    let started = Instant::now();
    let handle = PdpHandle::new();
    handle.publish(snapshot());
    let options = ServerOptions {
        threads: 1,
        ..ServerOptions::default()
    };
    let server = PdpdServer::bind("127.0.0.1:0", handle.clone(), options)?;
    let mut client = Client::connect(server.addr())?;
    for _ in 0..WARMUP_PASSES {
        for shot in shots {
            let answer = client.roundtrip(&shot.payload)?;
            check(&answer, shot, &mut 0, report);
        }
    }
    let took = started.elapsed();
    Ok((
        Rig {
            client,
            server,
            handle,
        },
        took,
    ))
}

/// Checks one answer against the oracle and the epoch order.
fn check(answer: &Answer, shot: &Shot, last_epoch: &mut u64, report: &mut Report) {
    report.attempted += 1;
    if answer.status != 200 {
        report.fail(format!("status {}", answer.status));
    } else if answer.decision != shot.expected.to_string() {
        report.fail(format!(
            "decision {} where the oracle says {}",
            answer.decision, shot.expected
        ));
    } else if answer.epoch < *last_epoch {
        report.fail(format!(
            "epoch went back from {last_epoch} to {}",
            answer.epoch
        ));
    }
    *last_epoch = (*last_epoch).max(answer.epoch);
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    match run_inner(args, &mut report) {
        Ok(()) => {}
        Err(e) => report.fail(format!("wire-hot I/O error: {e}")),
    }
    report.provenance("distinct_requests", DISTINCT);
    report.provenance("server_threads", 1);
    report.provenance("connections", 1);
    report.provenance("calibration_connections", 1);
    report.provenance("telemetry", "off");
    report
}

fn run_inner(args: &Args, report: &mut Report) -> io::Result<()> {
    agenp_obs::install(agenp_obs::ObsConfig::disabled());
    // Client and server share one CPU (see `affinity`).
    let (cpu, _) = crate::affinity::pin_here()?;
    report.provenance("pinned_cpu", cpu);
    let shots = shots(args.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut speed = Speedometer::with(Calibrator::with_loopback()?).with_sensitivity(SENSITIVITY);
    let mut rig = None;
    for _ in 0..SETUPS {
        // Close the previous rig before timing the next set-up.
        drop(rig.take());
        let (r, took) = set_up(&shots, report)?;
        setups.push(took.as_secs_f64() * speed.interval());
        rig = Some(r);
    }
    let mut rig = rig.expect("at least one set-up");

    // The request sequence: uniform draws from the mix.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x0068_6f74);
    let order: Vec<usize> = (0..1 << 16).map(|_| rng.gen_range(0..DISTINCT)).collect();

    let mut tracer = args.trace.then(Tracer::new);
    // Requests to replay stage by stage once the measured loop is over:
    // `(request id, shot)`.
    let mut to_replay = Vec::new();
    let mut windows = Windows::calibrated_with(WINDOW_NS, speed);
    let mut probes = Probes::default();
    let mut last_epoch = 0u64;
    let (mut requests, mut hits) = (0u64, 0u64);
    let deadline = Instant::now() + args.window();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let shot = &shots[order[i % order.len()]];
        let started = Instant::now();
        let answer = rig.client.roundtrip(&shot.payload)?;
        let finished = Instant::now();
        let ns = nanos(finished - started);
        windows.sample(ns);
        let closed = windows.add(1, ns);
        requests += 1;
        hits += u64::from(answer.cached);
        check(&answer, shot, &mut last_epoch, report);
        if let Some(t) = tracer.as_mut() {
            let id = i as u64;
            t.record(
                "wire.request",
                t.ns_at(started),
                t.ns_at(finished),
                None,
                id,
            );
            if i.is_multiple_of(REPLAY_EVERY) {
                to_replay.push((id, order[i % order.len()]));
            }
        }
        i += 1;
        if closed {
            let speed = windows.factor_now();
            for k in 0..PROBES_PER_WINDOW {
                let shot = &shots[order[(i + k) % order.len()]];
                probes.run(&mut rig, shot, speed, &mut last_epoch, report)?;
            }
        }
    }
    let adopt = Sample::new(probes.adopt);

    if let Some(mut t) = tracer {
        let traced = t
            .self_time_by_request("wire.request")
            .into_values()
            .collect();
        let mut r = Replay::new(&rig.handle);
        for (id, shot) in to_replay {
            r.stages(&mut t, id, &shots[shot].payload, report);
        }
        r.finish(&t, &Sample::new(traced), report);
        report.ns_pair("serve.publish_ns", &Sample::new(probes.publish));
        report.ns_pair("serve.adopt_lag_ns", &Sample::new(probes.lag));
        report.metric(
            "serve.cache_hit_ratio",
            hits as f64 / requests.max(1) as f64,
            "ratio",
            Some(requests as usize),
        );
        report.metric(
            "serve.invalidations",
            rig.handle.stats().invalidations as f64,
            "count",
            None,
        );
        report.metric("policy.rules", 4.0, "count", None);
    } else {
        report.end_to_end(setups, &windows.summary(), &adopt);
    }
    drop(rig.client);
    rig.server.shutdown();
    report.provenance("requests", requests);
    report.provenance("cache_hit_ratio", hits as f64 / requests.max(1) as f64);
    Ok(())
}

/// Publish-to-adoption probes: publish a new epoch, then decide over the
/// wire until a response carries it. They run between windows, so the
/// windows' figures exclude them.
#[derive(Default)]
struct Probes {
    /// At nominal machine speed; `publish` and `lag` as measured.
    adopt: Vec<u64>,
    publish: Vec<u64>,
    lag: Vec<u64>,
}

impl Probes {
    fn run(
        &mut self,
        rig: &mut Rig,
        shot: &Shot,
        speed: f64,
        last_epoch: &mut u64,
        report: &mut Report,
    ) -> io::Result<()> {
        let next = snapshot();
        let started = Instant::now();
        let epoch = rig.handle.publish(next);
        let published = Instant::now();
        loop {
            let answer = rig.client.roundtrip(&shot.payload)?;
            check(&answer, shot, last_epoch, report);
            if answer.epoch >= epoch {
                break;
            }
        }
        let done = Instant::now();
        self.adopt.push(calib::adjust(nanos(done - started), speed));
        self.publish.push(nanos(published - started));
        self.lag.push(nanos(done - published));
        Ok(())
    }
}

/// Staged replay of the server's work on one request: the same public
/// stage functions on the same bytes, each timed as a child span.
struct Replay {
    pin: agenp_core::arch::PdpPin,
    bytes_in: Vec<u64>,
    bytes_out: Vec<u64>,
}

/// The replayed stages, in order; their p50s plus the residual make up
/// the traced request's p50 (requests and replays are both as measured).
const STAGES: [&str; 6] = [
    "pdpd.read_ns",
    "pdpd.json_parse_ns",
    "pdpd.request_build_ns",
    "serve.decide_ns",
    "pdpd.encode_ns",
    "pdpd.write_ns",
];

impl Replay {
    fn new(handle: &PdpHandle) -> Replay {
        Replay {
            pin: handle.pin(),
            bytes_in: Vec::new(),
            bytes_out: Vec::new(),
        }
    }

    fn stages(&mut self, t: &mut Tracer, id: u64, payload: &[u8], report: &mut Report) {
        let replay = t.open("wire.replay", None, id);
        self.run_stages(t, Some(replay), id, payload, report);
        t.close(replay);
    }

    fn run_stages(
        &mut self,
        t: &mut Tracer,
        parent: Option<usize>,
        id: u64,
        payload: &[u8],
        report: &mut Report,
    ) {
        let request = t.time("pdpd.read_ns", parent, id, || {
            ConnBuf::new(io::Cursor::new(payload)).read_request()
        });
        let Ok(Some(request)) = request else {
            report.fail("replay: request did not parse".into());
            return;
        };
        let value = t.time("pdpd.json_parse_ns", parent, id, || {
            json::parse(std::str::from_utf8(&request.body).unwrap_or(""))
        });
        let Ok(value) = value else {
            report.fail("replay: body is not JSON".into());
            return;
        };
        let Ok(req) = t.time("pdpd.request_build_ns", parent, id, || {
            wire::request_from_json(&value)
        }) else {
            report.fail("replay: request shape rejected".into());
            return;
        };
        let outcome = t.time("serve.decide_ns", parent, id, || self.pin.decide(&req));
        let body = t.time("pdpd.encode_ns", parent, id, || {
            wire::outcome_to_json(&outcome)
        });
        let mut out = Vec::with_capacity(256);
        let written = t.time("pdpd.write_ns", parent, id, || {
            write_response(&mut out, 200, body.as_bytes(), false)
        });
        if written.is_err() {
            report.fail("replay: response write failed".into());
        }
        self.bytes_in.push(payload.len() as u64);
        self.bytes_out.push(out.len() as u64);
    }

    /// Reports each stage's p50/p99 over replayed requests, and the
    /// remainder of the traced request latency as `pdpd.unattributed_ns`.
    fn finish(self, t: &Tracer, requests: &Sample, report: &mut Report) {
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        for stage in STAGES {
            let s = Sample::new(t.self_time_by_request(stage).into_values().collect());
            p50s.push(s.pct(50.0) as f64);
            p99s.push(s.pct(99.0) as f64);
            report.ns_pair(stage, &s);
        }
        let n = Some(requests.len());
        let p50 = requests.pct(50.0) as f64;
        let p99 = requests.pct(99.0) as f64;
        report.metric(
            "pdpd.unattributed_ns.p50",
            stats::residual(p50, &p50s),
            "ns",
            n,
        );
        report.metric(
            "pdpd.unattributed_ns.p99",
            stats::residual(p99, &p99s),
            "ns",
            n,
        );
        report.ns_pair("trace.request_ns", requests);
        let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
        report.metric(
            "pdpd.bytes_in",
            mean(&self.bytes_in),
            "B",
            Some(self.bytes_in.len()),
        );
        report.metric(
            "pdpd.bytes_out",
            mean(&self.bytes_out),
            "B",
            Some(self.bytes_out.len()),
        );
        report.metric("trace.spans", t.spans().len() as f64, "count", None);
        report.metric("trace.replays", self.bytes_in.len() as f64, "count", None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_fields_parse() {
        let body = "{\"decision\": \"Permit\", \"enforcement\": \"Granted\", \"obligations\": [], \
                    \"penalty\": 0, \"epoch\": 7, \"cached\": true, \"degraded\": false}";
        assert_eq!(
            parse_answer(200, body),
            Answer {
                status: 200,
                decision: "Permit".into(),
                epoch: 7,
                cached: true
            }
        );
    }

    #[test]
    fn request_json_is_what_the_server_reads() {
        let r = XacmlRequest {
            role: 1,
            age: 30,
            rtype: 1,
            action: 0,
        };
        let parsed = wire::request_from_json(&json::parse(&request_json(&r)).unwrap()).unwrap();
        assert_eq!(parsed, r.to_request());
    }

    #[test]
    fn mix_is_distinct_and_seeded() {
        let a = shots(3);
        assert_eq!(a.len(), DISTINCT);
        let b = shots(3);
        assert!(a.iter().zip(&b).all(|(x, y)| x.payload == y.payload));
        for (i, x) in a.iter().enumerate() {
            assert!(a[i + 1..].iter().all(|y| y.payload != x.payload));
        }
    }
}
