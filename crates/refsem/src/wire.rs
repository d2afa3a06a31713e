//! The wire differential: pdpd's connection loop
//! ([`agenp_pdpd::serve_stream`], the loop every connection thread of the
//! daemon runs), driven in memory and checked against the reference
//! evaluator.
//!
//! A case draws a policy set and a request stream ([`gen::policy_set`],
//! [`gen::request_stream`]) and one to three connections. Each connection
//! is a train of pipelined messages: `POST /decide` and `POST
//! /decide_batch`, encoded with [`wire::request_to_json`], mixed with
//! requests the protocol refuses. A reader hands the train over in
//! seeded, random-length chunks, and now and then fails a read with a
//! timeout or an interrupt first. The answers are read back in order:
//!
//! - every `200` carries the published epoch and, request by request, the
//!   decision, obligations and penalty of [`reference::effects_reference`];
//! - a well-formed request whose body is not UTF-8, not JSON or not a
//!   request, or that names an unknown path or the wrong method, gets its
//!   `400`, `404` or `405`, and the connection stays open;
//! - a fault at the HTTP level (a bad request line or header, a bad or
//!   oversized `Content-Length`, chunked framing, an oversized head, or a
//!   message cut off by the end of the stream) gets its `400`, `413` or
//!   `431`, and nothing after it is answered, nor after a request that
//!   asks for the connection to close;
//! - the connection's [`HttpStats`] agree with the answers.

use crate::gen;
use crate::reference;
use crate::shrink;
use agenp_core::arch::{DecisionSnapshot, PdpHandle};
use agenp_pdpd::http::{ConnBuf, MAX_BODY_BYTES, MAX_HEAD_BYTES};
use agenp_pdpd::json::{self, Json};
use agenp_pdpd::{serve_stream, wire, HttpStats, ServerOptions};
use agenp_policy::{CombiningAlg, Decision, DecisionEffects, Obligation, Policy, Request};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::io::{self, Cursor, Read, Write};
use std::time::Duration;

/// What a message must be answered with.
#[derive(Clone, Debug)]
enum Expect {
    /// `200` from `/decide`: the request's reference effects.
    Decide(Request),
    /// `200` from `/decide_batch`: each request's reference effects, in
    /// order.
    Batch(Vec<Request>),
    /// This status, with an `{"error": ...}` body.
    Refused(u16),
}

/// One message of a train: its bytes, its answer, and whether the server
/// closes the connection once it has answered.
#[derive(Clone)]
struct Message {
    bytes: Vec<u8>,
    expect: Expect,
    closes: bool,
}

impl std::fmt::Debug for Message {
    /// The bytes as text, cut short: an oversized head is 16 KiB.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let text = String::from_utf8_lossy(&self.bytes[..self.bytes.len().min(160)]);
        write!(f, "{text:?}")?;
        if self.bytes.len() > 160 {
            write!(f, "... ({} bytes)", self.bytes.len())?;
        }
        Ok(())
    }
}

/// Well-formed `/decide` bodies that are not requests.
const BAD_DECIDE_BODIES: [&[u8]; 8] = [
    b"not json",
    b"{",
    b"[1, 2]",
    b"{\"unknown\": {}}",
    b"{\"subject\": 3}",
    b"{\"subject\": {\"role\": [1]}}",
    b"{\"subject\": {\"role\": 2.5}}",
    b"\xff\xfe",
];

/// Well-formed `/decide_batch` bodies that are not batches.
const BAD_BATCH_BODIES: [&[u8]; 4] = [
    b"{}",
    b"{\"requests\": \"nope\"}",
    b"{\"requests\": [{\"subject\": 3}]}",
    b"[]",
];

/// Heads the protocol cannot read, each answered `400`.
const BAD_HEADS: [&[u8]; 9] = [
    b"NONSENSE\r\n\r\n",
    b"POST /decide HTTP/2\r\n\r\n",
    b"POST /decide  HTTP/1.1\r\n\r\n",
    b"POST /d\xff HTTP/1.1\r\n\r\n",
    b"POST /decide HTTP/1.1\r\nbad header\r\n\r\n",
    b"POST /decide HTTP/1.1\r\nBad Name: x\r\n\r\n",
    b"POST /decide HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
    b"POST /decide HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
    b"POST /decide HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
];

/// One message: its request `line`, the `extra` header lines, a
/// `Content-Length` under a random spelling, and `body`.
fn message(rng: &mut StdRng, line: &str, extra: &str, body: &[u8]) -> Vec<u8> {
    let name = ["Content-Length", "content-length", "CONTENT-LENGTH"][rng.gen_range(0..3)];
    let mut bytes = format!(
        "{line}\r\nHost: refsem\r\n{extra}{name}: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

/// A `/decide` of the stream's next request, sent as `line` with the
/// `extra` header lines.
fn decide_as<'a>(
    rng: &mut StdRng,
    next: &mut impl Iterator<Item = &'a Request>,
    line: &str,
    extra: &str,
) -> Message {
    let request = next.next().expect("the stream cycles").clone();
    let body = wire::request_to_json(&request);
    Message {
        bytes: message(rng, line, extra, body.as_bytes()),
        expect: Expect::Decide(request),
        closes: false,
    }
}

/// A `/decide` of the stream's next request.
fn decide<'a>(rng: &mut StdRng, next: &mut impl Iterator<Item = &'a Request>) -> Message {
    decide_as(rng, next, "POST /decide HTTP/1.1", "")
}

/// A `/decide_batch` of the stream's next zero to four requests.
fn batch<'a>(rng: &mut StdRng, next: &mut impl Iterator<Item = &'a Request>) -> Message {
    let requests: Vec<Request> = next.take(rng.gen_range(0..=4)).cloned().collect();
    let items: Vec<String> = requests.iter().map(wire::request_to_json).collect();
    let body = format!("{{\"requests\": [{}]}}", items.join(", "));
    Message {
        bytes: message(rng, "POST /decide_batch HTTP/1.1", "", body.as_bytes()),
        expect: Expect::Batch(requests),
        closes: false,
    }
}

/// A well-formed request the server refuses and keeps the connection
/// open after.
fn refused<'a>(rng: &mut StdRng, next: &mut impl Iterator<Item = &'a Request>) -> Message {
    let (bytes, status) = match rng.gen_range(0..6) {
        0 | 1 => {
            let body = BAD_DECIDE_BODIES[rng.gen_range(0..BAD_DECIDE_BODIES.len())];
            (message(rng, "POST /decide HTTP/1.1", "", body), 400)
        }
        2 => {
            let body = BAD_BATCH_BODIES[rng.gen_range(0..BAD_BATCH_BODIES.len())];
            (message(rng, "POST /decide_batch HTTP/1.1", "", body), 400)
        }
        3 => {
            // A valid request, then one that is not.
            let first = wire::request_to_json(next.next().expect("the stream cycles"));
            let body = format!("{{\"requests\": [{first}, 7]}}");
            let line = "POST /decide_batch HTTP/1.1";
            (message(rng, line, "", body.as_bytes()), 400)
        }
        4 => (message(rng, "GET /nope HTTP/1.1", "", b""), 404),
        _ => (message(rng, "GET /decide HTTP/1.1", "", b""), 405),
    };
    Message {
        bytes,
        expect: Expect::Refused(status),
        closes: false,
    }
}

/// A `/decide` that asks for the connection to close after its answer:
/// with `Connection: close`, or as HTTP/1.0, which closes by default.
fn closing<'a>(rng: &mut StdRng, next: &mut impl Iterator<Item = &'a Request>) -> Message {
    let (line, extra) = if rng.gen_bool(0.5) {
        ("POST /decide HTTP/1.1", "Connection: close\r\n")
    } else {
        ("POST /decide HTTP/1.0", "")
    };
    Message {
        closes: true,
        ..decide_as(rng, next, line, extra)
    }
}

/// A fault at the HTTP level: answered, then the connection closes.
fn fault(rng: &mut StdRng) -> Message {
    let (bytes, status) = match rng.gen_range(0..4) {
        0 | 1 => (BAD_HEADS[rng.gen_range(0..BAD_HEADS.len())].to_vec(), 400),
        2 => {
            let head = format!(
                "POST /decide HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            );
            (head.into_bytes(), 413)
        }
        _ => {
            // Past the cap, ended or not: unended, the next message's
            // terminator ends it.
            let pad = "x".repeat(MAX_HEAD_BYTES + rng.gen_range(0..64));
            let end = if rng.gen_bool(0.5) { "\r\n\r\n" } else { "" };
            let head = format!("POST /decide HTTP/1.1\r\nX-Pad: {pad}{end}");
            (head.into_bytes(), 431)
        }
    };
    Message {
        bytes,
        expect: Expect::Refused(status),
        closes: true,
    }
}

/// A `/decide` cut off by the end of the stream: answered `400`.
fn cut_off<'a>(rng: &mut StdRng, next: &mut impl Iterator<Item = &'a Request>) -> Message {
    let mut m = decide(rng, next);
    m.bytes.truncate(rng.gen_range(1..m.bytes.len()));
    m.expect = Expect::Refused(400);
    m.closes = true;
    m
}

/// One connection's train: one to ten decides, batches and refused
/// requests, then, in four trains of ten, a closing request or an HTTP
/// fault followed by up to two requests that must go unanswered, or a
/// message cut off by the end of the stream.
fn train<'a>(rng: &mut StdRng, next: &mut impl Iterator<Item = &'a Request>) -> Vec<Message> {
    let mut out = Vec::new();
    for _ in 0..rng.gen_range(1..=10) {
        out.push(match rng.gen_range(0..10) {
            0..=4 => decide(rng, next),
            5 | 6 => batch(rng, next),
            _ => refused(rng, next),
        });
    }
    match rng.gen_range(0..10) {
        0..=5 => {}
        9 => out.push(cut_off(rng, next)),
        tail => {
            out.push(if tail == 6 {
                closing(rng, next)
            } else {
                fault(rng)
            });
            // Never answered: the connection is closed by then.
            for _ in 0..rng.gen_range(0..=2) {
                out.push(decide(rng, next));
            }
        }
    }
    out
}

/// A connection in memory: hands its input over in seeded, random-length
/// chunks, failing a read with a timeout or an interrupt first now and
/// then, and keeps what the server writes.
struct MemConn {
    input: Vec<u8>,
    at: usize,
    rng: StdRng,
    output: Vec<u8>,
}

impl Read for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.input.len() - self.at;
        if left > 0 {
            match self.rng.gen_range(0..16) {
                0 => return Err(io::ErrorKind::TimedOut.into()),
                1 => return Err(io::ErrorKind::Interrupted.into()),
                _ => {}
            }
        }
        let most = [8, 64, 1024, left][self.rng.gen_range(0..4)];
        let n = self.rng.gen_range(1..=most.max(1)).min(left).min(buf.len());
        buf[..n].copy_from_slice(&self.input[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

impl Write for MemConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The effects an outcome's JSON carries.
fn effects_from_json(value: &Json) -> Result<DecisionEffects, String> {
    let name = value
        .get("decision")
        .and_then(Json::as_str)
        .ok_or("no decision")?;
    let decision = [
        Decision::Permit,
        Decision::Deny,
        Decision::NotApplicable,
        Decision::Indeterminate,
    ]
    .into_iter()
    .find(|d| d.to_string() == name)
    .ok_or_else(|| format!("unknown decision {name:?}"))?;
    let number = |v: &Json, key: &str| {
        v.get(key)
            .and_then(Json::as_i64)
            .ok_or_else(|| format!("no {key}"))
    };
    let obligations = value
        .get("obligations")
        .and_then(Json::as_arr)
        .ok_or("no obligations")?
        .iter()
        .map(|o| {
            let text = |key: &str| {
                o.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("no obligation {key}"))
            };
            Ok(Obligation {
                id: text("id")?,
                action: text("action")?,
                deadline: u64::try_from(number(o, "deadline")?).map_err(|e| e.to_string())?,
                penalty: u32::try_from(number(o, "penalty")?).map_err(|e| e.to_string())?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let penalty = u32::try_from(number(value, "penalty")?).map_err(|e| e.to_string())?;
    Ok(DecisionEffects {
        decision,
        obligations,
        penalty,
    })
}

/// One outcome against the reference effects of `request`.
fn check_outcome(
    value: &Json,
    epoch: i64,
    policies: &[Policy],
    combining: CombiningAlg,
    request: &Request,
) -> Result<(), String> {
    let want = reference::effects_reference(policies, combining, request);
    let got = effects_from_json(value)?;
    if got != want {
        return Err(format!(
            "served {got:?} != reference {want:?} (key {})",
            request.canonical_key()
        ));
    }
    if value.get("epoch").and_then(Json::as_i64) != Some(epoch) {
        return Err(format!(
            "epoch {:?} != published {epoch}",
            value.get("epoch")
        ));
    }
    if value.get("degraded").and_then(Json::as_bool) != Some(false) {
        return Err("a degraded outcome".to_string());
    }
    Ok(())
}

/// One answer against what its message expects; tallies it into
/// `(ok, client_errors, decisions)`.
fn check_answer(
    expect: &Expect,
    (status, body): (u16, &[u8]),
    epoch: i64,
    policies: &[Policy],
    combining: CombiningAlg,
    tally: &mut (u64, u64, u64),
) -> Result<(), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let value = json::parse(text).map_err(|e| format!("body is not JSON ({e}): {text}"))?;
    let want = match expect {
        Expect::Decide(_) | Expect::Batch(_) => 200,
        Expect::Refused(status) => *status,
    };
    if status != want {
        return Err(format!("status {status} where {want} is due: {text}"));
    }
    match expect {
        Expect::Decide(request) => {
            check_outcome(&value, epoch, policies, combining, request)?;
            tally.0 += 1;
            tally.2 += 1;
        }
        Expect::Batch(requests) => {
            let outcomes = value
                .get("outcomes")
                .and_then(Json::as_arr)
                .ok_or("no outcomes")?;
            let count = value.get("count").and_then(Json::as_i64);
            if outcomes.len() != requests.len() || count != i64::try_from(requests.len()).ok() {
                return Err(format!(
                    "{} outcomes (count {count:?}) for {} requests",
                    outcomes.len(),
                    requests.len()
                ));
            }
            let envelope = value.get("epoch").and_then(Json::as_i64);
            if envelope != Some(epoch).filter(|_| !requests.is_empty()) {
                return Err(format!("batch epoch {envelope:?} != published {epoch}"));
            }
            for (i, (outcome, request)) in outcomes.iter().zip(requests).enumerate() {
                check_outcome(outcome, epoch, policies, combining, request)
                    .map_err(|e| format!("outcome {i}: {e}"))?;
            }
            tally.0 += 1;
            tally.2 += requests.len() as u64;
        }
        Expect::Refused(_) => {
            if value.get("error").and_then(Json::as_str).is_none() {
                return Err(format!("no error message: {text}"));
            }
            tally.1 += 1;
        }
    }
    Ok(())
}

/// Serves one train in memory and checks every answer, that nothing is
/// answered after a close or past the train, and the connection's counters.
fn check_train(
    policies: &[Policy],
    combining: CombiningAlg,
    messages: &[Message],
    chunk_seed: u64,
) -> Result<(), String> {
    let handle = PdpHandle::new();
    let epoch = handle.publish(DecisionSnapshot::new(policies.to_vec(), combining));
    let epoch = i64::try_from(epoch).expect("epochs count publishes");
    let mut conn = MemConn {
        input: messages.iter().flat_map(|m| m.bytes.clone()).collect(),
        at: 0,
        rng: gen::rng_for(chunk_seed),
        output: Vec::new(),
    };
    let options = ServerOptions {
        threads: 1,
        read_timeout: Duration::from_millis(200),
    };
    let stats: HttpStats = serve_stream(&mut conn, &handle, &options);
    let mut answers = ConnBuf::new(Cursor::new(conn.output));
    let mut tally = (0, 0, 0);
    for (i, m) in messages.iter().enumerate() {
        let answer = answers
            .read_response()
            .map_err(|e| format!("message {i} {m:?} unanswered ({e})"))?;
        check_answer(
            &m.expect,
            (answer.0, &answer.1),
            epoch,
            policies,
            combining,
            &mut tally,
        )
        .map_err(|e| format!("message {i} {m:?}: {e}"))?;
        if m.closes {
            break;
        }
    }
    if let Ok((status, _)) = answers.read_response() {
        return Err(format!(
            "a {status} answered past the train's end or its close"
        ));
    }
    let counted = (stats.ok, stats.client_errors, stats.decisions);
    if counted != tally || stats.connections != 1 || stats.shed != 0 {
        return Err(format!(
            "counters {stats:?} != answers (ok, client_errors, decisions) {tally:?}"
        ));
    }
    Ok(())
}

/// Shrinks a failing train: its messages first, then whole policies, then
/// each surviving policy's rules, each while the train still fails.
fn shrunk_wire_repro(
    policies: &[Policy],
    combining: CombiningAlg,
    messages: &[Message],
    chunk_seed: u64,
) -> String {
    let fails = |p: &[Policy], m: &[Message]| check_train(p, combining, m, chunk_seed).is_err();
    let (n_policies, n_messages) = (policies.len(), messages.len());
    let messages = shrink::shrink_items(messages, &mut |m| fails(policies, m));
    let mut policies = shrink::shrink_items(policies, &mut |p| fails(p, &messages));
    for i in 0..policies.len() {
        let base = policies.clone();
        let rules = shrink::shrink_items(&policies[i].rules, &mut |rules| {
            let mut ps = base.clone();
            ps[i].rules = rules.to_vec();
            fails(&ps, &messages)
        });
        policies[i].rules = rules;
    }
    format!(
        "shrunk to {} of {n_policies} polic(ies), {} of {n_messages} message(s):\n  \
         policies: {policies:?}\n  messages: {messages:?}",
        policies.len(),
        messages.len()
    )
}

/// Differential wire case: one to three connections of generated
/// pipelined trains, served in memory by pdpd's connection loop and
/// checked answer by answer (see the module docs). A failing train is
/// shrunk before the repro line prints.
pub fn run_wire_case(seed: u64) -> Result<(), String> {
    let mut rng = gen::rng_for(seed);
    let (policies, combining) = gen::policy_set(&mut rng);
    let stream = gen::request_stream(&mut rng, 12);
    let mut next = stream.iter().cycle();
    for connection in 0..rng.gen_range(1..=3) {
        let messages = train(&mut rng, &mut next);
        let chunk_seed = rng.next_u64();
        if let Err(msg) = check_train(&policies, combining, &messages, chunk_seed) {
            return Err(format!(
                "seed={seed} kind=wire: connection {connection}: {msg}\n{} \
                 (repro: run_wire_case({seed}))",
                shrunk_wire_repro(&policies, combining, &messages, chunk_seed)
            ));
        }
    }
    Ok(())
}
