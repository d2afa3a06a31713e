//! End-to-end tests over a real loopback socket: boot a [`PdpdServer`]
//! on an ephemeral port, then exercise the wire protocol exactly as an
//! external client would — keep-alive reuse, pipelined requests,
//! batches, malformed payloads, and the load client's parity checks.

use agenp_core::arch::{DecisionSnapshot, PdpHandle};
use agenp_core::scenarios::xacml::{ground_truth_policy, XacmlRequest};
use agenp_pdpd::http::ConnBuf;
use agenp_pdpd::json::{self, Json};
use agenp_pdpd::{run_load, wire, LoadOptions, PdpdServer, ServerOptions};
use agenp_policy::{CombiningAlg, Decision, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

fn scenario_handle() -> PdpHandle {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        vec![ground_truth_policy()],
        CombiningAlg::DenyOverrides,
    ));
    handle
}

fn boot(threads: usize) -> PdpdServer {
    PdpdServer::bind(
        "127.0.0.1:0",
        scenario_handle(),
        ServerOptions {
            threads,
            read_timeout: Duration::from_millis(50),
        },
    )
    .expect("bind ephemeral port")
}

/// Opens a client connection with a response timeout.
fn connect(server: &PdpdServer) -> (TcpStream, ConnBuf<TcpStream>) {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let read_half = stream.try_clone().unwrap();
    (stream, ConnBuf::new(read_half))
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn sample_request() -> Request {
    XacmlRequest::random(&mut StdRng::seed_from_u64(5)).to_request()
}

#[test]
fn decide_round_trips_over_keep_alive() {
    let mut server = boot(2);
    let request = sample_request();
    let expected = server.handle().decide(&request).decision;
    let body = wire::request_to_json(&request);

    let (mut tx, mut rx) = connect(&server);
    // Three requests on one connection: keep-alive must hold.
    for _ in 0..3 {
        tx.write_all(&post("/decide", &body)).unwrap();
        let (status, resp) = rx.read_response().expect("response");
        assert_eq!(status, 200);
        let value = json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
        assert_eq!(
            value.get("decision").and_then(Json::as_str),
            Some(expected.to_string().as_str())
        );
        assert_eq!(value.get("degraded").and_then(Json::as_bool), Some(false));
    }
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let mut server = boot(1);
    let mut rng = StdRng::seed_from_u64(11);
    let requests: Vec<Request> = (0..8)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect();
    let expected: Vec<Decision> = requests
        .iter()
        .map(|r| server.handle().decide(r).decision)
        .collect();

    let (mut tx, mut rx) = connect(&server);
    // Write the whole pipeline before reading anything back.
    let mut pipeline = Vec::new();
    for r in &requests {
        pipeline.extend_from_slice(&post("/decide", &wire::request_to_json(r)));
    }
    tx.write_all(&pipeline).unwrap();
    for want in &expected {
        let (status, resp) = rx.read_response().expect("pipelined response");
        assert_eq!(status, 200);
        let value = json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
        assert_eq!(
            value.get("decision").and_then(Json::as_str),
            Some(want.to_string().as_str())
        );
    }
    server.shutdown();
}

#[test]
fn batch_endpoint_shares_one_epoch_and_matches_sequential() {
    let mut server = boot(2);
    let mut rng = StdRng::seed_from_u64(23);
    let requests: Vec<Request> = (0..12)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect();
    let expected: Vec<Decision> = requests
        .iter()
        .map(|r| server.handle().decide(r).decision)
        .collect();

    let mut body = String::from("{\"requests\": [");
    for (i, r) in requests.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        body.push_str(&wire::request_to_json(r));
    }
    body.push_str("]}");

    let (mut tx, mut rx) = connect(&server);
    tx.write_all(&post("/decide_batch", &body)).unwrap();
    let (status, resp) = rx.read_response().expect("batch response");
    assert_eq!(status, 200);
    let value = json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    assert_eq!(
        value.get("count").and_then(Json::as_i64),
        Some(i64::try_from(requests.len()).unwrap())
    );
    let envelope_epoch = value.get("epoch").and_then(Json::as_i64).unwrap();
    let outcomes = value.get("outcomes").and_then(Json::as_arr).unwrap();
    assert_eq!(outcomes.len(), expected.len());
    for (outcome, want) in outcomes.iter().zip(&expected) {
        assert_eq!(
            outcome.get("decision").and_then(Json::as_str),
            Some(want.to_string().as_str())
        );
        // The whole batch answers from one snapshot.
        assert_eq!(
            outcome.get("epoch").and_then(Json::as_i64),
            Some(envelope_epoch)
        );
    }
    server.shutdown();
}

#[test]
fn malformed_payloads_get_400_not_a_hang() {
    let mut server = boot(1);
    for bad_body in [
        "not json at all",
        "[1, 2, 3]",
        "{\"unknown_category\": {}}",
        "{\"subject\": {\"role\": [1]}}",
        "{\"requests\": \"nope\"}",
    ] {
        let path = if bad_body.contains("requests") {
            "/decide_batch"
        } else {
            "/decide"
        };
        let (mut tx, mut rx) = connect(&server);
        tx.write_all(&post(path, bad_body)).unwrap();
        let (status, resp) = rx.read_response().expect("error response");
        assert_eq!(status, 400, "{bad_body} should be a 400");
        let value = json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
        assert!(value.get("error").and_then(Json::as_str).is_some());
    }
    // A garbled request line also gets a 400 (then the server closes).
    let (mut tx, mut rx) = connect(&server);
    tx.write_all(b"NONSENSE\r\n\r\n").unwrap();
    let (status, _) = rx.read_response().expect("malformed-line response");
    assert_eq!(status, 400);
    server.shutdown();
}

#[test]
fn unknown_routes_and_methods_are_refused() {
    let mut server = boot(1);
    let (mut tx, mut rx) = connect(&server);
    tx.write_all(b"GET /nope HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _) = rx.read_response().unwrap();
    assert_eq!(status, 404);
    tx.write_all(b"GET /decide HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, _) = rx.read_response().unwrap();
    assert_eq!(status, 405);
    server.shutdown();
}

#[test]
fn metrics_reports_serve_and_http_counters() {
    let mut server = boot(1);
    let request = sample_request();
    let body = wire::request_to_json(&request);
    let (mut tx, mut rx) = connect(&server);
    for _ in 0..4 {
        tx.write_all(&post("/decide", &body)).unwrap();
        let (status, _) = rx.read_response().unwrap();
        assert_eq!(status, 200);
    }
    tx.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, resp) = rx.read_response().unwrap();
    assert_eq!(status, 200);
    let value = json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
    let http = value.get("http").expect("http section");
    assert_eq!(http.get("decisions").and_then(Json::as_i64), Some(4));
    assert!(value.get("serve").is_some());
    server.shutdown();
    assert_eq!(server.http_stats().decisions, 4);
}

#[test]
fn load_client_round_trips_cleanly() {
    let mut server = boot(2);
    let mut rng = StdRng::seed_from_u64(77);
    let workload: Vec<Request> = (0..32)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect();
    let expected: Vec<Decision> = workload
        .iter()
        .map(|r| server.handle().decide(r).decision)
        .collect();
    for batch in [1usize, 8] {
        let report = run_load(
            server.addr(),
            &workload,
            &expected,
            &LoadOptions {
                connections: 2,
                requests: 512,
                batch,
                read_timeout: Duration::from_secs(5),
            },
        )
        .expect("load run");
        assert!(report.is_clean(), "batch={batch}: {report:?}");
        assert!(report.decisions >= 512, "batch={batch}: {report:?}");
        assert!(report.p50_ns > 0 && report.p99_ns >= report.p50_ns);
    }
    server.shutdown();
}

#[test]
fn snapshot_swap_mid_stream_never_serves_stale_epochs() {
    let mut server = boot(2);
    let request = sample_request();
    let body = wire::request_to_json(&request);
    let (mut tx, mut rx) = connect(&server);
    let mut last_epoch = 0i64;
    for i in 0..20 {
        if i % 5 == 4 {
            // Republish mid-stream; subsequent decisions must observe a
            // monotone epoch.
            server.handle().publish(DecisionSnapshot::new(
                vec![ground_truth_policy()],
                CombiningAlg::DenyOverrides,
            ));
        }
        tx.write_all(&post("/decide", &body)).unwrap();
        let (status, resp) = rx.read_response().unwrap();
        assert_eq!(status, 200);
        let value = json::parse(std::str::from_utf8(&resp).unwrap()).unwrap();
        let epoch = value.get("epoch").and_then(Json::as_i64).unwrap();
        assert!(
            epoch >= last_epoch,
            "epoch went backwards: {epoch} < {last_epoch}"
        );
        last_epoch = epoch;
    }
    assert!(last_epoch >= 4, "publishes were never observed");
    server.shutdown();
}

/// One worker with a short read timeout, so the deadlines are short too.
fn deadline_options() -> ServerOptions {
    ServerOptions {
        threads: 1,
        read_timeout: Duration::from_millis(20),
    }
}

#[test]
fn idle_connections_do_not_starve_an_active_client() {
    let options = deadline_options();
    let mut server =
        PdpdServer::bind("127.0.0.1:0", scenario_handle(), options.clone()).expect("bind");
    // More idle keep-alive connections than workers, queued ahead of the
    // active client.
    let idle: Vec<TcpStream> = (0..=options.threads)
        .map(|_| TcpStream::connect(server.addr()).expect("connect"))
        .collect();
    let started = Instant::now();
    let (mut tx, mut rx) = connect(&server);
    tx.write_all(&post("/decide", &wire::request_to_json(&sample_request())))
        .unwrap();
    let (status, _) = rx.read_response().expect("the active client is served");
    let waited = started.elapsed();
    assert_eq!(status, 200);
    let bound = options.idle_deadline() + options.read_timeout * 10 + Duration::from_millis(500);
    assert!(waited <= bound, "served after {waited:?} (bound {bound:?})");
    for mut stream in idle {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(
            stream.read(&mut [0u8; 1]).unwrap(),
            0,
            "idle connection closed"
        );
    }
    server.shutdown();
}

#[test]
fn slow_head_client_is_closed_within_the_request_deadline() {
    let options = deadline_options();
    let mut server =
        PdpdServer::bind("127.0.0.1:0", scenario_handle(), options.clone()).expect("bind");
    let (tx, mut rx) = connect(&server);
    tx.set_nodelay(true).unwrap();
    let done = AtomicBool::new(false);
    let started = Instant::now();
    let (status, waited) = std::thread::scope(|scope| {
        // A head that never ends, one byte at a time, each well inside the
        // read timeout, so no read ever times out.
        scope.spawn(|| {
            let mut tx = &tx;
            let head = b"POST /decide HTTP/1.1\r\nX-Slow: ";
            let limit = options.request_deadline() * 3;
            for &byte in head.iter().chain(std::iter::repeat(&b'x')) {
                if done.load(Ordering::Relaxed)
                    || started.elapsed() > limit
                    || tx.write_all(&[byte]).is_err()
                {
                    break;
                }
                std::thread::sleep(options.read_timeout / 4);
            }
        });
        let response = rx.read_response();
        let waited = started.elapsed();
        done.store(true, Ordering::Relaxed);
        (
            response.expect("a 408 before the client gives up").0,
            waited,
        )
    });
    assert_eq!(status, 408);
    assert!(
        waited >= options.request_deadline(),
        "closed early: {waited:?}"
    );
    let bound = options.request_deadline() + options.read_timeout * 10 + Duration::from_millis(500);
    assert!(waited <= bound, "closed after {waited:?} (bound {bound:?})");
    server.shutdown();
    assert_eq!(server.http_stats().client_errors, 1);
}
