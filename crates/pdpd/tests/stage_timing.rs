//! The daemon's own stage timing, in a process of its own because it
//! installs telemetry globally: with telemetry on, each worker times about
//! one request in 64 into the registry's `pdpd.*` histograms.

use agenp_core::arch::{DecisionSnapshot, PdpHandle};
use agenp_core::scenarios::xacml::{ground_truth_policy, XacmlRequest};
use agenp_obs::{ObsConfig, Sampler};
use agenp_pdpd::http::ConnBuf;
use agenp_pdpd::{wire, PdpdServer, ServerOptions};
use agenp_policy::CombiningAlg;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

const REQUESTS: u64 = 2_000;

#[test]
fn sampled_requests_time_every_stage_within_their_service() {
    agenp_obs::install(ObsConfig::enabled());
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        vec![ground_truth_policy()],
        CombiningAlg::DenyOverrides,
    ));
    let options = ServerOptions {
        threads: 1,
        read_timeout: Duration::from_millis(50),
    };
    let mut server = PdpdServer::bind("127.0.0.1:0", handle, options).expect("bind");
    let mut tx = TcpStream::connect(server.addr()).expect("connect");
    tx.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut rx = ConnBuf::new(tx.try_clone().unwrap());
    let body =
        wire::request_to_json(&XacmlRequest::random(&mut StdRng::seed_from_u64(5)).to_request());
    let request = format!(
        "POST /decide HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    for _ in 0..REQUESTS {
        tx.write_all(request.as_bytes()).unwrap();
        assert_eq!(rx.read_response().expect("response").0, 200);
    }
    tx.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, metrics) = rx.read_response().expect("metrics");
    assert_eq!(status, 200);
    assert!(String::from_utf8_lossy(&metrics).contains("pdpd.service_ns"));
    drop((tx, rx));
    server.shutdown();

    let registry = agenp_obs::registry();
    let service = registry.histogram("pdpd.service_ns");
    let mut staged = 0;
    for name in [
        "pdpd.json_parse_ns",
        "pdpd.request_build_ns",
        "pdpd.encode_ns",
        "pdpd.write_ns",
        "pdpd.service_ns",
    ] {
        let stage = registry.histogram(name);
        // Sampled gaps are at most MAX_GAP requests long.
        assert!(
            stage.count() >= REQUESTS / Sampler::MAX_GAP,
            "{name}: {} samples",
            stage.count()
        );
        if name != "pdpd.service_ns" {
            staged += stage.sum();
        }
    }
    assert!(
        staged <= service.sum(),
        "stages {staged} ns exceed service {} ns",
        service.sum()
    );
}
