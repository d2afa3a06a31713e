//! `pdpd` — the standalone PDP daemon and its load client.
//!
//! ```text
//! pdpd serve [--addr HOST:PORT] [--threads N] [--obs]
//! pdpd load  [--addr HOST:PORT] [--connections N] [--requests N]
//!            [--batch N] [--smoke]
//! ```
//!
//! `serve` publishes the XACML scenario's ground-truth policy into a
//! [`PdpHandle`] and serves it over HTTP/1.1 until killed, one thread per
//! connection; `--threads N` only sizes the cap on live connections
//! (64 x N, default N = the available parallelism). `load` drives
//! a randomized request mix against a running daemon, prints throughput
//! and latency percentiles, and — with `--smoke` — exits nonzero unless
//! the run is clean (zero parity mismatches, zero stale epochs, zero
//! HTTP errors) and sustains at least 10k decisions/sec.

use agenp_core::arch::PdpHandle;
use agenp_core::arch::{DecisionSnapshot, PdpPin};
use agenp_core::scenarios::xacml::{ground_truth_policy, XacmlRequest};
use agenp_pdpd::{run_load, LoadOptions, PdpdServer, ServerOptions};
use agenp_policy::{CombiningAlg, Decision, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::process::ExitCode;

/// The single-connection floor `load --smoke` enforces, decisions/sec.
const SMOKE_MIN_THROUGHPUT: f64 = 10_000.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => cmd_serve(&args[1..]),
        Some("load") => cmd_load(&args[1..]),
        _ => {
            eprintln!(
                "usage: pdpd serve [--addr HOST:PORT] [--threads N] [--obs]\n\
                 \x20      pdpd load  [--addr HOST:PORT] [--connections N] \
                 [--requests N] [--batch N] [--smoke]\n\
                 serve runs one thread per connection; --threads N caps live \
                 connections at 64 x N"
            );
            ExitCode::from(2)
        }
    }
}

/// Parses `--flag VALUE` out of `args`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

fn parse_usize(args: &[String], flag: &str, default: usize) -> usize {
    flag_value(args, flag).map_or(default, |v| v.parse().unwrap_or(default))
}

/// A handle pre-loaded with the XACML ground-truth policy — the same
/// snapshot the bench harness serves.
fn scenario_handle() -> PdpHandle {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        vec![ground_truth_policy()],
        CombiningAlg::DenyOverrides,
    ));
    handle
}

fn cmd_serve(args: &[String]) -> ExitCode {
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7465");
    let mut options = ServerOptions::default();
    if let Some(threads) = flag_value(args, "--threads").and_then(|v| v.parse().ok()) {
        options.threads = threads;
    }
    if flag_present(args, "--obs") {
        agenp_obs::install(agenp_obs::ObsConfig::enabled());
    }
    let mut server = match PdpdServer::bind(addr, scenario_handle(), options) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pdpd: cannot bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("pdpd: serving on http://{}", server.addr());
    server.join(); // runs until the process is killed
    ExitCode::SUCCESS
}

fn cmd_load(args: &[String]) -> ExitCode {
    let addr_text = flag_value(args, "--addr").unwrap_or("127.0.0.1:7465");
    let addr: SocketAddr = match addr_text.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pdpd: bad --addr {addr_text}: {e}");
            return ExitCode::from(2);
        }
    };
    let smoke = flag_present(args, "--smoke");
    let mut options = LoadOptions {
        connections: parse_usize(args, "--connections", if smoke { 1 } else { 4 }),
        requests: parse_usize(args, "--requests", if smoke { 30_000 } else { 100_000 }),
        batch: parse_usize(args, "--batch", 1),
        ..LoadOptions::default()
    };
    if smoke {
        // The smoke floor is a single-connection number; pin it there.
        options.connections = 1;
    }

    let (workload, expected) = scenario_workload(128, 42);
    let report = match run_load(addr, &workload, &expected, &options) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("pdpd: load run failed against {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "pdpd load: {} decisions over {} connection(s) in {:.2}s — {:.0} dec/s",
        report.decisions, report.connections, report.elapsed_secs, report.throughput
    );
    println!(
        "latency: p50 {}us p90 {}us p99 {}us max {}us",
        report.p50_ns / 1000,
        report.p90_ns / 1000,
        report.p99_ns / 1000,
        report.max_ns / 1000
    );
    println!(
        "checks: {} parity mismatches, {} stale epochs, {} http errors",
        report.parity_mismatches, report.stale_epochs, report.http_errors
    );

    if smoke {
        if !report.is_clean() {
            eprintln!("pdpd: smoke gate failed — run was not clean");
            return ExitCode::FAILURE;
        }
        if report.throughput < SMOKE_MIN_THROUGHPUT {
            eprintln!(
                "pdpd: smoke gate failed — {:.0} dec/s is below the \
                 {SMOKE_MIN_THROUGHPUT:.0} dec/s single-connection floor",
                report.throughput
            );
            return ExitCode::FAILURE;
        }
        println!("pdpd: smoke gates passed");
    }
    ExitCode::SUCCESS
}

/// A seeded randomized request mix plus its oracle decisions, computed
/// through a local pin over the same snapshot the daemon serves.
fn scenario_workload(distinct: usize, seed: u64) -> (Vec<Request>, Vec<Decision>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let workload: Vec<Request> = (0..distinct)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect();
    let handle = scenario_handle();
    let mut pin: PdpPin = handle.pin();
    let expected = workload.iter().map(|r| pin.decide(r).decision).collect();
    (workload, expected)
}
