//! `pdp` — machine-readable throughput harness for the shared-snapshot PDP
//! serving tier.
//!
//! Drives a closed-loop multi-threaded request workload (randomized XACML
//! requests against the scenario's ground-truth policy) through a
//! [`PdpServer`], then writes `BENCH_pdp.json` (through
//! [`agenp_bench::write_bench`]): threads × throughput, a single-thread parity check of the serving tier
//! against the straight-line reference evaluator
//! ([`reference::effects_reference`]), and a stress that swaps snapshots
//! mid-stream and counts decisions served from the wrong epoch. The JSON
//! schema is documented in `docs/SERVING.md`.
//!
//! Since schema v2 the harness also puts the PDP on the wire: it boots an
//! in-process `agenp-pdpd` HTTP/1.1 server on an ephemeral loopback port,
//! drives it with the crate's load client (single connection, multiple
//! connections, and batched bodies), and records throughput plus latency
//! percentiles under the `"http"` section. The load client re-checks every
//! response against the oracle, so the HTTP rows double as a wire-path
//! parity gate.
//!
//! Since schema v4 the `"kernel"` section says what one decision costs as
//! the policy set grows: `DecisionSnapshot::decide_effects`, timed in
//! process on unique requests against generated sets of 24 to 1536 rules
//! under deny-overrides and permit-overrides, with every decision checked
//! against the reference evaluator.
//!
//! Since schema v5 the single-connection HTTP shape runs three times, each
//! `"http"` row records its `repeat`, and the gate reads their median.
//!
//! Since schema v6 each kernel size also has a `"mixed"` row
//! (`policy_combining`), in which every policy draws its own algorithm under
//! a deny-overrides set, so the compiled plan holds whole policies next to
//! the rules of the policies that take the set's algorithm.
//!
//! Since schema v7 each `"http"` row records its daemon's `server_threads`,
//! and one more row runs four keep-alive connections against a
//! `threads: 1` daemon: its `max_us` is the longest any connection waited
//! for an answer.
//!
//! Usage: `cargo run -p agenp-bench --bin pdp --release [-- --smoke]`
//!
//! `--smoke` runs reduced scales suitable for CI (the kernel section at its
//! two smallest sizes). Both modes exit nonzero on malformed output, any
//! parity mismatch (kernel rows included), any stale decision, a median
//! single-connection HTTP throughput below 10k decisions/sec, or (on
//! machines with >= 4 CPUs) a 4-thread throughput below 2x the 1-thread run.

use agenp_bench::{cpus, fixed, percentile, print_table, write_bench};
use agenp_core::arch::{DecisionSnapshot, PdpHandle, PdpServer, ServerReport};
use agenp_core::scenarios::xacml::{ground_truth_policy, XacmlRequest};
use agenp_obs::json::Json;
use agenp_pdpd::{run_load, LoadOptions, LoadReport, PdpdServer, ServerOptions};
use agenp_policy::{
    evaluate_policies, Category, CombiningAlg, Decision, DecisionEffects, Effect, Policy,
    PolicyRule, Request,
};
use agenp_refsem::{gen, reference};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The serving-tier vs reference-evaluator parity result.
struct ParityOutcome {
    requests: usize,
    mismatches: usize,
}

/// The snapshot-swap stress result.
struct StressOutcome {
    decisions: u64,
    swaps: u64,
    stale_served: u64,
}

/// One policy-kernel measurement: `decide_effects` on one generated set.
struct KernelRow {
    rules: usize,
    policies: usize,
    combining: CombiningAlg,
    /// Each policy draws its own algorithm instead of taking `combining`.
    mixed: bool,
    requests: usize,
    compile_us: f64,
    p50_ns: u64,
    p99_ns: u64,
    settled_index_p50: usize,
    mismatches: usize,
}

/// One closed-loop throughput row.
fn throughput_json(r: &ServerReport) -> Json {
    Json::obj([
        ("threads", r.threads.into()),
        ("decisions", r.decisions.into()),
        ("micros", r.elapsed.as_micros().into()),
        ("decisions_per_sec", fixed(r.throughput, 1)),
    ])
}

impl KernelRow {
    fn json(&self) -> Json {
        Json::obj([
            ("rules", self.rules.into()),
            ("policies", self.policies.into()),
            ("combining", alg_name(self.combining).into()),
            (
                "policy_combining",
                if self.mixed { "mixed" } else { "same" }.into(),
            ),
            ("requests", self.requests.into()),
            ("compile_us", fixed(self.compile_us, 1)),
            ("p50_ns", self.p50_ns.into()),
            ("p99_ns", self.p99_ns.into()),
            ("settled_index_p50", self.settled_index_p50.into()),
            ("mismatches", self.mismatches.into()),
        ])
    }
}

/// Runs of the single-connection HTTP shape. The gate reads their median,
/// so a stall of the shared machine fails one repeat, not the gate.
const SINGLE_CONN_REPEATS: usize = 3;

/// One HTTP load-client run: `batch` requests per body against a daemon
/// of `server_threads`, the `repeat`-th run of its shape.
struct HttpRow {
    server_threads: usize,
    batch: usize,
    repeat: usize,
    report: LoadReport,
}

fn http_json(row: &HttpRow) -> Json {
    let r = &row.report;
    Json::obj([
        ("server_threads", row.server_threads.into()),
        ("connections", r.connections.into()),
        ("batch", row.batch.into()),
        ("repeat", row.repeat.into()),
        ("decisions", r.decisions.into()),
        ("decisions_per_sec", fixed(r.throughput, 1)),
        ("p50_us", (r.p50_ns / 1000).into()),
        ("p90_us", (r.p90_ns / 1000).into()),
        ("p99_us", (r.p99_ns / 1000).into()),
        ("max_us", (r.max_ns / 1000).into()),
        ("parity_mismatches", r.parity_mismatches.into()),
        ("stale_epochs", r.stale_epochs.into()),
        ("http_errors", r.http_errors.into()),
    ])
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");

    let distinct = if smoke { 64 } else { 256 };
    let per_thread = if smoke { 20_000 } else { 200_000 };
    let workload = build_workload(distinct, 42);
    let policies = vec![ground_truth_policy()];

    let thread_counts: &[usize] = if smoke { &[1, 2, 4] } else { &[1, 2, 4, 8] };
    let rows: Vec<ServerReport> = thread_counts
        .iter()
        .map(|&t| run_throughput(t, &workload, &policies, per_thread))
        .collect();

    let parity = run_parity(&policies, if smoke { 1000 } else { 5000 }, 7);
    let stress = run_stress(&policies, if smoke { 64 } else { 256 }, 4);
    let kernel_rows = run_kernel(smoke);
    let http_rows = run_http(&policies, smoke);

    let throughput: Vec<Json> = rows.iter().map(throughput_json).collect();
    let kernel: Vec<Json> = kernel_rows.iter().map(KernelRow::json).collect();
    let http: Vec<Json> = http_rows.iter().map(http_json).collect();
    print_table(
        "shared-snapshot PDP serving throughput (closed loop):",
        &throughput,
        &[],
    );
    println!(
        "\nparity vs reference evaluator: {}/{} identical",
        parity.requests - parity.mismatches,
        parity.requests
    );
    println!(
        "snapshot-swap stress: {} decisions across {} swaps, {} stale",
        stress.decisions, stress.swaps, stress.stale_served
    );
    print_table(
        "\npolicy kernel (DecisionSnapshot::decide_effects, unique requests):",
        &kernel,
        &[],
    );
    print_table("\nHTTP serving (in-process pdpd, loopback):", &http, &[]);

    let cpus = cpus();
    // A thread-scaling claim measured on hardware that cannot run the
    // threads in parallel is noise, not evidence — record null there.
    let speedup_4t = if cpus >= 4 { speedup(&rows, 4) } else { None };
    // `run_http` runs the single-connection repeats first.
    let mut single_conn: Vec<f64> = http_rows[..SINGLE_CONN_REPEATS]
        .iter()
        .map(|row| row.report.throughput)
        .collect();
    single_conn.sort_by(f64::total_cmp);
    let single_conn = percentile(&single_conn, 50.0);
    write_bench(
        "pdp",
        "pdp",
        "agenp-bench/pdp/v7",
        smoke,
        vec![
            ("throughput", Json::Arr(throughput)),
            (
                "parity",
                Json::obj([
                    ("requests", parity.requests.into()),
                    ("mismatches", parity.mismatches.into()),
                ]),
            ),
            (
                "stress",
                Json::obj([
                    ("decisions", stress.decisions.into()),
                    ("swaps", stress.swaps.into()),
                    ("stale_served", stress.stale_served.into()),
                ]),
            ),
            ("kernel", Json::Arr(kernel)),
            ("http", Json::Arr(http)),
        ],
        vec![
            ("speedup_4t_over_1t", speedup_4t.map(|s| fixed(s, 3)).into()),
            ("http_single_conn_decisions_per_sec", fixed(single_conn, 1)),
        ],
    );

    if parity.mismatches > 0 {
        eprintln!(
            "pdp: serving tier disagreed with the reference evaluator on {} of {} requests",
            parity.mismatches, parity.requests
        );
        std::process::exit(1);
    }
    for row in &kernel_rows {
        if row.mismatches > 0 {
            eprintln!(
                "pdp: the policy kernel disagreed with the reference evaluator on {} of {} \
                 requests ({} rules, {}{})",
                row.mismatches,
                row.requests,
                row.rules,
                alg_name(row.combining),
                if row.mixed { ", mixed policies" } else { "" }
            );
            std::process::exit(1);
        }
    }
    if stress.stale_served > 0 {
        eprintln!(
            "pdp: {} decisions were served from a stale snapshot across {} snapshot swaps",
            stress.stale_served, stress.swaps
        );
        std::process::exit(1);
    }
    for HttpRow {
        server_threads,
        batch,
        report: r,
        ..
    } in &http_rows
    {
        if r.parity_mismatches > 0 || r.stale_epochs > 0 || r.http_errors > 0 {
            eprintln!(
                "pdp: HTTP load run ({} conn, batch {batch}, {server_threads} server \
                 thread(s)) was not clean: {} mismatches, {} stale epochs, {} errors",
                r.connections, r.parity_mismatches, r.stale_epochs, r.http_errors
            );
            std::process::exit(1);
        }
    }
    if single_conn < 10_000.0 {
        eprintln!(
            "pdp: median single-connection HTTP throughput {single_conn:.0} dec/s \
             ({SINGLE_CONN_REPEATS} runs) is below the 10k floor"
        );
        std::process::exit(1);
    }
    // The scaling gate only means something when the hardware can actually
    // run 4 workers in parallel (CI runners can; 1-CPU boxes cannot).
    if cpus >= 4 {
        if let Some(s) = speedup_4t {
            if s < 2.0 {
                eprintln!(
                    "pdp: 4-thread throughput must be >= 2x the 1-thread run on a \
                     {cpus}-CPU machine (measured {s:.2}x)"
                );
                std::process::exit(1);
            }
        }
    } else {
        println!("pdp: skipping the 4-thread scaling gate ({cpus} CPU available)");
    }
    println!(
        "BENCH_pdp.json validated (parity {}/{} ok, {} stale across {} swaps, \
         http 1-conn median {:.0} dec/s{})",
        parity.requests - parity.mismatches,
        parity.requests,
        stress.stale_served,
        stress.swaps,
        single_conn,
        match speedup_4t {
            Some(s) => format!(", 4t/1t {s:.2}x"),
            None => String::new(),
        }
    );
}

/// `distinct` seeded random XACML requests, converted to the attribute
/// model the PDP evaluates.
fn build_workload(distinct: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..distinct)
        .map(|_| XacmlRequest::random(&mut rng).to_request())
        .collect()
}

fn run_throughput(
    threads: usize,
    workload: &[Request],
    policies: &[Policy],
    per_thread: usize,
) -> ServerReport {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        policies.to_vec(),
        CombiningAlg::DenyOverrides,
    ));
    PdpServer::new(handle)
        .with_threads(threads)
        .run(workload, per_thread)
}

/// Single-thread parity: the serving tier, through the handle and through
/// a pin, must render effects (decision, obligations, penalty) identical to
/// the straight-line reference evaluator over a fresh randomized request
/// stream.
fn run_parity(policies: &[Policy], requests: usize, seed: u64) -> ParityOutcome {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        policies.to_vec(),
        CombiningAlg::DenyOverrides,
    ));
    let mut pin = handle.pin();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mismatches = 0usize;
    for _ in 0..requests {
        let req = XacmlRequest::random(&mut rng).to_request();
        let expected = reference::effects_reference(policies, CombiningAlg::DenyOverrides, &req);
        if handle.decide(&req).effects() != expected || pin.decide(&req).effects() != expected {
            mismatches += 1;
        }
    }
    ParityOutcome {
        requests,
        mismatches,
    }
}

/// Snapshot-swap stress: worker threads hammer a small request set while
/// the main thread alternates between the real policy set and a
/// deny-everything set. Each published epoch has a known expected decision
/// function; a decision that disagrees with its own epoch's policy set was
/// served stale.
fn run_stress(policies: &[Policy], swaps: u64, threads: usize) -> StressOutcome {
    let deny_all = vec![Policy::new(
        "deny-all",
        vec![PolicyRule::unconditional(
            "deny-everything",
            agenp_policy::Effect::Deny,
        )],
    )];
    let workload = build_workload(16, 99);
    // Expected decision per request under each policy set, computed once:
    // epoch 0 is the handle's empty initial snapshot, odd epochs serve the
    // real set, even (published) epochs serve deny-all.
    let under_real: Vec<Decision> = workload
        .iter()
        .map(|r| evaluate_policies(policies, CombiningAlg::DenyOverrides, r))
        .collect();
    let under_empty: Vec<Decision> = workload
        .iter()
        .map(|r| evaluate_policies(&[], CombiningAlg::DenyOverrides, r))
        .collect();

    let handle = PdpHandle::new();
    let stop = AtomicBool::new(false);
    let decisions = AtomicU64::new(0);
    let stale = AtomicU64::new(0);

    std::thread::scope(|s| {
        for t in 0..threads {
            let h = handle.clone();
            let (stop, decisions, stale) = (&stop, &decisions, &stale);
            let (workload, under_real, under_empty) = (&workload, &under_real, &under_empty);
            s.spawn(move || {
                let mut i = t; // phase-shift the streams
                while !stop.load(Ordering::Relaxed) {
                    let idx = i % workload.len();
                    let outcome = h.decide(&workload[idx]);
                    let expected = match outcome.epoch {
                        0 => under_empty[idx],
                        e if e % 2 == 1 => under_real[idx],
                        _ => Decision::Deny,
                    };
                    if outcome.decision != expected {
                        stale.fetch_add(1, Ordering::Relaxed);
                    }
                    decisions.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // The swapper: odd epochs get the real set, even epochs deny-all.
        for swap in 0..swaps {
            let snapshot = if swap % 2 == 0 {
                DecisionSnapshot::new(policies.to_vec(), CombiningAlg::DenyOverrides)
            } else {
                DecisionSnapshot::new(deny_all.clone(), CombiningAlg::DenyOverrides)
            };
            handle.publish(snapshot);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });
    StressOutcome {
        decisions: decisions.load(Ordering::Relaxed),
        swaps,
        stale_served: stale.load(Ordering::Relaxed),
    }
}

/// Policy-set sizes of the kernel section, in rules; `--smoke` runs the
/// first two.
const KERNEL_RULES: [usize; 4] = [24, 96, 384, 1536];
const KERNEL_RULES_PER_POLICY: usize = 3;

/// The kernel section: for each size, under each overrides algorithm taken
/// by every policy and under deny-overrides over policies that each draw
/// their own algorithm, times `DecisionSnapshot::decide_effects` on unique
/// requests, one decision per timing, then checks every decision against
/// the reference evaluator.
fn run_kernel(smoke: bool) -> Vec<KernelRow> {
    let sizes = if smoke {
        &KERNEL_RULES[..2]
    } else {
        &KERNEL_RULES[..]
    };
    let requests = if smoke { 2_000 } else { 20_000 };
    let mut rows = Vec::new();
    for &rules in sizes {
        for combining in [CombiningAlg::DenyOverrides, CombiningAlg::PermitOverrides] {
            rows.push(kernel_row(rules, combining, false, requests));
        }
        rows.push(kernel_row(
            rules,
            CombiningAlg::DenyOverrides,
            true,
            requests,
        ));
    }
    rows
}

fn kernel_row(rules: usize, combining: CombiningAlg, mixed: bool, requests: usize) -> KernelRow {
    let mut rng = gen::rng_for(0x6b65_726e ^ rules as u64);
    let count = rules / KERNEL_RULES_PER_POLICY;
    let policies = if mixed {
        let algs: Vec<CombiningAlg> = (0..count).map(|_| gen::combining(&mut rng)).collect();
        kernel_policies(&mut rng, &algs)
    } else {
        kernel_policies(&mut rng, &vec![combining; count])
    };
    // Compiling happens in `DecisionSnapshot::new`; the median of five
    // builds, each from its own copy of the set. Each snapshot is dropped
    // after the clock read, so freeing it is not timed.
    let mut compile_ns: Vec<u64> = (0..5)
        .map(|_| {
            let copy = policies.clone();
            let started = Instant::now();
            let snapshot = black_box(DecisionSnapshot::new(copy, combining));
            let ns = nanos(started);
            drop(snapshot);
            ns
        })
        .collect();
    compile_ns.sort_unstable();
    let snapshot = DecisionSnapshot::new(policies.clone(), combining);
    let reqs: Vec<Request> = (0..requests)
        .map(|i| {
            let mut r = gen::request(&mut rng);
            r.set(Category::Subject, "id", format!("u{i}"));
            r
        })
        .collect();
    for r in reqs.iter().take(256) {
        black_box(snapshot.decide_effects(r));
    }
    let mut outs: Vec<DecisionEffects> = Vec::with_capacity(requests);
    let mut ns: Vec<u64> = Vec::with_capacity(requests);
    for r in &reqs {
        let started = Instant::now();
        let out = snapshot.decide_effects(black_box(r));
        ns.push(nanos(started));
        outs.push(out);
    }
    ns.sort_unstable();
    let mismatches = reqs
        .iter()
        .zip(&outs)
        .filter(|(r, out)| **out != reference::effects_reference(&policies, combining, r))
        .count();
    let mut settled: Vec<usize> = reqs
        .iter()
        .map(|r| settled_index(&policies, combining, r))
        .collect();
    settled.sort_unstable();
    KernelRow {
        rules,
        policies: policies.len(),
        combining,
        mixed,
        requests,
        compile_us: compile_ns[compile_ns.len() / 2] as f64 / 1000.0,
        p50_ns: percentile(&ns, 50.0),
        p99_ns: percentile(&ns, 99.0),
        settled_index_p50: percentile(&settled, 50.0),
        mismatches,
    }
}

/// Generated policies of three rules each, policy `p` combining its rules
/// with `algs[p]`.
fn kernel_policies(rng: &mut StdRng, algs: &[CombiningAlg]) -> Vec<Policy> {
    algs.iter()
        .enumerate()
        .map(|(p, &alg)| {
            let rules = (0..KERNEL_RULES_PER_POLICY)
                .map(|r| {
                    let effect = if rng.gen_bool(0.5) {
                        Effect::Permit
                    } else {
                        Effect::Deny
                    };
                    PolicyRule::new(&format!("p{p}r{r}"), effect, gen::cond(rng, 2))
                })
                .collect();
            Policy::new(&format!("p{p}"), rules).with_combining(alg)
        })
        .collect()
}

/// The index of the policy that settled `request`: the first whose own
/// decision is the algorithm's absorbing one, or the last policy when none
/// is. Computed with `Policy::evaluate`, outside the kernel.
fn settled_index(policies: &[Policy], combining: CombiningAlg, request: &Request) -> usize {
    let absorbing = match combining {
        CombiningAlg::DenyOverrides => Decision::Deny,
        CombiningAlg::PermitOverrides => Decision::Permit,
        CombiningAlg::FirstApplicable => unreachable!("the kernel section runs overrides only"),
    };
    policies
        .iter()
        .position(|p| p.evaluate(request) == absorbing)
        .unwrap_or(policies.len().saturating_sub(1))
}

/// Nanoseconds since `started`.
fn nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn alg_name(alg: CombiningAlg) -> &'static str {
    match alg {
        CombiningAlg::DenyOverrides => "deny-overrides",
        CombiningAlg::PermitOverrides => "permit-overrides",
        CombiningAlg::FirstApplicable => "first-applicable",
    }
}

/// Drives in-process `agenp-pdpd` HTTP servers with the crate's own load
/// client: [`SINGLE_CONN_REPEATS`] runs on one connection (the gated
/// shape), then `cpus.min(4)` connections, then a batched run, all against
/// a daemon of `cpus` threads; then four connections against a
/// `threads: 1` daemon, more connections than threads. Every response is
/// parity-checked against the oracle by the client.
fn run_http(policies: &[Policy], smoke: bool) -> Vec<HttpRow> {
    let cpus = std::thread::available_parallelism().map_or(2, usize::from);
    let requests = if smoke { 20_000 } else { 100_000 };
    let shapes: Vec<(usize, usize, usize)> = (0..SINGLE_CONN_REPEATS)
        .map(|repeat| (1, 1, repeat))
        .chain([(cpus.min(4), 1, 0), (1, 16, 0)])
        .collect();
    let mut rows = http_runs(policies, cpus, &shapes, requests);
    rows.extend(http_runs(policies, 1, &[(4, 1, 0)], requests));
    rows
}

/// Boots a daemon of `server_threads` on an ephemeral loopback port and
/// runs each `(connections, batch, repeat)` shape against it.
fn http_runs(
    policies: &[Policy],
    server_threads: usize,
    shapes: &[(usize, usize, usize)],
    requests: usize,
) -> Vec<HttpRow> {
    let handle = PdpHandle::new();
    handle.publish(DecisionSnapshot::new(
        policies.to_vec(),
        CombiningAlg::DenyOverrides,
    ));
    let options = ServerOptions {
        threads: server_threads,
        ..ServerOptions::default()
    };
    let server = PdpdServer::bind("127.0.0.1:0", handle, options)
        .expect("pdp: cannot bind the in-process HTTP server on loopback");

    let workload = build_workload(64, 1234);
    let expected: Vec<Decision> = workload
        .iter()
        .map(|r| server.handle().decide(r).decision)
        .collect();
    shapes
        .iter()
        .map(|&(connections, batch, repeat)| {
            let report = run_load(
                server.addr(),
                &workload,
                &expected,
                &LoadOptions {
                    connections,
                    requests,
                    batch,
                    ..LoadOptions::default()
                },
            )
            .expect("pdp: HTTP load run failed against the in-process server");
            HttpRow {
                server_threads,
                batch,
                repeat,
                report,
            }
        })
        .collect()
}

fn speedup(rows: &[ServerReport], threads: usize) -> Option<f64> {
    let one = rows.iter().find(|r| r.threads == 1)?;
    let many = rows.iter().find(|r| r.threads == threads)?;
    if one.throughput > 0.0 {
        Some(many.throughput / one.throughput)
    } else {
        None
    }
}
