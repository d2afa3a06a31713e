//! `obs` — overhead and flight-recorder validation harness for the
//! unified observability subsystem (`agenp-obs`; `docs/OBSERVABILITY.md`).
//!
//! Three phases, writing `BENCH_obs.json` (through
//! [`agenp_bench::write_bench`]):
//!
//! 1. **Disabled baseline** — drives the shared-snapshot PDP workload with
//!    `ObsConfig::disabled()` and asserts the telemetry layer stays
//!    completely cold (no spans recorded, no `serve.*` counters moved).
//! 2. **Enabled overhead** — the same workload with telemetry on. Phases 1
//!    and 2 interleave: [`PAIRS`] off/on pairs per thread count, each pair
//!    run as [`SEGMENTS`] alternating off/on segments (the side that runs
//!    first alternating too), and the gate reads the median
//!    enabled/disabled throughput ratio of the 1-thread pairs.
//! 3. **Autonomic-loop dump** — a full learn → adopt → decide-under-load
//!    run plus a coalition learning round with telemetry enabled, dumped
//!    through the exporter; the dump must parse as JSON and contain spans
//!    from the asp, learn, core/serve, and coalition layers. The file
//!    records a summary of the dump (validity, bytes, spans, dropped
//!    spans, spans per layer), not the dump itself.
//!
//! Usage: `cargo run -p agenp-bench --bin obs --release [-- --smoke]`
//!
//! `--smoke` runs reduced scales suitable for CI and exits nonzero on any
//! gate failure (the gates run in both modes; smoke only shrinks scales).

use agenp_bench::{fixed, print_table, write_bench};
use agenp_coalition::{sim, CoalitionConfig};
use agenp_core::arch::{Ams, DecisionSnapshot, Feedback, PdpHandle, PdpServer, ServerReport};
use agenp_grammar::{Asg, ProdId};
use agenp_learn::HypothesisSpace;
use agenp_obs::json::{self, Json};
use agenp_obs::{MemoryExporter, ObsConfig};
use agenp_policy::{CombiningAlg, Policy, Request};

/// One side of an off/on pair, summed over its segments.
#[derive(Default)]
struct Side {
    decisions: u64,
    micros: u128,
}

impl Side {
    fn throughput(&self) -> f64 {
        self.decisions as f64 * 1e6 / self.micros.max(1) as f64
    }
}

/// One interleaved telemetry-off/on pair at `threads` worker threads.
struct Pair {
    threads: usize,
    off: Side,
    on: Side,
}

impl Pair {
    /// Enabled-mode throughput as a fraction of disabled-mode.
    fn ratio(&self) -> f64 {
        self.on.throughput() / self.off.throughput()
    }
}

/// Span-name prefixes the autonomic-loop dump must cover, one per
/// instrumented layer (asp, learn, core control loop, serving tier,
/// coalition fabric).
const REQUIRED_PREFIXES: &[&str] = &["asp.", "learn.", "ams.", "serve.", "coalition."];

/// Enabled-mode decide throughput must stay at or above this fraction of
/// disabled-mode, as the median ratio of the 1-thread pairs. With
/// telemetry on, a decide ticks its thread's sampler; only about one call
/// in 64 reads the clock twice, records a histogram sample and bumps the
/// `serve.decisions` counter. A clock read, lock or allocation per decide
/// on the hot path would fail the gate.
const MIN_ENABLED_RATIO: f64 = 0.9;

/// Interleaved telemetry-off/on pairs per thread count.
const PAIRS: usize = 11;

/// Segments per side of a pair. Alternating short off and on segments
/// lets both sides see the same phases of a shared machine, whose speed
/// drifts by more than the telemetry overhead within a second.
const SEGMENTS: usize = 20;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let distinct = if smoke { 64 } else { 256 };
    // Decisions per side of a pair, split across its segments and threads.
    let per_side = if smoke { 2_000_000 } else { 10_000_000 };
    let workload = build_workload(distinct);
    let policies = vec![clearance_policy()];

    // Phases 1 and 2: off/on pairs, and proof that disabled mode stays
    // cold (every off segment leaves the recorder and `serve.*` untouched).
    agenp_obs::recorder().clear();
    let mut pairs = Vec::new();
    let mut disabled_clean = true;
    for threads in [1, 4] {
        for pair in 0..PAIRS {
            let mut sides = [Side::default(), Side::default()];
            for segment in 0..SEGMENTS {
                let first = (pair + segment) % 2 == 1;
                for telemetry in [first, !first] {
                    agenp_obs::install(if telemetry {
                        ObsConfig::enabled()
                    } else {
                        ObsConfig::disabled()
                    });
                    let spans_before = agenp_obs::recorder().recorded();
                    let serve_before = agenp_obs::registry().counter("serve.decisions").value();
                    let per_thread = per_side / SEGMENTS / threads;
                    let report = run_segment(threads, &workload, &policies, per_thread);
                    disabled_clean &= telemetry
                        || (agenp_obs::recorder().recorded() == spans_before
                            && agenp_obs::registry().counter("serve.decisions").value()
                                == serve_before);
                    let side = &mut sides[usize::from(telemetry)];
                    side.decisions += report.decisions;
                    side.micros += report.elapsed.as_micros();
                }
            }
            let [off, on] = sides;
            pairs.push(Pair { threads, off, on });
        }
    }
    agenp_obs::install(ObsConfig::enabled());
    let overhead_1t = median_ratio(&pairs, 1);
    let overhead_4t = median_ratio(&pairs, 4);

    // Phase 3: full autonomic loop + coalition round, dumped and validated.
    agenp_obs::recorder().clear();
    let exporter = MemoryExporter::new();
    agenp_obs::set_exporter(Box::new(exporter.clone()));
    run_autonomic_loop(smoke);
    run_coalition_round(smoke);
    let snapshot = agenp_obs::snapshot("bench");
    let dumped = agenp_obs::dump("bench").expect("memory exporter cannot fail");
    assert!(dumped, "an exporter was installed");
    let dump_line = exporter
        .exports()
        .pop()
        .expect("dump() delivered one export");
    agenp_obs::clear_exporter();
    agenp_obs::install(ObsConfig::disabled());
    let json_valid = json::parse(&dump_line).is_ok();
    let prefix_counts: Vec<(&str, usize)> = REQUIRED_PREFIXES
        .iter()
        .map(|&p| (p, snapshot.spans_with_prefix(p).len()))
        .collect();

    let throughput: Vec<Json> = pairs
        .iter()
        .enumerate()
        .flat_map(|(i, p)| {
            [(false, &p.off), (true, &p.on)].map(|(telemetry, side)| {
                Json::obj([
                    ("telemetry", telemetry.into()),
                    ("threads", p.threads.into()),
                    ("pair", (i % PAIRS).into()),
                    ("decisions", side.decisions.into()),
                    ("micros", side.micros.into()),
                    ("decisions_per_sec", fixed(side.throughput(), 1)),
                ])
            })
        })
        .collect();
    let layers: Vec<Json> = prefix_counts
        .iter()
        .map(|(prefix, n)| Json::obj([("prefix", (*prefix).into()), ("spans", (*n).into())]))
        .collect();
    let dump = Json::obj([
        ("json_valid", json_valid.into()),
        ("bytes", dump_line.len().into()),
        ("spans", snapshot.spans.len().into()),
        ("dropped_spans", snapshot.dropped_spans.into()),
        ("layers", Json::Arr(layers.clone())),
    ]);
    print_table(
        &format!(
            "pdp decide throughput, telemetry off vs on \
             ({PAIRS} pairs of {SEGMENTS} interleaved segments, closed loop):"
        ),
        &throughput,
        &["threads", "pair", "telemetry", "decisions_per_sec"],
    );
    for (threads, ratio) in [(1, overhead_1t), (4, overhead_4t)] {
        let each: Vec<String> = pairs
            .iter()
            .filter(|p| p.threads == threads)
            .map(|p| format!("{:.3}", p.ratio()))
            .collect();
        println!(
            "\n{threads}-thread enabled/disabled throughput, median of {PAIRS} pairs: {}\n  \
             each pair's on/off: {}",
            agenp_bench::pct(ratio),
            each.join(" ")
        );
    }
    println!(
        "disabled mode stayed cold: {}",
        if disabled_clean { "yes" } else { "NO" }
    );
    print_table(
        "\nflight-recorder dump:",
        std::slice::from_ref(&dump),
        &["json_valid", "bytes", "spans", "dropped_spans"],
    );
    print_table("", &layers, &[]);

    write_bench(
        "obs",
        "obs",
        "agenp-bench/obs/v3",
        smoke,
        vec![("throughput", Json::Arr(throughput)), ("dump", dump)],
        vec![
            ("enabled_over_disabled_1t", fixed(overhead_1t, 3)),
            ("enabled_over_disabled_4t", fixed(overhead_4t, 3)),
            ("pairs", PAIRS.into()),
            ("segments", SEGMENTS.into()),
            ("min_enabled_ratio_1t", MIN_ENABLED_RATIO.into()),
            ("disabled_clean", disabled_clean.into()),
        ],
    );

    // Gates (smoke and full mode alike).
    if !disabled_clean {
        eprintln!("obs: disabled mode leaked into the registry or recorder");
        std::process::exit(1);
    }
    if !json_valid {
        eprintln!("obs: the flight-recorder dump failed JSON validation");
        std::process::exit(1);
    }
    for (prefix, n) in &prefix_counts {
        if *n == 0 {
            eprintln!("obs: dump has no spans with prefix {prefix:?}");
            std::process::exit(1);
        }
    }
    if overhead_1t < MIN_ENABLED_RATIO {
        eprintln!(
            "obs: telemetry-enabled 1-thread throughput fell to {:.0}% of \
             telemetry-off (median of {PAIRS} pairs; gate: >= {:.0}%)",
            overhead_1t * 100.0,
            MIN_ENABLED_RATIO * 100.0
        );
        std::process::exit(1);
    }
    println!(
        "BENCH_obs.json validated (disabled clean, {} spans across {} layers, \
         enabled/disabled {:.0}%)",
        snapshot.spans.len(),
        prefix_counts.len(),
        overhead_1t * 100.0
    );
}

/// A policy permitting high-clearance subjects and denying low-clearance
/// ones.
fn clearance_policy() -> Policy {
    use agenp_policy::{Category, Cond, Effect, PolicyRule};
    Policy::new(
        "clearance",
        vec![
            PolicyRule::new(
                "allow-high",
                Effect::Permit,
                Cond::eq(Category::Subject, "clearance", "high"),
            ),
            PolicyRule::new(
                "deny-low",
                Effect::Deny,
                Cond::eq(Category::Subject, "clearance", "low"),
            ),
        ],
    )
}

fn build_workload(distinct: usize) -> Vec<Request> {
    (0..distinct)
        .map(|i| {
            Request::new()
                .subject(
                    "clearance",
                    match i % 3 {
                        0 => "high",
                        1 => "low",
                        _ => "none",
                    },
                )
                .subject("uid", format!("u{i}").as_str())
        })
        .collect()
}

/// One segment: `threads` workers deciding `per_thread` times each against
/// a fresh handle.
fn run_segment(
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

/// The median enabled/disabled throughput ratio of the pairs at `threads`.
fn median_ratio(pairs: &[Pair], threads: usize) -> f64 {
    let mut ratios: Vec<f64> = pairs
        .iter()
        .filter(|p| p.threads == threads)
        .map(Pair::ratio)
        .collect();
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    }
}

/// The gated grammar the `agenp-core` AMS tests use: adaptation learns that
/// permits are invalid under lockdown.
fn gate_ams() -> Ams {
    let g: Asg = r#"
        policy -> effect "if" "subject" "clearance" "=" level
        effect -> "permit" { e(permit). }
        effect -> "deny"   { e(deny). }
        level -> "low"  { lvl(low). }
        level -> "high" { lvl(high). }
    "#
    .parse()
    .expect("bench grammar parses");
    let space = HypothesisSpace::from_texts(&[
        (ProdId::from_index(1), ":- lockdown."),
        (ProdId::from_index(2), ":- not lockdown."),
    ]);
    Ams::new("obs-bench", g, space)
}

/// Learn → adopt → decide under load: generates policies, serves a
/// multi-threaded decision burst, feeds back lockdown experience, adapts,
/// and serves again — the full control loop under telemetry.
fn run_autonomic_loop(smoke: bool) {
    let mut ams = gate_ams();
    ams.refresh_policies().expect("initial refresh succeeds");

    let requests: Vec<Request> = (0..16)
        .map(|i| Request::new().subject("clearance", if i % 2 == 0 { "high" } else { "low" }))
        .collect();
    let per_thread = if smoke { 2_000 } else { 20_000 };
    PdpServer::new(ams.serving_handle())
        .with_threads(2)
        .run(&requests, per_thread);

    let lockdown: agenp_asp::Program = "lockdown.".parse().expect("context parses");
    ams.set_context(lockdown.clone());
    ams.observe(Feedback::invalid(
        "permit if subject clearance = high",
        lockdown.clone(),
    ));
    ams.observe(Feedback::invalid(
        "permit if subject clearance = low",
        lockdown.clone(),
    ));
    ams.observe(Feedback::valid(
        "deny if subject clearance = high",
        lockdown,
    ));
    ams.adapt().expect("adaptation succeeds");
    PdpServer::new(ams.serving_handle())
        .with_threads(2)
        .run(&requests, per_thread);
}

/// One fault-free coalition learning round, small enough for CI.
fn run_coalition_round(smoke: bool) {
    let samples = if smoke { 40 } else { 120 };
    let cfg = CoalitionConfig::new(2, samples, 7);
    let wiki = agenp_coalition::CasWiki::new();
    sim::learning_round(&cfg, &wiki).expect("fault-free coalition round succeeds");
}
