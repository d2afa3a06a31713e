//! `adapt` — the relearn-while-serving harness for the adaptation plane
//! (`crates/adapt`, `docs/ADAPTATION.md`).
//!
//! One [`AdaptPlane`] — a front end of an [`Ams`] — serves a leveled
//! permit grammar while worker threads hammer its [`PdpHandle`]. The
//! harness measures decide throughput in two phases — idle (no rounds
//! run) and relearn (the main thread runs a sequence of
//! [`AdaptPlane::run_round`] calls, each mining one new operator denial
//! and republishing a refined policy set through `Ams::adapt`) — and
//! validates the serving invariants the whole design rests on:
//!
//! - **zero stale decisions**: every decision agrees with the policy set
//!   of its *own* epoch (each round removes one more level, so a stale
//!   snapshot renders a visibly wrong decision);
//! - **epoch monotonicity**: no deciding thread ever observes the epoch
//!   moving backwards;
//! - **time-to-adoption**: per round, the time from the round's start
//!   until a deciding thread first serves a decision at the refined epoch
//!   (claims: the p50 and the max over the published rounds).
//! - **stages that add up**: each round row splits its `Ams::adapt` call
//!   into learn (of which compile and search), generate, screen,
//!   translate and publish times; at the round with the median
//!   `adapt_us`, learn through publish must sum to within 10% of it.
//!
//! Writes `BENCH_adapt.json` (through [`agenp_bench::write_bench`]).
//! `--smoke` runs reduced scales. Both modes exit nonzero on malformed
//! output, any stale decision, epoch regression, failed round, stages
//! more than 10% off their round's `adapt_us`, or (on
//! machines with >= 4 CPUs) a relearn-phase throughput below 75% of the
//! idle phase.
//!
//! Usage: `cargo run -p agenp-bench --bin adapt --release [-- --smoke]`

use agenp_adapt::{AdaptPlane, RoundOutcome};
use agenp_bench::{cpus, fixed, percentile, print_table, write_bench};
use agenp_core::arch::{Ams, PdpHandle};
use agenp_grammar::{Asg, ProdId};
use agenp_learn::HypothesisSpace;
use agenp_obs::json::Json;
use agenp_policy::{Decision, Request};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One serving phase's aggregate.
struct PhaseRow {
    decisions: u64,
    micros: u128,
    throughput: f64,
}

/// One adaptation round as driven by the harness.
struct RoundRow {
    round: usize,
    epoch: u64,
    examples: usize,
    constraints: usize,
    rules: usize,
    round_ms: f64,
    adoption_ms: f64,
    published: bool,
    /// `Ams::adapt` and its stages, in microseconds; `path` is where
    /// generation and screening read from.
    adapt_us: f64,
    stages: [(&'static str, f64); 5],
    /// The learn stage's compile and search parts.
    learner: [(&'static str, f64); 2],
    path: &'static str,
}

impl PhaseRow {
    fn json(&self) -> Json {
        Json::obj([
            ("decisions", self.decisions.into()),
            ("micros", self.micros.into()),
            ("decisions_per_sec", fixed(self.throughput, 1)),
        ])
    }
}

impl RoundRow {
    fn json(&self) -> Json {
        let columns = [
            ("round", self.round.into()),
            ("published", self.published.into()),
            ("epoch", self.epoch.into()),
            ("examples", self.examples.into()),
            ("constraints", self.constraints.into()),
            ("rules", self.rules.into()),
            ("round_ms", fixed(self.round_ms, 2)),
            ("adoption_ms", fixed(self.adoption_ms, 2)),
            ("adapt_us", fixed(self.adapt_us, 1)),
        ];
        let stages = self.stages[..1]
            .iter()
            .chain(&self.learner)
            .chain(&self.stages[1..])
            .map(|&(name, us)| (name, fixed(us, 1)));
        Json::obj(
            columns
                .into_iter()
                .chain(stages)
                .chain([("path", self.path.into())]),
        )
    }

    /// How far the stages' sum is from `adapt_us`, as a fraction of it.
    fn unattributed(&self) -> f64 {
        let sum: f64 = self.stages.iter().map(|(_, us)| us).sum();
        (self.adapt_us - sum).abs() / self.adapt_us
    }
}

/// The stages of a round row, in the order `Ams::adapt` runs them.
const STAGES: [&str; 5] = [
    "learn_us",
    "generate_us",
    "screen_us",
    "translate_us",
    "publish_us",
];

/// Serving-invariant counters shared by the deciding threads.
#[derive(Default)]
struct Invariants {
    stale: AtomicU64,
    regressions: AtomicU64,
    max_epoch_seen: AtomicU64,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let levels = if smoke { 8 } else { 12 };
    let rounds = if smoke { 4 } else { 8 };
    let threads = if smoke { 2 } else { 4 };
    let phase = Duration::from_millis(if smoke { 250 } else { 1000 });

    let (gpm, space) = leveled_grammar(levels);
    let mut plane = AdaptPlane::new(Ams::new("bench", gpm, space));
    let first_epoch = plane
        .publish_initial()
        .expect("adapt: initial policy generation failed");
    let handle = plane.handle();
    let workload: Vec<Request> = (0..levels)
        .map(|i| Request::new().subject("clearance", format!("l{i}")))
        .collect();

    // Phase 1: idle throughput (no round runs at all).
    let idle_inv = Invariants::default();
    let idle = run_phase(
        &handle,
        &workload,
        threads,
        first_epoch,
        &idle_inv,
        |stop| {
            std::thread::sleep(phase);
            stop.store(true, Ordering::Relaxed);
        },
    );

    // Phase 2: the same serving load while the main thread runs
    // `rounds` adaptation rounds; the phase lasts at least as long as the
    // idle window and as long as the rounds need.
    let relearn_inv = Invariants::default();
    let mut round_rows: Vec<RoundRow> = Vec::with_capacity(rounds);
    let relearn = run_phase(
        &handle,
        &workload,
        threads,
        first_epoch,
        &relearn_inv,
        |stop| {
            let started = Instant::now();
            for round in 0..rounds {
                round_rows.push(drive_round(round, &mut plane, &relearn_inv));
            }
            if started.elapsed() < phase {
                std::thread::sleep(phase - started.elapsed());
            }
            stop.store(true, Ordering::Relaxed);
        },
    );

    let ratio = if idle.throughput > 0.0 {
        relearn.throughput / idle.throughput
    } else {
        0.0
    };
    let stale = idle_inv.stale.load(Ordering::Relaxed) + relearn_inv.stale.load(Ordering::Relaxed);
    let regressions = idle_inv.regressions.load(Ordering::Relaxed)
        + relearn_inv.regressions.load(Ordering::Relaxed);
    let published = round_rows.iter().filter(|r| r.published).count();
    let mut adoptions: Vec<f64> = round_rows
        .iter()
        .filter(|r| r.published)
        .map(|r| r.adoption_ms)
        .collect();
    adoptions.sort_by(f64::total_cmp);
    let p50_adoption = percentile(&adoptions, 50.0);
    let max_adoption = adoptions.last().copied().unwrap_or(0.0);
    let mut by_adapt: Vec<&RoundRow> = round_rows.iter().filter(|r| r.published).collect();
    by_adapt.sort_by(|a, b| a.adapt_us.total_cmp(&b.adapt_us));
    let median_round = by_adapt.get(by_adapt.len() / 2).copied();
    let unattributed = median_round.map_or(0.0, RoundRow::unattributed);
    let final_epoch = handle.snapshot().epoch();
    let cpus = cpus();

    let serving = Json::obj([
        ("threads", threads.into()),
        ("levels", levels.into()),
        ("idle", idle.json()),
        ("relearn", relearn.json()),
        ("relearn_over_idle", fixed(ratio, 4)),
    ]);
    let rounds_json: Vec<Json> = round_rows.iter().map(RoundRow::json).collect();
    print_table(
        "relearn-while-serving (shared handle, rounds on the main thread):",
        std::slice::from_ref(&serving),
        &[
            "threads",
            "idle.decisions",
            "idle.decisions_per_sec",
            "relearn.decisions",
            "relearn.decisions_per_sec",
            "relearn_over_idle",
        ],
    );
    print_table("\nadaptation rounds:", &rounds_json, &[]);
    println!("\nstale decisions: {stale}, epoch regressions: {regressions}");
    println!(
        "epochs {first_epoch} -> {final_epoch}, {} rounds published, {} examples buffered",
        published,
        plane.buffered_examples()
    );

    write_bench(
        "adapt",
        "adapt",
        "agenp-bench/adapt/v1",
        smoke,
        vec![
            ("serving", serving),
            ("rounds", Json::Arr(rounds_json)),
            (
                "invariants",
                Json::obj([
                    ("stale_decisions", stale.into()),
                    ("epoch_regressions", regressions.into()),
                    ("final_epoch", final_epoch.into()),
                ]),
            ),
        ],
        vec![
            ("relearn_over_idle_throughput", fixed(ratio, 4)),
            ("p50_adoption_ms", fixed(p50_adoption, 2)),
            ("max_adoption_ms", fixed(max_adoption, 2)),
            ("median_round_unattributed", fixed(unattributed, 4)),
        ],
    );

    if stale > 0 {
        eprintln!("adapt: {stale} decisions disagreed with their own epoch's policy set");
        std::process::exit(1);
    }
    if regressions > 0 {
        eprintln!("adapt: the serving epoch moved backwards {regressions} times");
        std::process::exit(1);
    }
    if published != rounds {
        eprintln!("adapt: only {published} of {rounds} adaptation rounds published");
        std::process::exit(1);
    }
    if let Some(round) = median_round.filter(|_| unattributed > 0.10) {
        eprintln!(
            "adapt: at the median round ({}), the stages sum to {:.1}% off its {:.1} us adapt",
            round.round,
            unattributed * 100.0,
            round.adapt_us
        );
        std::process::exit(1);
    }
    if final_epoch != first_epoch + rounds as u64 {
        eprintln!(
            "adapt: expected the epoch to advance exactly once per round \
             ({first_epoch} + {rounds}), measured {final_epoch}"
        );
        std::process::exit(1);
    }
    // The throughput-interference gate needs enough CPUs to actually run
    // the deciders and the rounds in parallel.
    if cpus >= 4 {
        if ratio < 0.75 {
            eprintln!(
                "adapt: decide throughput during relearn is {:.1}% of idle \
                 (floor 75%) on a {cpus}-CPU machine",
                ratio * 100.0
            );
            std::process::exit(1);
        }
    } else {
        println!("adapt: skipping the relearn/idle throughput gate ({cpus} CPU available)");
    }
    println!(
        "BENCH_adapt.json validated ({published}/{rounds} rounds, 0 stale, 0 regressions, \
         relearn/idle {:.2}, adoption p50 {p50_adoption:.2} ms, max {max_adoption:.2} ms)",
        ratio
    );
}

/// A permit-only grammar over `levels` clearance levels, with one
/// hypothesis-space constraint per level (`:- lvl(li).`) so a mined
/// denial of level *i* relearns a GPM whose language drops exactly that
/// permit string. Decisions are therefore *epoch-observable*: at epoch
/// `first + r`, levels below `r` render NotApplicable and the rest
/// Permit.
fn leveled_grammar(levels: usize) -> (Asg, HypothesisSpace) {
    let mut text =
        String::from("policy -> \"permit\" \"if\" \"subject\" \"clearance\" \"=\" level\n");
    for i in 0..levels {
        text.push_str(&format!("level -> \"l{i}\" {{ lvl(l{i}). }}\n"));
    }
    let gpm: Asg = text.parse().expect("adapt: leveled grammar must parse");
    let constraints: Vec<(ProdId, String)> = (0..levels)
        .map(|i| (ProdId::from_index(1 + i), format!(":- lvl(l{i}).")))
        .collect();
    let borrowed: Vec<(ProdId, &str)> = constraints.iter().map(|(p, s)| (*p, s.as_str())).collect();
    (gpm, HypothesisSpace::from_texts(&borrowed))
}

/// Runs `threads` deciding threads against `handle` until `driver` sets
/// the stop flag, checking the per-decision invariants as it goes.
fn run_phase(
    handle: &PdpHandle,
    workload: &[Request],
    threads: usize,
    base_epoch: u64,
    inv: &Invariants,
    driver: impl FnOnce(&AtomicBool),
) -> PhaseRow {
    let stop = AtomicBool::new(false);
    let decisions = AtomicU64::new(0);
    let started = Instant::now();
    let mut elapsed = Duration::ZERO;
    std::thread::scope(|s| {
        for t in 0..threads {
            let h = handle.clone();
            let (stop, decisions) = (&stop, &decisions);
            s.spawn(move || {
                let mut local = 0u64;
                let mut last_epoch = 0u64;
                let mut i = t; // phase-shift the streams
                while !stop.load(Ordering::Relaxed) {
                    let level = i % workload.len();
                    let outcome = h.decide(&workload[level]);
                    // Each published epoch has a known decision function:
                    // round r (epoch base+r) has removed levels < r.
                    let removed = outcome.epoch.saturating_sub(base_epoch) as usize;
                    let expected = if level < removed {
                        Decision::NotApplicable
                    } else {
                        Decision::Permit
                    };
                    if outcome.decision != expected {
                        inv.stale.fetch_add(1, Ordering::Relaxed);
                    }
                    if outcome.epoch < last_epoch {
                        inv.regressions.fetch_add(1, Ordering::Relaxed);
                    }
                    last_epoch = outcome.epoch;
                    inv.max_epoch_seen
                        .fetch_max(outcome.epoch, Ordering::Relaxed);
                    local += 1;
                    i += 1;
                }
                decisions.fetch_add(local, Ordering::Relaxed);
            });
        }
        driver(&stop);
        elapsed = started.elapsed();
    });
    let decisions = decisions.load(Ordering::Relaxed);
    let micros = elapsed.as_micros();
    PhaseRow {
        decisions,
        micros,
        throughput: if micros > 0 {
            decisions as f64 * 1_000_000.0 / micros as f64
        } else {
            0.0
        },
    }
}

/// One adaptation round: log the operator's denial of the next level,
/// run the round on this thread, then wait until a deciding thread has
/// actually served at the refined epoch.
fn drive_round(round: usize, plane: &mut AdaptPlane, inv: &Invariants) -> RoundRow {
    let req = Request::new().subject("clearance", format!("l{round}"));
    let mut overridden = plane.handle().decide(&req);
    overridden.decision = Decision::Deny; // the operator overrode the permit
    plane.log().record(&req, &overridden);

    let started = Instant::now();
    let outcome = plane.run_round();
    let round_ms = started.elapsed().as_secs_f64() * 1000.0;
    let mut row = RoundRow {
        round,
        epoch: 0,
        examples: 0,
        constraints: 0,
        rules: 0,
        round_ms,
        adoption_ms: 0.0,
        published: false,
        adapt_us: 0.0,
        stages: STAGES.map(|name| (name, 0.0)),
        learner: [("compile_us", 0.0), ("search_us", 0.0)],
        path: "",
    };
    match outcome {
        RoundOutcome::Published(report) => {
            // Adoption: a deciding thread has served at the new epoch.
            let deadline = Instant::now() + Duration::from_secs(30);
            while inv.max_epoch_seen.load(Ordering::Relaxed) < report.epoch {
                assert!(
                    Instant::now() < deadline,
                    "adapt: epoch {} never reached the deciding threads",
                    report.epoch
                );
                std::thread::yield_now();
            }
            row.adoption_ms = started.elapsed().as_secs_f64() * 1000.0;
            row.epoch = report.epoch;
            row.examples = report.examples_used;
            row.constraints = report.constraints_learned;
            row.rules = report.rules_generated;
            row.published = true;
            let us = |ns: u64| ns as f64 / 1000.0;
            let r = &report.refresh;
            row.adapt_us = us(report.adapt_ns);
            let times = [
                report.learn_ns,
                r.generate_ns,
                r.screen_ns,
                r.translate_ns,
                r.publish_ns,
            ];
            row.stages = std::array::from_fn(|i| (STAGES[i], us(times[i])));
            row.learner = [
                ("compile_us", us(report.compile_ns)),
                ("search_us", us(report.search_ns)),
            ];
            row.path = r.path.name();
        }
        RoundOutcome::Skipped { buffered, .. } => {
            eprintln!("adapt: round {round} skipped with {buffered} buffered examples");
        }
        RoundOutcome::Failed(e) => {
            eprintln!("adapt: round {round} failed: {e}");
        }
    }
    row
}
