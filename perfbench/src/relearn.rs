//! `relearn`: the AMS adaptation loop of the CAV scenario while a second
//! thread keeps deciding, telemetry on.
//!
//! The main thread runs episodes of [`ROUNDS`] rounds against a fresh
//! `Ams`. Each round makes two `observe` calls with new oracle-labelled
//! samples, moves the context with `set_context`, then `adapt`s, and waits
//! until the serving thread has decided at the epoch `adapt` published
//! (a closed loop). The serving thread decides CAV task requests through
//! the episode's `PdpHandle` the whole time. Every learned hypothesis is
//! checked against its examples, and a sample of served decisions against
//! the reference PDP on the policy set of their own epoch, after the run.
//! When tracing, the rounds of the first [`REPLAY_EPISODES`] episodes are
//! replayed stage by stage after the run, so the replays neither slow the
//! measured rounds nor add to their telemetry counts.

use crate::calib::{self, Speedometer};
use crate::report::{Report, Windows};
use crate::stats::{self, nanos, Sample};
use crate::trace::Tracer;
use crate::Args;
use agenp_asp::RunBudget;
use agenp_core::arch::{Ams, DecisionSnapshot, Feedback, FnTranslator, Pcp, PdpHandle, Prep};
use agenp_core::scenarios::cav::{self, CavContext, Sample as CavSample, TASKS};
use agenp_learn::{Hypothesis, LearnStats, Learner};
use agenp_policy::{Category, CombiningAlg, Cond, Decision, Effect, PolicyRule, Request};
use agenp_refsem::reference;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Rounds per episode; each round adds two examples.
const ROUNDS: usize = 40;
/// Episodes run even when the window is already spent, so the adoption
/// tail always has at least ten rounds beyond its p90.
const MIN_EPISODES: usize = 3;
/// The serving thread times every `TIME_EVERY`-th decision.
const TIME_EVERY: u64 = 64;
/// Serving time per measurement window.
const WINDOW_NS: u64 = 250_000_000;
/// ... and keeps every `CHECK_EVERY`-th one for the reference check.
const CHECK_EVERY: u64 = 1024;
/// Decisions per throughput checkpoint on the serving thread.
const CHECKPOINT: u64 = 4096;
/// How long a round may wait for the serving thread to adopt its epoch.
const ADOPT_TIMEOUT: Duration = Duration::from_secs(20);
/// Episodes whose rounds a traced run replays stage by stage.
const REPLAY_EPISODES: u64 = 4;
/// Blocks of the serving mix replayed with telemetry off and on.
const OVERHEAD_BLOCKS: usize = 400;
const OVERHEAD_BLOCK: usize = 256;
/// How much more than the calibration kernel a slow phase of the machine
/// slows a cached serving decision: raw decision times followed the
/// kernel's speed to a power of 1.3 to 2.0 over runs (see `calib`).
const SERVING_SENSITIVITY: f64 = 1.5;

/// The `FnTranslator` of the `accept <task>` example: `accept park`
/// becomes a permit rule on the action's `task` attribute.
fn translate(text: &str, id: &str) -> Option<PolicyRule> {
    let task = text.strip_prefix("accept ")?;
    Some(PolicyRule::new(
        id,
        Effect::Permit,
        Cond::eq(Category::Action, "task", task),
    ))
}

fn task_request(i: usize) -> Request {
    Request::new().action("task", TASKS[i].0)
}

/// State the main thread shares with the serving thread.
struct Shared {
    /// The episode being served and its handle.
    current: Mutex<Option<(u64, PdpHandle)>>,
    /// Bumped whenever `current` changes.
    generation: AtomicU64,
    /// `(episode << 32) | epoch` of the newest epoch the serving thread
    /// has decided at; published after the matching `seen` entry.
    latest: AtomicU64,
    /// When each new epoch was first decided at: `(episode, epoch, at)`.
    seen: Mutex<Vec<(u64, u64, Instant)>>,
    /// Sampled decisions awaiting the reference check:
    /// `(episode, epoch, task index, decision)`.
    checks: Mutex<Vec<(u64, u64, usize, Decision)>>,
    /// True while an episode's rounds run (serving is measured then).
    in_rounds: AtomicBool,
    stop: AtomicBool,
}

fn pack(episode: u64, epoch: u64) -> u64 {
    (episode << 32) | epoch
}

/// What the serving thread hands back.
struct Served {
    decisions: u64,
    windows: Windows,
    /// Every timed latency, kept only when tracing.
    traced: Vec<u64>,
    failures: Vec<String>,
}

fn serve(shared: &Shared, order: &[usize], requests: &[Request], trace: bool) -> Served {
    let mut out = Served {
        decisions: 0,
        windows: Windows::calibrated_with(
            WINDOW_NS,
            Speedometer::new().with_sensitivity(SERVING_SENSITIVITY),
        ),
        traced: Vec::new(),
        failures: Vec::new(),
    };
    let mut generation = 0u64;
    let mut current: Option<(u64, PdpHandle)> = None;
    let mut last_epoch = 0u64;
    let mut n = 0u64;
    let mut checkpoint = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) {
        let g = shared.generation.load(Ordering::Acquire);
        if g != generation {
            generation = g;
            current = shared.current.lock().expect("current episode lock").clone();
            last_epoch = 0;
        }
        let Some((episode, handle)) = &current else {
            std::thread::yield_now();
            continue;
        };
        let task = order[(n % order.len() as u64) as usize];
        let request = &requests[task];
        let outcome = if n.is_multiple_of(TIME_EVERY) && shared.in_rounds.load(Ordering::Relaxed) {
            let started = Instant::now();
            let o = handle.decide(request);
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            out.windows.sample(ns);
            if trace {
                out.traced.push(ns);
            }
            o
        } else {
            handle.decide(request)
        };
        if outcome.epoch < last_epoch {
            out.failures.push(format!(
                "serving epoch went back from {last_epoch} to {} in episode {episode}",
                outcome.epoch
            ));
        } else if outcome.epoch > last_epoch {
            last_epoch = outcome.epoch;
            shared
                .seen
                .lock()
                .expect("seen lock")
                .push((*episode, last_epoch, Instant::now()));
            shared
                .latest
                .store(pack(*episode, last_epoch), Ordering::Release);
        }
        if n.is_multiple_of(CHECK_EVERY) {
            shared.checks.lock().expect("checks lock").push((
                *episode,
                outcome.epoch,
                task,
                outcome.decision,
            ));
        }
        n += 1;
        if n.is_multiple_of(CHECKPOINT) {
            let now = Instant::now();
            let closed = shared.in_rounds.load(Ordering::Relaxed)
                && out.windows.add(CHECKPOINT, nanos(now - checkpoint));
            // A closing window measured the machine's speed: start the
            // next interval after that.
            checkpoint = if closed { Instant::now() } else { now };
        }
    }
    out.decisions = n;
    out
}

/// Published snapshots and learned hypotheses awaiting their checks,
/// settled episode by episode so the run's memory does not grow with its
/// length.
#[derive(Default)]
struct Ledger {
    snapshots: HashMap<(u64, u64), Arc<DecisionSnapshot>>,
    /// `(episode, examples seen, hypothesis)`.
    learned: Vec<(u64, usize, Hypothesis)>,
    samples: HashMap<u64, Vec<CavSample>>,
    checked: u64,
}

impl Ledger {
    /// Checks every sampled served decision whose snapshot is known, and
    /// every hypothesis learned before `episode`, then forgets episodes
    /// before `episode`.
    fn settle(&mut self, shared: &Shared, episode: u64, requests: &[Request], report: &mut Report) {
        let checks = std::mem::take(&mut *shared.checks.lock().expect("checks lock"));
        let mut later = Vec::new();
        for check in checks {
            let (ep, epoch, task, decision) = check;
            let Some(snapshot) = self.snapshots.get(&(ep, epoch)) else {
                if ep >= episode {
                    later.push(check);
                } else {
                    report.attempted += 1;
                    report.fail(format!(
                        "episode {ep}: decided at unpublished epoch {epoch}"
                    ));
                }
                continue;
            };
            report.attempted += 1;
            self.checked += 1;
            let want = if snapshot.is_degraded() {
                Decision::Deny
            } else {
                reference::decide_reference(
                    snapshot.policies(),
                    snapshot.combining(),
                    &requests[task],
                )
            };
            if decision != want {
                report.fail(format!(
                    "episode {ep} epoch {epoch}: {} decided {decision}, reference says {want}",
                    TASKS[task].0
                ));
            }
        }
        shared.checks.lock().expect("checks lock").extend(later);
        // Every learned hypothesis must satisfy its task (Definition 3).
        for (ep, n, hypothesis) in self.learned.iter().filter(|(ep, ..)| *ep < episode) {
            let task = cav::learning_task(&self.samples[ep][..*n], None);
            match task.violations(hypothesis) {
                Ok(v) if v.is_empty() => {}
                Ok(v) => report.fail(format!("episode {ep}: hypothesis violates examples {v:?}")),
                Err(e) => report.fail(format!("episode {ep}: violation check failed: {e}")),
            }
        }
        self.learned.retain(|(ep, ..)| *ep >= episode);
        self.snapshots.retain(|(ep, _), _| *ep >= episode);
        self.samples.retain(|ep, _| *ep >= episode);
    }
}

/// One round's measurements.
struct Round {
    /// At nominal machine speed.
    adopt_ns: u64,
    /// As measured.
    /// From `adapt`'s return to the first decision at its epoch (zero when
    /// the serving thread got there first).
    lag_ns: u64,
}

/// A round kept for its staged replay: its id, the examples `adapt` saw,
/// the context, and the snapshot `adapt` published.
struct ReplayJob {
    id: u64,
    samples: Vec<CavSample>,
    ctx: agenp_asp::Program,
    published: Arc<DecisionSnapshot>,
}

/// Per-round staged replay results (tracing only).
#[derive(Default)]
struct Replays {
    stats: Vec<LearnStats>,
    examples: Vec<u64>,
    strings: Vec<u64>,
    /// Rules in the snapshot each round's `adapt` published.
    rules: Vec<u64>,
}

/// Blocks until the serving thread has decided at `epoch` of `episode`
/// or later, and returns when it first did.
fn wait_adopted(shared: &Shared, episode: u64, epoch: u64) -> Option<Instant> {
    let target = pack(episode, epoch);
    let deadline = Instant::now() + ADOPT_TIMEOUT;
    while shared.latest.load(Ordering::Acquire) < target {
        if Instant::now() > deadline {
            return None;
        }
        std::thread::yield_now();
    }
    let seen = shared.seen.lock().expect("seen lock");
    seen.iter()
        .find(|(ep, e, _)| *ep == episode && *e >= epoch)
        .map(|(_, _, at)| *at)
}

pub fn run(args: &Args) -> Report {
    agenp_obs::install(agenp_obs::ObsConfig::enabled());
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7265_6c65);
    let order: Vec<usize> = (0..4096).map(|_| rng.gen_range(0..TASKS.len())).collect();
    let requests: Vec<Request> = (0..TASKS.len()).map(task_request).collect();
    let shared = Shared {
        current: Mutex::new(None),
        generation: AtomicU64::new(0),
        latest: AtomicU64::new(0),
        seen: Mutex::new(Vec::new()),
        checks: Mutex::new(Vec::new()),
        in_rounds: AtomicBool::new(false),
        stop: AtomicBool::new(false),
    };
    // The control loop and the serving thread each get a CPU of their own
    // (see `affinity`).
    let (cpu, serving_cpu) = match crate::affinity::pin_here() {
        Ok(pinned) => pinned,
        Err(e) => {
            report.fail(format!("cannot pin the control thread: {e}"));
            (0, None)
        }
    };
    report.provenance("pinned_cpu", cpu);
    let recorded_before = agenp_obs::recorder().recorded();
    let dropped_before = agenp_obs::recorder().dropped();

    let mut tracer = args.trace.then(Tracer::new);
    let mut jobs: Vec<ReplayJob> = Vec::new();
    let mut replays = Replays::default();
    let mut ledger = Ledger::default();
    let mut setups = Vec::new();
    let mut rounds: Vec<Round> = Vec::new();
    let (mut hits, mut decisions, mut invalidations) = (0u64, 0u64, 0u64);
    let mut last_snapshot = None;
    let mut episode = 0u64;

    let served = std::thread::scope(|scope| {
        let serving = scope.spawn(|| {
            if let Some(cpu) = serving_cpu {
                // Best effort: an unpinned serving thread still measures.
                let _ = crate::affinity::pin(cpu);
            }
            serve(&shared, &order, &requests, args.trace)
        });
        // The control thread's own machine-speed measurements, taken
        // after each timed set-up and round.
        let mut speed = Speedometer::new();
        let started = Instant::now();
        while episode < MIN_EPISODES as u64 || started.elapsed() < args.window() {
            episode += 1;
            let seed = args
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(episode);
            let samples = cav::samples(2 * ROUNDS, seed);
            let mut ctx_rng = StdRng::seed_from_u64(seed ^ 0x0063_7478);
            let contexts: Vec<CavContext> = (0..=ROUNDS)
                .map(|_| CavContext::random(&mut ctx_rng))
                .collect();

            // Set-up: construction, initial refresh, and the serving
            // thread's first decision on the new handle.
            let setup_started = Instant::now();
            let mut ams = Ams::new("cav", cav::grammar(), cav::hypothesis_space());
            ams.set_translator(Box::new(FnTranslator(translate)));
            ams.set_context(contexts[0].to_program());
            if let Err(e) = ams.refresh_policies() {
                report.fail(format!("episode {episode}: initial refresh failed: {e}"));
            }
            let handle = ams.serving_handle();
            let first = handle.snapshot();
            ledger
                .snapshots
                .insert((episode, first.epoch()), Arc::clone(&first));
            *shared.current.lock().expect("current episode lock") = Some((episode, handle.clone()));
            shared.generation.fetch_add(1, Ordering::Release);
            if wait_adopted(&shared, episode, first.epoch()).is_none() {
                report.fail(format!("episode {episode}: serving thread never adopted"));
                break;
            }
            setups.push(setup_started.elapsed().as_secs_f64() * speed.interval());
            // The serving thread has left the previous episode: settle it.
            ledger.settle(&shared, episode, &requests, &mut report);

            shared.in_rounds.store(true, Ordering::Relaxed);
            for round in 0..ROUNDS {
                let id = (episode << 32) | round as u64;
                let round_started = Instant::now();
                let root = tracer.as_mut().map(|t| t.open("ams.round", None, id));
                for s in &samples[2 * round..2 * round + 2] {
                    let ctx = s.context.to_program();
                    let text = cav::policy_text(s.task);
                    let feedback = if s.accept {
                        Feedback::valid(&text, ctx)
                    } else {
                        Feedback::invalid(&text, ctx)
                    };
                    timed(&mut tracer, "ams.observe", root, id, || {
                        ams.observe(feedback)
                    });
                }
                let ctx = contexts[round + 1].to_program();
                timed(&mut tracer, "ams.set_context_ns", root, id, || {
                    ams.set_context(ctx.clone())
                });
                let moved = ams.current_snapshot();
                ledger.snapshots.insert((episode, moved.epoch()), moved);
                report.attempted += 1;
                let adapted = timed(&mut tracer, "ams.adapt_ns", root, id, || ams.adapt());
                let adapted_at = Instant::now();
                if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
                    t.close(r);
                }
                let current = ams.current_snapshot();
                let epoch = current.epoch();
                ledger
                    .snapshots
                    .insert((episode, epoch), Arc::clone(&current));
                match adapted {
                    Ok(a) => ledger.learned.push((episode, 2 * round + 2, a.hypothesis)),
                    Err(e) => report.fail(format!(
                        "episode {episode} round {round}: adapt failed: {e}"
                    )),
                }
                let Some(seen_at) = wait_adopted(&shared, episode, epoch) else {
                    report.fail(format!(
                        "episode {episode} round {round}: epoch {epoch} never adopted"
                    ));
                    break;
                };
                let adopt_ns = nanos(seen_at.saturating_duration_since(round_started));
                rounds.push(Round {
                    adopt_ns: calib::adjust(adopt_ns, speed.interval()),
                    lag_ns: nanos(seen_at.saturating_duration_since(adapted_at)),
                });
                if tracer.is_some() && episode <= REPLAY_EPISODES {
                    jobs.push(ReplayJob {
                        id,
                        samples: samples[..2 * round + 2].to_vec(),
                        ctx,
                        published: current,
                    });
                }
            }
            shared.in_rounds.store(false, Ordering::Relaxed);
            let s = handle.stats();
            hits += s.cache_hits;
            decisions += s.decisions;
            invalidations += s.invalidations;
            last_snapshot = Some(ams.current_snapshot());
            ledger.samples.insert(episode, samples);
        }
        shared.stop.store(true, Ordering::Relaxed);
        serving.join().expect("serving thread panicked")
    });
    let recorded = agenp_obs::recorder().recorded() - recorded_before;
    let dropped = agenp_obs::recorder().dropped() - dropped_before;
    // The serving thread has stopped: settle everything left.
    ledger.settle(&shared, episode + 1, &requests, &mut report);
    for why in &served.failures {
        report.fail(why.clone());
    }

    let adopt = Sample::new(rounds.iter().map(|r| r.adopt_ns).collect());
    if let Some(mut t) = tracer {
        for job in &jobs {
            replay(&mut t, job, &mut replays);
        }
        let replayed: BTreeSet<u64> = jobs.iter().map(|j| j.id).collect();
        let latencies = Sample::new(served.traced);
        report_layers(&t, &replays, &replayed, &rounds, &latencies, &mut report);
        report.metric(
            "serve.cache_hit_ratio",
            hits as f64 / decisions.max(1) as f64,
            "ratio",
            None,
        );
        report.metric("serve.invalidations", invalidations as f64, "count", None);
        report.metric("obs.spans_recorded", recorded as f64, "count", None);
        report.metric("obs.spans_dropped", dropped as f64, "count", None);
        if let Some(snapshot) = last_snapshot {
            let (off, on) = telemetry_overhead(&snapshot, &order, &requests);
            let n = Some(on.len());
            report.metric(
                "obs.decide_overhead_ns.p50",
                on.pct(50.0) as f64 - off.pct(50.0) as f64,
                "ns",
                n,
            );
            report.metric(
                "obs.decide_overhead_ns.p99",
                on.pct(99.0) as f64 - off.pct(99.0) as f64,
                "ns",
                n,
            );
        }
    } else {
        report.end_to_end(setups, &served.windows.summary(), &adopt);
    }
    report.provenance("rounds_per_episode", ROUNDS);
    report.provenance("episodes", episode);
    report.provenance("rounds", rounds.len());
    report.provenance("serving_decisions", served.decisions);
    report.provenance("served_decisions_checked", ledger.checked);
    report.provenance("serving_threads", 1);
    report.provenance("telemetry", "on");
    if let Some(p) = stats::highest_supported(adopt.len(), &stats::TAIL_PERCENTILES, 10) {
        report.provenance("adopt_highest_supported_pct", p);
    }
    report
}

/// Runs `f` under a span when tracing.
fn timed<T>(
    tracer: &mut Option<Tracer>,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer.as_mut() {
        Some(t) => t.time(name, parent, id, f),
        None => f(),
    }
}

/// The stages a replay re-runs for each `adapt`; their p50s plus
/// `ams.unattributed_ns` make up the `adapt` p50.
const ADAPT_STAGES: [&str; 4] = [
    "learn.learn_ns",
    "grammar.generate_ns",
    "grammar.screen_ns",
    "serve.publish_ns",
];

/// Staged replay of one round's `adapt`: learn on the same examples,
/// generate and screen the learned language under the same context, and
/// publish the resulting snapshot into a scratch handle.
fn replay(t: &mut Tracer, job: &ReplayJob, replays: &mut Replays) {
    let ReplayJob {
        id,
        samples,
        ctx,
        published,
    } = job;
    let id = *id;
    let parent = Some(t.open("relearn.replay", None, id));
    replays.rules.push(
        published
            .policies()
            .iter()
            .map(|p| p.rules.len() as u64)
            .sum(),
    );
    let task = cav::learning_task(samples, None);
    let learned = t.time("learn.learn_ns", parent, id, || {
        Learner::new().learn_with_stats(&task)
    });
    if let Ok((hypothesis, stats)) = learned {
        replays.stats.push(stats);
        replays
            .examples
            .push((task.positive.len() + task.negative.len()) as u64);
        let gpm = hypothesis.apply(&task.grammar);
        let strings = t.time("grammar.generate_ns", parent, id, || {
            Prep::new().generate(&gpm, ctx)
        });
        if let Ok(strings) = strings {
            replays.strings.push(strings.len() as u64);
            let _ = black_box(t.time("grammar.screen_ns", parent, id, || {
                Pcp::new().screen_within(&gpm, ctx, &strings, &RunBudget::default())
            }));
        }
        let snapshot =
            DecisionSnapshot::new(published.policies().to_vec(), CombiningAlg::DenyOverrides)
                .with_gpm(gpm)
                .with_context(ctx.clone());
        let scratch = PdpHandle::new();
        black_box(t.time("serve.publish_ns", parent, id, || scratch.publish(snapshot)));
    }
    if let Some(p) = parent {
        t.close(p);
    }
}

fn report_layers(
    t: &Tracer,
    replays: &Replays,
    replayed: &BTreeSet<u64>,
    rounds: &[Round],
    latencies: &Sample,
    report: &mut Report,
) {
    let by = |name: &str| Sample::new(t.self_time_by_request(name).into_values().collect());
    // The rounds that were replayed, so the stages and the remainder
    // describe the same rounds.
    let adapt = Sample::new(
        t.self_time_by_request("ams.adapt_ns")
            .into_iter()
            .filter(|(id, _)| replayed.contains(id))
            .map(|(_, ns)| ns)
            .collect(),
    );
    let stages: Vec<Sample> = ADAPT_STAGES.iter().map(|s| by(s)).collect();
    report.ns_pair("ams.adapt_ns", &adapt);
    report.ns_pair("ams.set_context_ns", &by("ams.set_context_ns"));
    for (name, s) in ADAPT_STAGES.iter().zip(&stages) {
        report.ns_pair(name, s);
    }
    let p = |q: f64| stages.iter().map(|s| s.pct(q) as f64).collect::<Vec<_>>();
    let n = Some(adapt.len());
    report.metric(
        "ams.unattributed_ns.p50",
        stats::residual(adapt.pct(50.0) as f64, &p(50.0)),
        "ns",
        n,
    );
    report.metric(
        "ams.unattributed_ns.p99",
        stats::residual(adapt.pct(99.0) as f64, &p(99.0)),
        "ns",
        n,
    );
    report.ns_pair("serve.decide_ns", latencies);
    report.ns_pair("trace.request_ns", latencies);
    let lags = Sample::new(rounds.iter().map(|r| r.lag_ns).collect());
    report.ns_pair("serve.adopt_lag_ns", &lags);

    let median_count = |v: Vec<u64>| Sample::new(v).pct(50.0) as f64;
    let st = &replays.stats;
    report.metric(
        "learn.examples",
        median_count(replays.examples.clone()),
        "count",
        Some(st.len()),
    );
    report.metric(
        "learn.search_nodes",
        median_count(st.iter().map(|s| s.search_nodes).collect()),
        "count",
        Some(st.len()),
    );
    let (h, m) = st.iter().fold((0u64, 0u64), |(h, m), s| {
        (h + s.eval_cache_hits, m + s.eval_cache_misses)
    });
    report.metric(
        "learn.eval_cache_hit_ratio",
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        },
        "ratio",
        Some(st.len()),
    );
    report.metric(
        "asp.solver_calls",
        median_count(st.iter().map(|s| s.solver_calls).collect()),
        "count",
        Some(st.len()),
    );
    report.metric(
        "asp.grounding_passes",
        median_count(st.iter().map(|s| s.grounding_passes).collect()),
        "count",
        Some(st.len()),
    );
    report.metric(
        "asp.rules_instantiated",
        median_count(st.iter().map(|s| s.rules_instantiated).collect()),
        "count",
        Some(st.len()),
    );
    report.metric(
        "grammar.strings",
        median_count(replays.strings.clone()),
        "count",
        Some(replays.strings.len()),
    );
    report.metric(
        "policy.rules",
        median_count(replays.rules.clone()),
        "count",
        Some(replays.rules.len()),
    );
    report.metric("trace.spans", t.spans().len() as f64, "count", None);
    report.metric("trace.replays", st.len() as f64, "count", None);
}

/// Per-decision cost of the serving mix with telemetry off and on,
/// alternating blocks so drift on the machine hits both sides alike.
fn telemetry_overhead(
    snapshot: &DecisionSnapshot,
    order: &[usize],
    requests: &[Request],
) -> (Sample, Sample) {
    let handle = PdpHandle::new();
    handle.publish(snapshot.clone());
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for b in 0..OVERHEAD_BLOCKS {
        let enabled = b % 2 == 1;
        agenp_obs::install(if enabled {
            agenp_obs::ObsConfig::enabled()
        } else {
            agenp_obs::ObsConfig::disabled()
        });
        let started = Instant::now();
        for k in 0..OVERHEAD_BLOCK {
            black_box(handle.decide(&requests[order[(b * OVERHEAD_BLOCK + k) % order.len()]]));
        }
        let per = nanos(started.elapsed()) / OVERHEAD_BLOCK as u64;
        if enabled {
            on.push(per)
        } else {
            off.push(per)
        }
    }
    agenp_obs::install(agenp_obs::ObsConfig::enabled());
    (Sample::new(off), Sample::new(on))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translator_maps_accept_to_a_task_permit() {
        let rule = translate("accept park", "r0").expect("accept form");
        assert_eq!(rule.effect, Effect::Permit);
        assert!(translate("reject park", "r0").is_none());
    }

    #[test]
    fn packed_progress_orders_by_episode_then_epoch() {
        assert!(pack(1, 900) < pack(2, 1));
        assert!(pack(2, 3) < pack(2, 4));
    }
}
