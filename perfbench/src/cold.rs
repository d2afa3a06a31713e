//! `inproc-cold`: `PdpHandle::decide_batch` on one thread, 16 requests per
//! call, every request unique, against 128 generated policies of 3 rules
//! each under deny-overrides, telemetry off. The cache never hits, so
//! `canonical_key`, policy evaluation and the shared-cache insert do the
//! work, and pdpd is not involved.
//!
//! The run is cut into segments of [`SEGMENT_CALLS`] calls, each against a
//! fresh handle, so the uncapped shared cache grows to the same size in
//! every run whatever the speed. Each segment is one measurement window, so
//! every window holds the same work: a cache growing from empty, with its
//! resizes, and no publish in the middle. Every decision is checked against
//! `refsem::reference::effects_reference` after its segment, outside the
//! timed calls; the checks take about three times as long as the calls,
//! and the run ends when its wall-clock time is spent.

use crate::calib::{self, Speedometer};
use crate::report::{Report, Windows};
use crate::stats::{self, nanos, Sample};
use crate::trace::Tracer;
use crate::Args;
use agenp_core::arch::{DecisionOutcome, DecisionSnapshot, PdpHandle};
use agenp_policy::{Category, CombiningAlg, Effect, Policy, PolicyRule, Request};
use agenp_refsem::{gen, reference};
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;

const POLICIES: usize = 128;
const RULES_PER_POLICY: usize = 3;
/// Requests per `decide_batch` call.
const BATCH: usize = 16;
/// Calls per segment (one fresh handle and cache per segment, and one
/// measurement window: enough calls for a p99 with ten beyond it).
const SEGMENT_CALLS: usize = 1024;
const SETUPS: usize = 5;
/// Warm-up calls inside each set-up.
const WARMUP_CALLS: usize = 32;
/// When tracing, calls replayed stage by stage after the measured loop.
const MAX_REPLAYS: usize = 1024;
/// Publish-to-adoption probes after each segment's calls.
const PROBES_PER_SEGMENT: usize = 10;
/// When tracing, every `REPLAY_EVERY`-th call is kept for replay.
const REPLAY_EVERY: usize = 2;

/// The seeded policy set: 128 policies x 3 rules, deny-overrides.
fn policies(rng: &mut StdRng) -> Vec<Policy> {
    (0..POLICIES)
        .map(|p| {
            let rules = (0..RULES_PER_POLICY)
                .map(|r| {
                    let effect = if rng.gen_bool(0.5) {
                        Effect::Permit
                    } else {
                        Effect::Deny
                    };
                    PolicyRule::new(&format!("p{p}r{r}"), effect, gen::cond(rng, 2))
                })
                .collect();
            Policy::new(&format!("p{p}"), rules).with_combining(CombiningAlg::DenyOverrides)
        })
        .collect()
}

/// Unique requests: a generated request plus a never-repeated subject id.
struct Requests {
    rng: StdRng,
    next: u64,
}

impl Requests {
    fn batch(&mut self) -> Vec<Request> {
        (0..BATCH)
            .map(|_| {
                let mut r = gen::request(&mut self.rng);
                r.set(Category::Subject, "id", format!("u{}", self.next));
                self.next += 1;
                r
            })
            .collect()
    }
}

struct Cold {
    policies: Vec<Policy>,
    requests: Requests,
}

impl Cold {
    fn snapshot(&self) -> DecisionSnapshot {
        DecisionSnapshot::new(self.policies.clone(), CombiningAlg::DenyOverrides)
    }

    fn handle(&self) -> PdpHandle {
        let handle = PdpHandle::new();
        handle.publish(self.snapshot());
        handle
    }

    /// Checks every outcome of a batch against the reference evaluator.
    fn check(&self, reqs: &[Request], outs: &[DecisionOutcome], epoch: u64, report: &mut Report) {
        report.attempted += reqs.len() as u64;
        if outs.len() != reqs.len() {
            report.fail(format!(
                "{} outcomes for {} requests",
                outs.len(),
                reqs.len()
            ));
            return;
        }
        for (req, out) in reqs.iter().zip(outs) {
            let want =
                reference::effects_reference(&self.policies, CombiningAlg::DenyOverrides, req);
            if out.effects() != want {
                report.fail(format!(
                    "{} decided {:?} where the reference says {:?}",
                    req.canonical_key(),
                    out.effects(),
                    want
                ));
            } else if out.epoch != epoch {
                report.fail(format!(
                    "outcome at epoch {} during epoch {epoch}",
                    out.epoch
                ));
            }
        }
    }
}

pub fn run(args: &Args) -> Report {
    agenp_obs::install(agenp_obs::ObsConfig::disabled());
    let mut report = Report::default();
    match crate::affinity::pin_here() {
        Ok((cpu, _)) => report.provenance("pinned_cpu", cpu),
        Err(e) => report.fail(format!("cannot pin the benchmark thread: {e}")),
    }
    let mut rng = gen::rng_for(args.seed ^ 0x636f_6c64);
    let mut cold = Cold {
        policies: policies(&mut rng),
        requests: Requests { rng, next: 0 },
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut speed = Speedometer::new();
    let mut handle = None;
    for _ in 0..SETUPS {
        drop(handle.take());
        let warm: Vec<Vec<Request>> = (0..WARMUP_CALLS).map(|_| cold.requests.batch()).collect();
        let started = Instant::now();
        let h = cold.handle();
        let outs: Vec<Vec<DecisionOutcome>> = warm.iter().map(|b| h.decide_batch(b)).collect();
        setups.push(started.elapsed().as_secs_f64() * speed.interval());
        let epoch = h.snapshot().epoch();
        for (b, o) in warm.iter().zip(&outs) {
            cold.check(b, o, epoch, &mut report);
        }
        handle = Some(h);
    }
    let mut handle = handle.expect("at least one set-up");

    let mut tracer = args.trace.then(Tracer::new);
    // Calls to replay stage by stage once the measured loop is over.
    let mut to_replay: Vec<(u64, Vec<Request>)> = Vec::new();
    let snapshot = handle.snapshot();
    let mut epoch = snapshot.epoch();
    // Windows close by hand at the end of each segment.
    let mut windows = Windows::calibrated_with(u64::MAX, speed);
    // At nominal machine speed; publish and lag as measured.
    let mut adopt = Vec::new();
    let mut publish_ns = Vec::new();
    let mut lag_ns = Vec::new();
    let mut cache_entries = 0usize;
    let (mut hits, mut decisions, mut invalidations) = (0u64, 0u64, 0u64);
    let (mut segments, mut calls) = (0usize, 0u64);
    let run_started = Instant::now();
    while run_started.elapsed() < args.window() {
        let batches: Vec<Vec<Request>> =
            (0..SEGMENT_CALLS).map(|_| cold.requests.batch()).collect();
        let mut outs = Vec::with_capacity(SEGMENT_CALLS);
        for reqs in &batches {
            let started = Instant::now();
            let out = handle.decide_batch(reqs);
            let finished = Instant::now();
            let ns = nanos(finished - started);
            windows.sample(ns);
            windows.add(BATCH as u64, ns);
            if let Some(t) = tracer.as_mut() {
                t.record(
                    "serve.decide_batch_ns",
                    t.ns_at(started),
                    t.ns_at(finished),
                    None,
                    calls,
                );
                if calls.is_multiple_of(REPLAY_EVERY as u64) && to_replay.len() < MAX_REPLAYS {
                    to_replay.push((calls, reqs.clone()));
                }
            }
            calls += 1;
            outs.push(out);
        }
        windows.close();
        for (reqs, out) in batches.iter().zip(&outs) {
            cold.check(reqs, out, epoch, &mut report);
        }
        // Publish-to-adoption probes: publish a new epoch, then one batch,
        // after the segment's calls (the handle is replaced next).
        let speed = windows.factor_now();
        for _ in 0..PROBES_PER_SEGMENT {
            let reqs = cold.requests.batch();
            let next = cold.snapshot();
            let started = Instant::now();
            epoch = handle.publish(next);
            let published = Instant::now();
            let out = handle.decide_batch(&reqs);
            adopt.push(calib::adjust(nanos(started.elapsed()), speed));
            publish_ns.push(nanos(published - started));
            lag_ns.push(nanos(published.elapsed()));
            cold.check(&reqs, &out, epoch, &mut report);
        }
        let s = handle.stats();
        cache_entries = cache_entries.max(handle.cache_len());
        hits += s.cache_hits;
        decisions += s.decisions;
        invalidations += s.invalidations;
        segments += 1;
        drop(outs);
        handle = cold.handle();
        epoch = handle.snapshot().epoch();
    }
    let adopt = Sample::new(adopt);

    if let Some(mut t) = tracer {
        for (id, reqs) in &to_replay {
            replay(&mut t, &snapshot, reqs, *id);
        }
        let calls = Sample::new(
            t.self_time_by_request("serve.decide_batch_ns")
                .into_values()
                .collect(),
        );
        let key = Sample::new(
            t.self_time_by_request("policy.canonical_key_ns")
                .into_values()
                .collect(),
        );
        let eval = Sample::new(
            t.self_time_by_request("policy.eval_ns")
                .into_values()
                .collect(),
        );
        report.ns_pair("serve.decide_batch_ns", &calls);
        report.ns_pair("trace.request_ns", &calls);
        report.ns_pair("policy.canonical_key_ns", &key);
        report.ns_pair("policy.eval_ns", &eval);
        let n = Some(calls.len());
        report.metric(
            "serve.unattributed_ns.p50",
            stats::residual(
                calls.pct(50.0) as f64,
                &[key.pct(50.0) as f64, eval.pct(50.0) as f64],
            ),
            "ns",
            n,
        );
        report.metric(
            "serve.unattributed_ns.p99",
            stats::residual(
                calls.pct(99.0) as f64,
                &[key.pct(99.0) as f64, eval.pct(99.0) as f64],
            ),
            "ns",
            n,
        );
        report.ns_pair("serve.publish_ns", &Sample::new(publish_ns));
        report.ns_pair("serve.adopt_lag_ns", &Sample::new(lag_ns));
        report.metric("serve.cache_entries", cache_entries as f64, "count", None);
        report.metric(
            "serve.cache_hit_ratio",
            hits as f64 / decisions.max(1) as f64,
            "ratio",
            None,
        );
        report.metric("serve.invalidations", invalidations as f64, "count", None);
        report.metric(
            "policy.rules",
            (POLICIES * RULES_PER_POLICY) as f64,
            "count",
            None,
        );
        report.metric("trace.spans", t.spans().len() as f64, "count", None);
        report.metric("trace.replays", key.len() as f64, "count", None);
    } else {
        report.end_to_end(setups, &windows.summary(), &adopt);
    }
    report.provenance("policies", POLICIES);
    report.provenance("rules", POLICIES * RULES_PER_POLICY);
    report.provenance("batch", BATCH);
    report.provenance("segment_calls", SEGMENT_CALLS);
    report.provenance("segments", segments);
    report.provenance("calls", calls);
    report.provenance("cache_entries_max", cache_entries);
    report.provenance("cache_hit_ratio", hits as f64 / decisions.max(1) as f64);
    report.provenance("telemetry", "off");
    report
}

/// Staged replay of one call: the key build and the policy evaluation for
/// each request, on the same snapshot, under one replay span.
fn replay(t: &mut Tracer, snapshot: &DecisionSnapshot, reqs: &[Request], id: u64) {
    let parent = t.open("cold.replay", None, id);
    for r in reqs {
        black_box(t.time("policy.canonical_key_ns", Some(parent), id, || {
            r.canonical_key()
        }));
        black_box(t.time("policy.eval_ns", Some(parent), id, || {
            snapshot.decide_effects(r)
        }));
    }
    t.close(parent);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_are_unique_and_seeded() {
        let mut a = Requests {
            rng: gen::rng_for(5),
            next: 0,
        };
        let mut b = Requests {
            rng: gen::rng_for(5),
            next: 0,
        };
        let (x, y) = (a.batch(), b.batch());
        assert_eq!(x, y);
        let keys: std::collections::HashSet<String> = x
            .iter()
            .chain(&a.batch())
            .map(Request::canonical_key)
            .collect();
        assert_eq!(keys.len(), 2 * BATCH);
    }

    #[test]
    fn policy_set_has_the_declared_shape() {
        let p = policies(&mut gen::rng_for(9));
        assert_eq!(p.len(), POLICIES);
        assert!(p.iter().all(|p| p.rules.len() == RULES_PER_POLICY));
    }
}
