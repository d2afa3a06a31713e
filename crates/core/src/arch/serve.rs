//! The shared-snapshot PDP serving tier: decision-making split out of the
//! mutable [`Ams`](crate::arch::Ams) into an immutable, `Send + Sync`
//! [`DecisionSnapshot`] that any number of worker threads query
//! concurrently while the control loop builds the next snapshot off to the
//! side (the ROADMAP's "heavy traffic from millions of users" target; see
//! `docs/SERVING.md`).
//!
//! The tier has two layers:
//!
//! * [`SnapshotSwap`] — one atomic slot holding an `Arc<DecisionSnapshot>`.
//!   Readers take a momentary read lock *only* to clone the `Arc`; the
//!   decision itself runs with no lock held. Publishing a new snapshot is a
//!   pointer swap, never a wait-for-readers.
//! * [`PdpHandle`] — a cheap `Clone` handle onto the slot and the PEP, with
//!   a per-worker [`PdpPin`] and a [`PdpServer`] that drives a closed-loop
//!   multi-threaded workload against a handle and reports throughput.
//!
//! Every decision evaluates the snapshot that answers it, so a publish
//! needs no invalidation step and a stale decision cannot outlive its
//! snapshot.

use crate::arch::ams::AmsError;
use agenp_asp::{Program, RunBudget};
use agenp_grammar::Asg;
use agenp_obs::Sampler;
use agenp_policy::{
    CombiningAlg, CompiledPolicies, Decision, DecisionEffects, Enforcement, Obligation, Pep,
    Policy, Request,
};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Number of stripes for the hot-path statistics counters.
const COUNTER_STRIPES: usize = 16;

/// The stripe this thread bumps. Threads are assigned stripes round-robin
/// at first use, so up to [`COUNTER_STRIPES`] concurrent workers never
/// share a counter cache line.
#[inline]
fn counter_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_STRIPES;
    }
    STRIPE.with(|s| *s)
}

thread_local! {
    /// Picks the decide calls this thread times into the global `serve.*`
    /// metrics (see [`PdpShared::mirrored`]).
    static DECIDE_SAMPLER: Sampler = const { Sampler::new() };
}

/// An [`AtomicU64`] alone on its cache line, so two stripes never falsely
/// share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCounter(AtomicU64);

/// A monotone counter striped across cache lines. A single shared
/// `AtomicU64` bumped per decision turns into a coherence-traffic hotspot
/// under multi-threaded serving (every `fetch_add` bounces the line
/// between cores); striping makes the bump core-local and pays for it
/// with a 16-way sum on the (rare) read side.
struct StripedU64 {
    stripes: [PaddedCounter; COUNTER_STRIPES],
}

impl Default for StripedU64 {
    fn default() -> StripedU64 {
        StripedU64 {
            stripes: std::array::from_fn(|_| PaddedCounter::default()),
        }
    }
}

impl StripedU64 {
    #[inline]
    fn add(&self, n: u64) {
        self.stripes[counter_stripe()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for StripedU64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StripedU64({})", self.sum())
    }
}

/// An immutable, consistent view of everything the PDP needs to answer a
/// request: the translated policy set and combining algorithm, compiled
/// once into a [`CompiledPolicies`] kernel, and the compiled GPM plus
/// grounded context the policies were generated from.
///
/// Snapshots are built by the control loop ([`Ams::refresh_policies`],
/// `adopt_gpm`, `set_context`) and published through a [`PdpHandle`]; they
/// are never mutated afterwards, so worker threads can decide against one
/// without synchronization. A snapshot built from a *failed* refresh
/// carries the error and renders deny-by-default.
///
/// [`Ams::refresh_policies`]: crate::arch::Ams::refresh_policies
#[derive(Clone, Debug)]
pub struct DecisionSnapshot {
    epoch: u64,
    policies: CompiledPolicies,
    gpm: Option<Asg>,
    context: Program,
    error: Option<AmsError>,
}

impl DecisionSnapshot {
    /// A snapshot serving `policies` under `combining`, with no GPM or
    /// context attached and epoch 0 (the epoch is assigned on publish).
    /// Compiles the policy set here, once, for every decision the snapshot
    /// will serve.
    pub fn new(policies: Vec<Policy>, combining: CombiningAlg) -> DecisionSnapshot {
        DecisionSnapshot {
            epoch: 0,
            policies: CompiledPolicies::new(policies, combining),
            gpm: None,
            context: Program::new(),
            error: None,
        }
    }

    /// Attaches the GPM the policies were generated from, enabling
    /// [`DecisionSnapshot::admits`].
    pub fn with_gpm(mut self, gpm: Asg) -> DecisionSnapshot {
        self.gpm = Some(gpm);
        self
    }

    /// Attaches the grounded context the policies were generated under.
    pub fn with_context(mut self, context: Program) -> DecisionSnapshot {
        self.context = context;
        self
    }

    /// Marks the snapshot as degraded: the pipeline upstream failed with
    /// `error`, and every decision renders a fail-safe [`Decision::Deny`].
    pub fn degraded(mut self, error: AmsError) -> DecisionSnapshot {
        self.error = Some(error);
        self
    }

    /// The snapshot's epoch (assigned when published; 0 before).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The policy set served by this snapshot.
    pub fn policies(&self) -> &[Policy] {
        self.policies.policies()
    }

    /// The combining algorithm applied across policies.
    pub fn combining(&self) -> CombiningAlg {
        self.policies.combining()
    }

    /// The GPM the policies were generated from, if attached.
    pub fn gpm(&self) -> Option<&Asg> {
        self.gpm.as_ref()
    }

    /// The context the policies were generated under.
    pub fn context(&self) -> &Program {
        &self.context
    }

    /// The upstream failure this snapshot degrades for, if any.
    pub fn error(&self) -> Option<&AmsError> {
        self.error.as_ref()
    }

    /// True when the snapshot was built from a failed refresh and renders
    /// deny-by-default.
    pub fn is_degraded(&self) -> bool {
        self.error.is_some()
    }

    /// Renders a decision — pure, lock-free, safe from any thread.
    /// Degraded snapshots deny unconditionally rather than evaluating
    /// possibly-stale policies as if they were fresh.
    pub fn decide(&self, request: &Request) -> Decision {
        if self.error.is_some() {
            return Decision::Deny;
        }
        self.policies.decide(request)
    }

    /// Renders the full [`DecisionEffects`]: the same decision as
    /// [`DecisionSnapshot::decide`] plus the obligations and penalty
    /// annotation the policy set attaches to it. A degraded snapshot's
    /// fail-safe Deny is bare — the policies are never evaluated, so no
    /// annotation can attach.
    pub fn decide_effects(&self, request: &Request) -> DecisionEffects {
        if self.error.is_some() {
            return DecisionEffects::bare(Decision::Deny);
        }
        self.policies.decide_effects(request)
    }

    /// Does the snapshot's GPM admit `policy` under the snapshot's
    /// context? The ASP solver is a small `Copy` configuration value, so
    /// membership checks run against the shared snapshot without cloning
    /// any solver state. Returns `Ok(false)` when no GPM is attached.
    ///
    /// # Errors
    ///
    /// [`AmsError::Generation`] on grounding failures or budget overruns.
    pub fn admits(&self, policy: &str, budget: &RunBudget) -> Result<bool, AmsError> {
        match &self.gpm {
            Some(g) => Ok(g
                .with_context(&self.context)
                .accepts_within(policy, budget)?),
            None => Ok(false),
        }
    }
}

/// One atomic slot holding the current [`DecisionSnapshot`] behind an
/// [`Arc`].
///
/// Implementation note: with only `std` available, the slot is an
/// `RwLock<Arc<_>>` rather than a true lock-free atomic pointer. Readers
/// hold the read lock exactly long enough to clone the `Arc` (a refcount
/// increment), then decide with no lock held; writers swap the pointer
/// under the write lock. The lock is therefore never held across policy
/// evaluation, grounding, or solving on either side.
#[derive(Debug)]
pub struct SnapshotSwap {
    slot: RwLock<Arc<DecisionSnapshot>>,
}

impl SnapshotSwap {
    /// A swap slot initially holding `snapshot`.
    pub fn new(snapshot: DecisionSnapshot) -> SnapshotSwap {
        SnapshotSwap {
            slot: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// The current snapshot. The read lock is held only for the `Arc`
    /// clone; the returned snapshot stays valid (and consistent) for as
    /// long as the caller keeps it, even across concurrent publishes.
    pub fn load(&self) -> Arc<DecisionSnapshot> {
        self.slot.read().expect("snapshot slot poisoned").clone()
    }

    /// Publishes `snapshot`, replacing the current one. In-flight readers
    /// keep their old `Arc` until they drop it. When this held the last
    /// reference, the replaced snapshot is freed after the write lock is
    /// released, so readers never wait on the free.
    pub fn store(&self, snapshot: DecisionSnapshot) {
        let new = Arc::new(snapshot);
        let mut slot = self.slot.write().expect("snapshot slot poisoned");
        let old = std::mem::replace(&mut *slot, new);
        drop(slot);
        drop(old);
    }
}

/// Monotone counters for a serving handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Decisions rendered through the handle.
    pub decisions: u64,
    /// Always 0: the serving tier keeps no decision cache. The field stays
    /// so readers of the earlier cached tier keep compiling.
    pub cache_hits: u64,
    /// Always 0, for the same reason as
    /// [`cache_hits`](ServeStats::cache_hits).
    pub invalidations: u64,
    /// Snapshots published.
    pub publishes: u64,
}

#[derive(Debug)]
struct PdpShared {
    swap: SnapshotSwap,
    epoch: AtomicU64,
    decisions: StripedU64,
    publishes: AtomicU64,
    pep: Pep,
}

impl PdpShared {
    /// The full outcome of `request` under `snapshot`.
    fn outcome(&self, snapshot: &DecisionSnapshot, request: &Request) -> DecisionOutcome {
        let effects = snapshot.decide_effects(request);
        let decision = effects.decision;
        DecisionOutcome {
            decision,
            obligations: effects.obligations,
            penalty: effects.penalty,
            enforcement: Some(self.pep.enforce(decision)),
            error: snapshot.error.clone(),
            epoch: snapshot.epoch,
        }
    }

    /// Runs `render`, which renders `n` decisions, and accounts for them.
    /// The handle's decision counter always counts all `n`. With telemetry
    /// enabled the call is also one tick, weighted `n`, of this thread's
    /// [`DECIDE_SAMPLER`]: about one call in 64, at random gaps, is timed
    /// into `serve.decide_latency_ns` (at the mean per-decision time, so
    /// the histogram stays per-decision-scaled for batches) and adds the
    /// decisions tallied since the previous sampled call to
    /// `serve.decisions`. An unsampled call touches only the thread-local
    /// sampler; with telemetry disabled the only extra cost is one relaxed
    /// atomic load.
    fn mirrored<T>(&self, n: usize, render: impl FnOnce() -> T) -> T {
        self.decisions.add(n as u64);
        if !agenp_obs::enabled() {
            return render();
        }
        let Some(tally) = DECIDE_SAMPLER.with(|s| s.tick(n as u64)) else {
            return render();
        };
        let start = agenp_obs::monotonic_ns();
        let rendered = render();
        let elapsed = agenp_obs::monotonic_ns().saturating_sub(start);
        let m = crate::arch::obs::ServeMetrics::global();
        if n > 0 {
            m.decide_latency_ns.record(elapsed / n as u64);
        }
        m.decisions.add(tally);
        rendered
    }

    /// Renders every request against one snapshot, in order.
    fn outcomes(&self, snapshot: &DecisionSnapshot, requests: &[Request]) -> Vec<DecisionOutcome> {
        self.mirrored(requests.len(), || {
            requests.iter().map(|r| self.outcome(snapshot, r)).collect()
        })
    }
}

/// The outcome of one decision through the serving tier: the decision
/// itself, the obligations and penalty annotation it carries, the
/// enforcement the PEP derives from it, the upstream error the serving
/// snapshot degrades for (if any), and the epoch of the snapshot that
/// answered.
///
/// Compare against a [`Decision`] through [`DecisionOutcome::decision`]
/// (the field or the accessor): `assert_eq!(outcome.decision(), Decision::Deny)`.
#[derive(Clone, Debug)]
pub struct DecisionOutcome {
    /// The rendered decision.
    pub decision: Decision,
    /// Obligations the decision issues (empty for indefinite or degraded
    /// decisions); feed them to an `ObligationLedger` to track discharge.
    pub obligations: Vec<Obligation>,
    /// Worst sanction for acting against this decision (Deny only; 0
    /// otherwise).
    pub penalty: u32,
    /// The enforcement action derived by the PEP.
    pub enforcement: Option<Enforcement>,
    /// The upstream failure behind a degraded snapshot, if any.
    pub error: Option<AmsError>,
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
}

impl DecisionOutcome {
    /// The rendered [`Decision`], without the serving diagnostics.
    pub fn decision(&self) -> Decision {
        self.decision
    }

    /// The decision plus its annotations as a [`DecisionEffects`] — the
    /// value a `ComplianceEvaluator` or `ObligationLedger` consumes.
    pub fn effects(&self) -> DecisionEffects {
        DecisionEffects {
            decision: self.decision,
            obligations: self.obligations.clone(),
            penalty: self.penalty,
        }
    }
}

/// A cheap-to-clone, `Send + Sync` handle onto the serving tier: the
/// snapshot slot and the PEP. Worker threads clone the handle and call
/// [`PdpHandle::decide`] freely; the control loop publishes new snapshots
/// through the same handle.
#[derive(Clone, Debug)]
pub struct PdpHandle {
    inner: Arc<PdpShared>,
}

impl Default for PdpHandle {
    fn default() -> PdpHandle {
        PdpHandle::new()
    }
}

impl PdpHandle {
    /// A handle serving an empty snapshot (epoch 0, no policies: every
    /// request renders `NotApplicable` until something is published).
    pub fn new() -> PdpHandle {
        PdpHandle {
            inner: Arc::new(PdpShared {
                swap: SnapshotSwap::new(DecisionSnapshot::new(
                    Vec::new(),
                    CombiningAlg::DenyOverrides,
                )),
                epoch: AtomicU64::new(0),
                decisions: StripedU64::default(),
                publishes: AtomicU64::new(0),
                pep: Pep::default(),
            }),
        }
    }

    /// Publishes `snapshot` as the new current snapshot, assigning it the
    /// next epoch. Returns the assigned epoch. In-flight readers finish
    /// against their old snapshot; every later decision evaluates the new
    /// one.
    pub fn publish(&self, mut snapshot: DecisionSnapshot) -> u64 {
        // AcqRel so a pin that observes the new epoch (Acquire) also sees
        // everything sequenced before this publish.
        let epoch = self.inner.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        snapshot.epoch = epoch;
        let degraded = snapshot.is_degraded();
        let mut span = agenp_obs::span!("serve.publish", epoch = epoch, degraded = degraded);
        span.record("policies", snapshot.policies().len());
        self.inner.swap.store(snapshot);
        self.inner.publishes.fetch_add(1, Ordering::Relaxed);
        if span.is_live() {
            let m = crate::arch::obs::ServeMetrics::global();
            m.publishes.incr();
            if degraded {
                m.degraded_publishes.incr();
            }
        }
        epoch
    }

    /// The current snapshot (consistent for as long as the caller holds
    /// it).
    pub fn snapshot(&self) -> Arc<DecisionSnapshot> {
        self.inner.swap.load()
    }

    /// Renders a decision against the current snapshot.
    ///
    /// When telemetry is enabled the decision is also counted into the
    /// global `serve.*` metrics, and about one in 64 is timed into the
    /// latency histogram (see [`ServeMetrics`](crate::arch::ServeMetrics)).
    pub fn decide(&self, request: &Request) -> DecisionOutcome {
        let inner = &self.inner;
        inner.mirrored(1, || inner.outcome(&inner.swap.load(), request))
    }

    /// Renders decisions for a whole slice of requests against **one**
    /// snapshot resolved at entry: the batch is never torn across a
    /// concurrent publish — every outcome carries the same `epoch`, exactly
    /// as if the caller had pinned, decided sequentially, and no publish had
    /// landed in between. `decide_batch(reqs)[i]` is identical to what
    /// `decide(&reqs[i])` renders under the same snapshot.
    pub fn decide_batch(&self, requests: &[Request]) -> Vec<DecisionOutcome> {
        self.inner.outcomes(&self.inner.swap.load(), requests)
    }

    /// Pins the current snapshot for one worker's decision loop (see
    /// [`PdpPin`]). Cheap: one `Arc` clone at pin time.
    pub fn pin(&self) -> PdpPin {
        PdpPin {
            snapshot: self.inner.swap.load(),
            handle: self.clone(),
        }
    }

    /// Snapshot of the handle's counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            decisions: self.inner.decisions.sum(),
            cache_hits: 0,
            invalidations: 0,
            publishes: self.inner.publishes.load(Ordering::Relaxed),
        }
    }

    /// Always 0: the serving tier keeps no decision cache. Kept so readers
    /// of the earlier cached tier keep compiling.
    pub fn cache_len(&self) -> usize {
        0
    }
}

/// One worker thread's pinned decision path.
///
/// [`PdpHandle::decide`] resolves the current snapshot on every call —
/// a read-lock acquisition plus an `Arc` refcount round-trip per
/// decision, which under multi-threaded serving means every worker
/// hammering the same two shared cache lines (the lock word and the
/// refcount). That contention is what flattened the serving tier's
/// multi-thread scaling. A `PdpPin` keeps the snapshot `Arc` pinned in
/// the worker and revalidates it with a single `Acquire` load of the
/// epoch counter per call, touching the shared slot only when a publish
/// actually moved the epoch.
///
/// Freshness: a pinned decision can race a concurrent publish (exactly
/// like a decision that resolved the snapshot just before the publish
/// landed), but the publish bumps the epoch *before* swapping the slot,
/// so the pin re-resolves on the next call at the latest and each
/// outcome's `epoch` is always the epoch of the snapshot that actually
/// answered. Pins are cheap to create and single-threaded by design
/// (`&mut self`); clone the handle and pin per worker.
#[derive(Clone, Debug)]
pub struct PdpPin {
    snapshot: Arc<DecisionSnapshot>,
    handle: PdpHandle,
}

impl PdpPin {
    /// Re-resolves the pinned snapshot if a publish moved the epoch.
    fn revalidate(&mut self) {
        if self.snapshot.epoch() != self.handle.inner.epoch.load(Ordering::Acquire) {
            self.snapshot = self.handle.inner.swap.load();
        }
    }

    /// Renders a decision against the pinned snapshot, re-resolving it
    /// first if a publish has moved the epoch.
    pub fn decide(&mut self, request: &Request) -> DecisionOutcome {
        self.revalidate();
        let shared = &self.handle.inner;
        shared.mirrored(1, || shared.outcome(&self.snapshot, request))
    }

    /// Batched pinned decisions: one epoch check and one revalidation for
    /// the whole slice, every outcome under the same snapshot (same
    /// consistency contract as [`PdpHandle::decide_batch`]).
    pub fn decide_batch(&mut self, requests: &[Request]) -> Vec<DecisionOutcome> {
        self.revalidate();
        self.handle.inner.outcomes(&self.snapshot, requests)
    }

    /// The snapshot currently pinned (as of the last [`PdpPin::decide`]).
    pub fn snapshot(&self) -> &DecisionSnapshot {
        &self.snapshot
    }

    /// The handle this pin serves from.
    pub fn handle(&self) -> &PdpHandle {
        &self.handle
    }
}

/// One thread's share of a [`PdpServer`] run.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerTally {
    decisions: u64,
    permits: u64,
    denies: u64,
    gaps: u64,
}

/// Aggregate result of a closed-loop [`PdpServer`] run.
#[derive(Clone, Debug)]
pub struct ServerReport {
    /// Worker threads driven.
    pub threads: usize,
    /// Total decisions rendered.
    pub decisions: u64,
    /// Wall-clock time for the whole run.
    pub elapsed: Duration,
    /// Decisions per second (0.0 for an empty run).
    pub throughput: f64,
    /// Permits rendered.
    pub permits: u64,
    /// Denies rendered.
    pub denies: u64,
    /// `NotApplicable` / `Indeterminate` rendered.
    pub gaps: u64,
}

/// Drives a closed-loop request workload against a [`PdpHandle`]: `threads`
/// workers each render `decisions_per_thread` back-to-back decisions,
/// cycling through the workload from a per-thread offset (so threads hit
/// overlapping but phase-shifted request streams).
#[derive(Clone, Debug)]
pub struct PdpServer {
    handle: PdpHandle,
    threads: usize,
}

impl PdpServer {
    /// A single-threaded server over `handle`.
    pub fn new(handle: PdpHandle) -> PdpServer {
        PdpServer { handle, threads: 1 }
    }

    /// Sets the number of worker threads (minimum 1).
    pub fn with_threads(mut self, threads: usize) -> PdpServer {
        self.threads = threads.max(1);
        self
    }

    /// The handle this server drives.
    pub fn handle(&self) -> &PdpHandle {
        &self.handle
    }

    /// Runs the closed loop and reports aggregate throughput.
    pub fn run(&self, workload: &[Request], decisions_per_thread: usize) -> ServerReport {
        let start = Instant::now();
        let mut tallies: Vec<WorkerTally> = Vec::with_capacity(self.threads);
        if workload.is_empty() || decisions_per_thread == 0 {
            tallies.resize(self.threads, WorkerTally::default());
        } else {
            std::thread::scope(|scope| {
                let mut workers = Vec::with_capacity(self.threads);
                for t in 0..self.threads {
                    let handle = self.handle.clone();
                    workers.push(scope.spawn(move || {
                        // Pin once per worker: one epoch load per decision
                        // instead of a snapshot-slot round-trip.
                        let mut pin = handle.pin();
                        let mut tally = WorkerTally::default();
                        let offset = t * workload.len() / self.threads.max(1);
                        for i in 0..decisions_per_thread {
                            let req = &workload[(offset + i) % workload.len()];
                            let outcome = pin.decide(req);
                            tally.decisions += 1;
                            match outcome.decision {
                                Decision::Permit => tally.permits += 1,
                                Decision::Deny => tally.denies += 1,
                                Decision::NotApplicable | Decision::Indeterminate => {
                                    tally.gaps += 1
                                }
                            }
                        }
                        tally
                    }));
                }
                for w in workers {
                    tallies.push(w.join().expect("worker panicked"));
                }
            });
        }
        let elapsed = start.elapsed();
        let decisions: u64 = tallies.iter().map(|t| t.decisions).sum();
        let throughput = if elapsed.as_secs_f64() > 0.0 {
            decisions as f64 / elapsed.as_secs_f64()
        } else {
            0.0
        };
        ServerReport {
            threads: self.threads,
            decisions,
            elapsed,
            throughput,
            permits: tallies.iter().map(|t| t.permits).sum(),
            denies: tallies.iter().map(|t| t.denies).sum(),
            gaps: tallies.iter().map(|t| t.gaps).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_policy::{Category, Cond, Effect, PolicyRule};

    fn permit_dba_policies() -> Vec<Policy> {
        vec![Policy::new(
            "p",
            vec![PolicyRule::new(
                "allow-dba",
                Effect::Permit,
                Cond::eq(Category::Subject, "role", "dba"),
            )],
        )]
    }

    #[test]
    fn snapshot_is_send_sync_and_decides() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecisionSnapshot>();
        assert_send_sync::<PdpHandle>();
        assert_send_sync::<SnapshotSwap>();
        let snap = DecisionSnapshot::new(permit_dba_policies(), CombiningAlg::DenyOverrides);
        assert_eq!(
            snap.decide(&Request::new().subject("role", "dba")),
            Decision::Permit
        );
        assert_eq!(
            snap.decide(&Request::new().subject("role", "guest")),
            Decision::NotApplicable
        );
    }

    #[test]
    fn degraded_snapshot_denies_everything() {
        let snap = DecisionSnapshot::new(permit_dba_policies(), CombiningAlg::DenyOverrides)
            .degraded(AmsError::Generation(agenp_grammar::AsgError::Exhausted(
                agenp_asp::Exhausted::Atoms,
            )));
        assert!(snap.is_degraded());
        assert_eq!(
            snap.decide(&Request::new().subject("role", "dba")),
            Decision::Deny
        );
    }

    #[test]
    fn handle_caches_within_an_epoch() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let req = Request::new().subject("role", "dba");
        let first = handle.decide(&req);
        assert_eq!(first.decision, Decision::Permit);
        let second = handle.decide(&req);
        assert_eq!(second.decision, Decision::Permit);
        assert_eq!(second.epoch, first.epoch);
        assert_eq!(handle.stats().decisions, 2);
    }

    #[test]
    fn publish_bumps_epoch_and_invalidates() {
        let handle = PdpHandle::new();
        let e1 = handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let req = Request::new().subject("role", "dba");
        assert_eq!(handle.decide(&req).decision, Decision::Permit);
        // New snapshot with no policies: the earlier Permit must not
        // survive the swap.
        let e2 = handle.publish(DecisionSnapshot::new(
            Vec::new(),
            CombiningAlg::DenyOverrides,
        ));
        assert_eq!(e2, e1 + 1);
        let outcome = handle.decide(&req);
        assert_eq!(outcome.decision, Decision::NotApplicable);
        assert_eq!(outcome.epoch, e2);
    }

    #[test]
    fn pin_follows_publishes_and_reports_true_epochs() {
        let handle = PdpHandle::new();
        let e1 = handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let mut pin = handle.pin();
        let req = Request::new().subject("role", "dba");
        let first = pin.decide(&req);
        assert_eq!(first.decision, Decision::Permit);
        assert_eq!(first.epoch, e1);
        // A publish through the handle must be visible to the pinned path
        // on its next decision — no stale-epoch serves.
        let e2 = handle.publish(
            DecisionSnapshot::new(Vec::new(), CombiningAlg::DenyOverrides)
                .degraded(AmsError::Unavailable("repo offline".into())),
        );
        let second = pin.decide(&req);
        assert_eq!(second.epoch, e2);
        assert_eq!(second.decision, Decision::Deny);
        assert!(second.error.is_some());
        assert_eq!(pin.snapshot().epoch(), e2);
        // Counters flow into the shared stats regardless of path.
        assert_eq!(pin.handle().stats().decisions, 2);
    }

    #[test]
    fn striped_counters_sum_across_threads() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut pin = handle.pin();
                    let req = Request::new().subject("role", "dba");
                    for _ in 0..100 {
                        pin.decide(&req);
                    }
                });
            }
        });
        assert_eq!(handle.stats().decisions, 800);
    }

    #[test]
    fn outcome_exposes_decision_accessor() {
        let handle = PdpHandle::new();
        let outcome = handle.decide(&Request::new());
        assert_eq!(outcome.decision(), Decision::NotApplicable);
        assert_eq!(outcome.decision(), outcome.decision);
        assert_eq!(outcome.enforcement, Some(Enforcement::Escalated));
    }

    #[test]
    fn server_reports_throughput_and_hits() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let workload: Vec<Request> = (0..8)
            .map(|i| Request::new().subject("role", if i % 2 == 0 { "dba" } else { "guest" }))
            .collect();
        let report = PdpServer::new(handle).with_threads(2).run(&workload, 100);
        assert_eq!(report.threads, 2);
        assert_eq!(report.decisions, 200);
        assert_eq!(report.permits + report.denies + report.gaps, 200);
        assert_eq!(report.permits, 100); // half the workload matches
        assert!(report.throughput >= 0.0);
    }

    #[test]
    fn pin_private_cache_hits_warm_and_self_invalidates() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let mut pin = handle.pin();
        let req = Request::new().subject("role", "dba");
        pin.decide(&req);
        let warm = pin.decide(&req);
        assert_eq!(warm.decision, Decision::Permit);
        // The next decision after a publish must answer from the new
        // snapshot.
        let e2 = handle.publish(DecisionSnapshot::new(
            Vec::new(),
            CombiningAlg::DenyOverrides,
        ));
        let post = pin.decide(&req);
        assert_eq!(post.epoch, e2);
        assert_eq!(post.decision, Decision::NotApplicable);
    }

    #[test]
    fn decide_batch_matches_sequential_and_shares_one_epoch() {
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(
            permit_dba_policies(),
            CombiningAlg::DenyOverrides,
        ));
        let reqs: Vec<Request> = (0..20)
            .map(|i| Request::new().subject("role", if i % 3 == 0 { "dba" } else { "guest" }))
            .collect();
        let batch = handle.decide_batch(&reqs);
        assert_eq!(batch.len(), reqs.len());
        let epochs: std::collections::HashSet<u64> = batch.iter().map(|o| o.epoch).collect();
        assert_eq!(epochs.len(), 1, "a batch must not be torn across epochs");
        for (req, out) in reqs.iter().zip(&batch) {
            assert_eq!(out.decision, handle.snapshot().decide(req));
            assert_eq!(
                out.enforcement,
                Some(handle.decide(req).enforcement.unwrap())
            );
        }
        // The pinned batch path agrees element-wise too.
        let mut pin = handle.pin();
        let pinned = pin.decide_batch(&reqs);
        for (a, b) in batch.iter().zip(&pinned) {
            assert_eq!(a.decision, b.decision);
            assert_eq!(a.epoch, b.epoch);
        }
        // Both batches and the 20 single decides count per request.
        assert_eq!(handle.stats().decisions, 60);
    }

    #[test]
    fn obligations_round_trip_all_four_paths_and_caches() {
        use agenp_policy::Obligation;
        let policies = vec![Policy::new(
            "p",
            vec![
                PolicyRule::new(
                    "allow-dba",
                    Effect::Permit,
                    Cond::eq(Category::Subject, "role", "dba"),
                )
                .with_obligation(
                    Effect::Permit,
                    Obligation::new("audit", "audit-log", 10).with_penalty(2),
                ),
                PolicyRule::new(
                    "deny-guest",
                    Effect::Deny,
                    Cond::eq(Category::Subject, "role", "guest"),
                )
                .with_penalty(7),
            ],
        )];
        let handle = PdpHandle::new();
        handle.publish(DecisionSnapshot::new(policies, CombiningAlg::DenyOverrides));
        let dba = Request::new().subject("role", "dba");
        let guest = Request::new().subject("role", "guest");
        let check = |o: &DecisionOutcome, what: &str| match o.decision {
            Decision::Permit => {
                assert_eq!(o.obligations.len(), 1, "{what}");
                assert_eq!(o.obligations[0].id, "audit", "{what}");
                assert_eq!(o.obligations[0].deadline, 10, "{what}");
                assert_eq!(o.penalty, 0, "{what}");
            }
            Decision::Deny => {
                assert!(o.obligations.is_empty(), "{what}");
                assert_eq!(o.penalty, 7, "{what}");
            }
            other => panic!("{what}: unexpected {other}"),
        };
        check(&handle.decide(&dba), "handle first");
        check(&handle.decide(&dba), "handle repeat");
        let batch = handle.decide_batch(&[guest.clone(), dba.clone(), guest.clone()]);
        check(&batch[0], "batch guest");
        check(&batch[1], "batch dba");
        check(&batch[2], "batch duplicate");
        let mut pin = handle.pin();
        check(&pin.decide(&dba), "pin first");
        check(&pin.decide(&dba), "pin repeat");
        let pinned = pin.decide_batch(&[dba.clone(), guest.clone()]);
        check(&pinned[0], "pin batch dba");
        check(&pinned[1], "pin batch guest");
        // effects() reconstructs the ledger-facing value.
        let fx = handle.decide(&guest).effects();
        assert_eq!(fx.decision, Decision::Deny);
        assert_eq!(fx.penalty, 7);
        // Degraded snapshots deny bare: no annotations leak from stale
        // policies.
        handle.publish(
            DecisionSnapshot::new(Vec::new(), CombiningAlg::DenyOverrides)
                .degraded(AmsError::Unavailable("repo offline".into())),
        );
        let degraded = handle.decide(&guest);
        assert_eq!(degraded.decision, Decision::Deny);
        assert!(degraded.obligations.is_empty());
        assert_eq!(degraded.penalty, 0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let handle = PdpHandle::new();
        assert!(handle.decide_batch(&[]).is_empty());
        let mut pin = handle.pin();
        assert!(pin.decide_batch(&[]).is_empty());
    }

    #[test]
    fn empty_workload_reports_zero() {
        let report = PdpServer::new(PdpHandle::new())
            .with_threads(4)
            .run(&[], 100);
        assert_eq!(report.decisions, 0);
    }
}
