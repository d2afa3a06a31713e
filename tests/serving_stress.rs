//! Multi-threaded stress for the shared-snapshot serving tier: worker
//! threads hammer an AMS's serving handle while the control thread adopts
//! a new GPM and refreshes mid-stream. Every decision must agree with the
//! policy set of the epoch that served it — a single disagreement means a
//! stale decision crossed a snapshot swap.

use agenp_core::arch::Ams;
use agenp_grammar::Asg;
use agenp_learn::HypothesisSpace;
use agenp_policy::{Decision, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// A counting front for the system allocator, installed only in debug
/// builds: the allocation-budget test reads it to prove the pinned
/// decision path stays free of hot-path allocation churn.
#[cfg(debug_assertions)]
mod alloc_count {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Heap allocations since process start (this test binary only).
    pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    // SAFETY: defers every operation to `System`; only adds a relaxed
    // counter bump on the allocating entry points.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;
}

fn grammar(effect: &str) -> Asg {
    format!(r#"policy -> "{effect}" "if" "subject" "clearance" "=" "high""#)
        .parse()
        .expect("grammar parses")
}

/// What the serving tier must answer at each epoch, for each of the two
/// request shapes the workers send.
fn expected(epoch: u64, first_refresh: u64, matching: bool) -> Decision {
    if !matching {
        // Neither grammar emits a rule for low clearance.
        return Decision::NotApplicable;
    }
    if epoch < first_refresh {
        Decision::NotApplicable // pre-refresh snapshots carry no policies
    } else if epoch < first_refresh + 2 {
        // first_refresh: permit grammar's policies.
        // first_refresh + 1: adopt_gpm republished the same policies.
        Decision::Permit
    } else {
        Decision::Deny // first_refresh + 2: refresh under the deny grammar
    }
}

#[test]
fn no_stale_decision_survives_a_mid_stream_gpm_swap() {
    let mut ams = Ams::new("stress", grammar("permit"), HypothesisSpace::new());
    ams.refresh_policies().expect("initial refresh");
    let first_refresh = ams.current_snapshot().epoch();
    let final_epoch = first_refresh + 2; // adopt_gpm + refresh_policies
    let handle = ams.serving_handle();

    let matching = Request::new().subject("clearance", "high");
    let other = Request::new().subject("clearance", "low");
    assert_eq!(ams.decide(&matching).decision(), Decision::Permit);

    // Even workers decide through the handle (one snapshot load per
    // call), odd ones through a pin (one epoch check per call), so both
    // the load path and the pin's revalidation cross the swap.
    const WORKERS: usize = 4;
    // Workers stop once they have served a post-swap Deny; the deadline
    // only guards against a control-thread bug leaving them spinning. A
    // decision count is no such guard: an optimized worker makes 200,000
    // decisions in about ten milliseconds, which can pass before the
    // control thread, sharing the CPUs with the workers, starts the swap.
    let deadline = Instant::now() + Duration::from_secs(10);
    // Workers that have served a pre-swap Permit. The control thread swaps
    // only once every worker has; each worker's seeded RNG picks a
    // matching request within its first few decisions.
    let permitted = AtomicUsize::new(0);
    // Per worker: the epoch of its last decision, and how many decisions
    // it served per (epoch, matching request, decision). Counts, not a
    // log, so a worker left spinning until the deadline stays small.
    type Served = (Option<u64>, HashMap<(u64, bool, Decision), u64>);
    let observed: Vec<Served> = thread::scope(|s| {
        let spawned: Vec<_> = (0..WORKERS)
            .map(|w| {
                let h = handle.clone();
                let (matching, other) = (matching.clone(), other.clone());
                let permitted = &permitted;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xD15C0 + w as u64);
                    let mut pin = (w % 2 == 1).then(|| h.pin());
                    let mut seen = HashMap::new();
                    let (mut decided, mut last_epoch) = (0, None);
                    let mut signalled = false;
                    // Run until this worker has served a post-swap Deny
                    // (only the deny grammar's snapshot answers Deny), so
                    // every worker crosses the swap and serves both regimes.
                    while Instant::now() < deadline {
                        let pick_matching = rng.gen_bool(0.7);
                        let req = if pick_matching { &matching } else { &other };
                        let outcome = match pin.as_mut() {
                            Some(pin) => pin.decide(req),
                            None => h.decide(req),
                        };
                        if !signalled && outcome.decision == Decision::Permit {
                            permitted.fetch_add(1, Ordering::Relaxed);
                            signalled = true;
                        }
                        let done = outcome.decision == Decision::Deny;
                        *seen
                            .entry((outcome.epoch, pick_matching, outcome.decision))
                            .or_default() += 1;
                        decided += 1;
                        last_epoch = Some(outcome.epoch);
                        if done && decided >= 100 {
                            break;
                        }
                    }
                    (last_epoch, seen)
                })
            })
            .collect();
        // Mid-stream, once every worker has served a pre-swap Permit: adopt
        // a GPM with the opposite effect and regenerate. A worker that
        // finished early has failed; stop waiting so the checks report it.
        while permitted.load(Ordering::Relaxed) < WORKERS
            && !spawned.iter().any(|h| h.is_finished())
        {
            thread::yield_now();
        }
        ams.adopt_gpm(grammar("deny"), "adopted from partner");
        ams.refresh_policies()
            .expect("refresh under the deny grammar");
        spawned
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    assert_eq!(ams.current_snapshot().epoch(), final_epoch);

    let mut permits = 0u64;
    let mut denies = 0u64;
    for (w, (last_epoch, seen)) in observed.iter().enumerate() {
        assert!(
            last_epoch.is_some_and(|e| e >= final_epoch),
            "worker {w} never observed the post-swap snapshot"
        );
        for (&(epoch, was_matching, decision), &n) in seen {
            assert_eq!(
                decision,
                expected(epoch, first_refresh, was_matching),
                "worker {w} served a stale decision at epoch {epoch}"
            );
            match decision {
                Decision::Permit => permits += n,
                Decision::Deny => denies += n,
                _ => {}
            }
        }
    }
    // The stream genuinely crossed the swap: both regimes were served.
    assert!(permits > 0, "no pre-swap Permit observed");
    assert!(denies > 0, "no post-swap Deny observed");
    assert!(handle.stats().publishes >= 3);
}

#[test]
fn cached_and_uncached_decisions_agree_across_epochs() {
    let mut ams = Ams::new("parity", grammar("permit"), HypothesisSpace::new());
    ams.refresh_policies().unwrap();
    let handle = ams.serving_handle();
    let req = Request::new().subject("clearance", "high");
    let cold = handle.decide(&req);
    let warm = handle.decide(&req);
    assert_eq!(cold.decision, warm.decision);
    // After a swap the decision comes from the new policy set.
    ams.adopt_gpm(grammar("deny"), "swap");
    ams.refresh_policies().unwrap();
    let post = handle.decide(&req);
    assert_eq!(post.decision, Decision::Deny);
}

/// The pinned path must be allocation-light: once the pin holds the
/// current snapshot, a decide should cost little more than evaluating the
/// policy set. The bound is amortized and deliberately loose — the
/// counter is process-global and other tests in this binary run
/// concurrently — but it would still catch a per-decide clone of the
/// policy set, the snapshot error, or a per-call snapshot rebuild, each
/// of which costs tens of allocations per call.
#[cfg(debug_assertions)]
#[test]
fn warm_pin_decides_stay_within_allocation_budget() {
    use std::sync::atomic::Ordering;

    let mut ams = Ams::new("alloc-budget", grammar("permit"), HypothesisSpace::new());
    ams.refresh_policies().unwrap();
    let handle = ams.serving_handle();
    let mut pin = handle.pin();

    let workload: Vec<Request> = (0..16)
        .map(|i| {
            Request::new()
                .subject("clearance", if i % 2 == 0 { "high" } else { "low" })
                .subject("id", i as i64)
        })
        .collect();
    // Warm up: every distinct request decided once.
    for req in &workload {
        pin.decide(req);
    }

    const DECIDES: u64 = 100_000;
    const MAX_ALLOCS_PER_DECIDE: u64 = 8;
    let before = alloc_count::ALLOCS.load(Ordering::Relaxed);
    for i in 0..DECIDES {
        pin.decide(&workload[(i % 16) as usize]);
    }
    let spent = alloc_count::ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        spent < DECIDES * MAX_ALLOCS_PER_DECIDE,
        "warm pin decides allocated too much: {spent} allocations over {DECIDES} \
         decides (budget {MAX_ALLOCS_PER_DECIDE}/decide)"
    );
}
