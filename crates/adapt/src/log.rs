//! The decision log: a bounded ring buffer of served decisions, written
//! by PEP-side callers and drained by the miner.
//!
//! The log sits *beside* the serving tier, not inside it: recording is an
//! explicit call the enforcement point makes after a decision, so parties
//! that do not adapt pay nothing. The buffer is bounded — under sustained
//! load the oldest records fall off first (mining prefers recent
//! evidence), and the drop count is surfaced so a sizing problem is
//! visible rather than silent.

use crate::obs::AdaptMetrics;
use agenp_core::arch::DecisionOutcome;
use agenp_policy::{Decision, Request};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One served decision, as remembered for mining.
#[derive(Clone, Debug)]
pub struct DecisionRecord {
    /// The request that was decided.
    pub request: Request,
    /// The decision rendered.
    pub decision: Decision,
    /// The penalty annotation carried by the decision (0 = none).
    pub penalty: u32,
    /// The snapshot epoch that served it.
    pub epoch: u64,
    /// Whether the serving snapshot was degraded (fail-safe deny).
    pub degraded: bool,
}

/// A bounded, thread-safe ring buffer of [`DecisionRecord`]s.
///
/// Serving threads [`record`](DecisionLog::record) concurrently; each
/// adaptation round [`drain`](DecisionLog::drain)s. The lock is held only for a
/// push or a buffer swap, never across mining or learning.
#[derive(Debug)]
pub struct DecisionLog {
    buf: Mutex<VecDeque<DecisionRecord>>,
    capacity: usize,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl DecisionLog {
    /// A log retaining at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> DecisionLog {
        DecisionLog {
            buf: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records a served outcome for `request`. Oldest records are evicted
    /// once the buffer is full.
    pub fn record(&self, request: &Request, outcome: &DecisionOutcome) {
        self.push(DecisionRecord {
            request: request.clone(),
            decision: outcome.decision,
            penalty: outcome.penalty,
            epoch: outcome.epoch,
            degraded: outcome.error.is_some(),
        });
    }

    /// Records a pre-built record (for replay and tests).
    pub fn push(&self, record: DecisionRecord) {
        let mut buf = self.buf.lock().expect("decision log poisoned");
        let evicted = buf.len() == self.capacity;
        if evicted {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
        drop(buf);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if agenp_obs::enabled() {
            let m = AdaptMetrics::global();
            m.log_recorded.incr();
            if evicted {
                m.log_dropped.incr();
            }
        }
    }

    /// Takes every buffered record, oldest first, leaving the log empty.
    pub fn drain(&self) -> Vec<DecisionRecord> {
        let mut buf = self.buf.lock().expect("decision log poisoned");
        std::mem::take(&mut *buf).into()
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("decision log poisoned").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total records ever accepted (including since-evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records evicted because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(role: &str, decision: Decision, epoch: u64) -> DecisionRecord {
        DecisionRecord {
            request: Request::new().subject("role", role),
            decision,
            penalty: 0,
            epoch,
            degraded: false,
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let log = DecisionLog::new(2);
        log.push(rec("a", Decision::Permit, 1));
        log.push(rec("b", Decision::Permit, 1));
        log.push(rec("c", Decision::Deny, 2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.recorded(), 3);
        assert_eq!(log.dropped(), 1);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        // Oldest-first order, with "a" evicted.
        assert_eq!(drained[0].request, Request::new().subject("role", "b"));
        assert_eq!(drained[1].decision, Decision::Deny);
        assert!(log.is_empty());
        assert_eq!(log.recorded(), 3, "drain does not reset totals");
    }

    #[test]
    fn concurrent_recording_is_safe() {
        let log = std::sync::Arc::new(DecisionLog::new(1024));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let log = log.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        log.push(rec(&format!("r{t}-{i}"), Decision::Permit, 1));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.recorded(), 400);
        assert_eq!(log.len(), 400);
        assert_eq!(log.dropped(), 0);
    }
}
