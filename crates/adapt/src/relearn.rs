//! The background relearner: an [`AdaptPlane`] on a worker thread.
//!
//! Serving threads keep deciding through their (cloned) [`PdpHandle`]
//! the whole time — the only synchronization between relearning and
//! serving is the snapshot swap inside `publish`, which is the same
//! wait-free-for-readers path every control-plane mutation already uses.
//! Triggers are non-blocking; outcomes come back on a channel.

use crate::plane::{AdaptPlane, RoundOutcome};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

enum Cmd {
    RunRound,
    Shutdown,
}

/// Handle to a relearner worker thread.
///
/// Dropping the handle shuts the worker down (finishing any in-flight
/// round first); [`Relearner::shutdown`] does the same but hands the
/// plane back for inspection.
#[derive(Debug)]
pub struct Relearner {
    cmd: Sender<Cmd>,
    outcomes: Receiver<RoundOutcome>,
    worker: Option<JoinHandle<AdaptPlane>>,
}

impl Relearner {
    /// Moves `plane` onto a worker thread and returns the handle.
    pub fn spawn(mut plane: AdaptPlane) -> Relearner {
        let (cmd_tx, cmd_rx) = channel::<Cmd>();
        let (out_tx, out_rx) = channel::<RoundOutcome>();
        let worker = std::thread::Builder::new()
            .name("agenp-relearner".into())
            .spawn(move || {
                while let Ok(Cmd::RunRound) = cmd_rx.recv() {
                    let outcome = plane.run_round();
                    // The handle may have stopped listening; the round's
                    // effect (if any) is already published either way.
                    let _ = out_tx.send(outcome);
                }
                plane
            })
            .expect("spawning the relearner thread failed");
        Relearner {
            cmd: cmd_tx,
            outcomes: out_rx,
            worker: Some(worker),
        }
    }

    /// Requests one adaptation round; returns immediately. Rounds queue
    /// and run in order.
    pub fn trigger(&self) {
        let _ = self.cmd.send(Cmd::RunRound);
    }

    /// The next round outcome, if one is ready.
    pub fn try_outcome(&self) -> Option<RoundOutcome> {
        self.outcomes.try_recv().ok()
    }

    /// Waits up to `timeout` for the next round outcome.
    pub fn wait_outcome(&self, timeout: Duration) -> Option<RoundOutcome> {
        self.outcomes.recv_timeout(timeout).ok()
    }

    /// Stops the worker (after any queued rounds) and returns the plane.
    pub fn shutdown(mut self) -> AdaptPlane {
        let _ = self.cmd.send(Cmd::Shutdown);
        self.worker
            .take()
            .expect("relearner already shut down")
            .join()
            .expect("relearner thread panicked")
    }
}

impl Drop for Relearner {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            let _ = self.cmd.send(Cmd::Shutdown);
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::tests::{gate, record};
    use agenp_policy::{Decision, Request};

    #[test]
    fn relearns_in_the_background_while_serving_continues() {
        let mut plane = AdaptPlane::new(gate("lockdown."));
        let first = plane.publish_initial().unwrap();
        let handle = plane.handle();
        for clearance in ["high", "low"] {
            record(&plane, clearance, Decision::Deny);
        }

        let relearner = Relearner::spawn(plane);
        relearner.trigger();
        // Serving never blocks while the worker learns: decide in a loop
        // until the refined epoch becomes visible.
        let req = Request::new().subject("clearance", "high");
        let report = loop {
            let outcome = handle.decide(&req);
            assert!(outcome.error.is_none(), "serving degraded during relearn");
            assert!(outcome.epoch >= first, "epoch went backwards");
            if let Some(o) = relearner.try_outcome() {
                break o;
            }
            std::thread::yield_now();
        };
        let report = report.published().expect("round should publish").clone();
        assert_eq!(report.epoch, first + 1);
        // The refined snapshot is visible through the same handle.
        assert_eq!(handle.snapshot().epoch(), report.epoch);
        assert_eq!(handle.decide(&req).decision, Decision::Deny);

        let plane = relearner.shutdown();
        assert_eq!(plane.rounds(), 1);
    }

    #[test]
    fn drop_shuts_the_worker_down() {
        let plane = AdaptPlane::new(gate(""));
        let relearner = Relearner::spawn(plane);
        relearner.trigger(); // skipped round (no evidence)
        drop(relearner); // must not hang or panic
    }
}
