//! One simulated AMS party: the [`Lifecycle`] the real
//! [`Ams`](agenp_core::arch::Ams) serves through, plus the minimal
//! control-plane state the fabric protocol needs (adopted policy version,
//! up flag). It boots *recovering* and denying until the first refresh
//! lands, publishes a healthy snapshot whenever it adopts a coalition
//! policy version, and on a failed refresh degrades per its
//! [`DegradedMode`].

use agenp_core::arch::{AmsError, DecisionSnapshot, DegradedMode, Lifecycle, PdpHandle, Trigger};
use agenp_policy::{CombiningAlg, Policy};

/// What a party's current snapshot can legitimately answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Serving {
    /// Serving the policy set of coalition version `version`.
    Healthy {
        /// The adopted coalition policy version.
        version: u64,
    },
    /// Serving a denying snapshot (bootstrap, crash-restart, or a
    /// deny-by-default degradation): every decision must be `Deny` and
    /// must carry the degradation error.
    Denying,
}

/// One simulated coalition party.
#[derive(Debug)]
pub struct SimParty {
    /// The party's node id (also its index).
    pub id: usize,
    /// False while crashed: no messages, no decisions.
    pub up: bool,
    /// The coalition policy version this party has adopted (0 = none).
    pub version: u64,
    lifecycle: Lifecycle,
}

impl SimParty {
    /// A freshly booted party: deny-by-default until the first refresh.
    pub fn new(id: usize, mode: DegradedMode) -> SimParty {
        let mut party = SimParty {
            id,
            up: true,
            version: 0,
            lifecycle: Lifecycle::new(mode),
        };
        party.unavailable("awaiting first policy snapshot");
        party
    }

    /// The party's serving handle (pin per decision batch).
    pub fn handle(&self) -> &PdpHandle {
        self.lifecycle.handle()
    }

    /// True from boot/restart until the first successful adoption.
    pub fn recovering(&self) -> bool {
        self.version == 0
    }

    /// What the current snapshot legitimately serves.
    pub fn serving(&self) -> Serving {
        let version = self.version;
        if self.lifecycle.is_degraded() {
            Serving::Denying
        } else {
            Serving::Healthy { version }
        }
    }

    /// The epoch assigned by the party's most recent publish. Every
    /// decision outcome must carry exactly this epoch — anything else is
    /// a stale-epoch serve.
    pub fn last_publish_epoch(&self) -> u64 {
        self.lifecycle.epoch()
    }

    /// Adopts coalition policy version `version` with its policy set:
    /// publishes a healthy snapshot and leaves recovery.
    pub fn publish_healthy(&mut self, version: u64, policies: Vec<Policy>) {
        self.lifecycle.publish(Trigger::Refreshed, || {
            DecisionSnapshot::new(policies, CombiningAlg::DenyOverrides)
        });
        self.version = version;
    }

    /// A refresh failed with `error`; the lifecycle degrades per the
    /// party's mode. Returns whether a degraded snapshot was published.
    pub fn refresh_failed(&mut self, error: &AmsError) -> bool {
        self.fail(Trigger::RefreshFailed(error))
    }

    /// Crashes the party: it stops serving and receiving until restarted.
    pub fn crash(&mut self) {
        self.up = false;
    }

    /// Restarts the party after a crash with **full state loss**: a fresh
    /// serving tier (the old snapshot and epochs are gone), no
    /// adopted version, recovering and denying until a refresh lands.
    pub fn restart(&mut self) {
        self.lifecycle = Lifecycle::new(self.lifecycle.mode());
        self.up = true;
        self.version = 0;
        self.unavailable("state lost in crash-restart");
    }

    /// Publishes a denying snapshot: the party has no state to serve.
    fn unavailable(&mut self, why: &str) {
        let error = AmsError::Unavailable(why.to_owned());
        self.fail(Trigger::Unavailable(&error));
    }

    /// Publishes for a failure trigger. The lifecycle builds no snapshot
    /// for one: it holds the error and publishes an empty degraded
    /// snapshot, or (a failed refresh under serve-last-good) publishes
    /// nothing. Returns whether it published.
    fn fail(&mut self, trigger: Trigger<'_>) -> bool {
        self.lifecycle
            .publish(trigger, || {
                unreachable!("failure triggers build no snapshot")
            })
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_policy::{Decision, Request};

    #[test]
    fn boots_denying_then_adopts_then_restarts_denying() {
        let mut p = SimParty::new(3, DegradedMode::DenyByDefault);
        let req = Request::new().subject("role", "auditor");
        assert!(p.recovering());
        let boot = p.handle().pin().decide(&req);
        assert_eq!(boot.decision, Decision::Deny);
        assert!(boot.error.is_some());
        assert_eq!(boot.epoch, p.last_publish_epoch());

        p.publish_healthy(2, crate::sim::scenario::coalition_policies(2));
        assert!(!p.recovering());
        assert_eq!(p.serving(), Serving::Healthy { version: 2 });
        let healthy = p.handle().pin().decide(&req);
        assert_eq!(healthy.decision, Decision::Permit);
        assert!(healthy.error.is_none());
        assert_eq!(healthy.epoch, p.last_publish_epoch());

        p.crash();
        assert!(!p.up);
        p.restart();
        assert!(p.up && p.recovering());
        assert_eq!(p.version, 0);
        let lost = p.handle().pin().decide(&req);
        assert_eq!(lost.decision, Decision::Deny, "state loss must deny");
        assert_eq!(lost.epoch, p.last_publish_epoch());
    }
}
