//! A party's serving lifecycle, the one place that decides what a publish
//! serves. [`Ams`](crate::arch::Ams) and the coalition chaos sim's parties
//! (`agenp-coalition`) both publish through a [`Lifecycle`].

use crate::arch::ams::AmsError;
use crate::arch::serve::{DecisionSnapshot, PdpHandle};
use agenp_policy::CombiningAlg;

/// What the serving tier does when a policy refresh fails.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradedMode {
    /// Publish a degraded snapshot: every decision renders a fail-safe
    /// [`Decision::Deny`](agenp_policy::Decision::Deny) carrying the
    /// refresh error, until a refresh succeeds. Every snapshot published
    /// meanwhile stays degraded. The conservative default.
    #[default]
    DenyByDefault,
    /// Keep serving the last successfully published snapshot, untouched.
    /// Decisions stay consistent (if stale); the refresh error is only
    /// reported to the caller of the failed refresh. The adaptation plane
    /// (`agenp-adapt`) pins this mode so a failed online round leaves
    /// serving as it was, and a quarter of the coalition sim's parties
    /// ride out chaos waves with it (see `agenp-coalition`).
    ServeLastGood,
}

/// Why a party publishes (see [`Lifecycle::publish`]).
#[derive(Clone, Copy, Debug)]
pub enum Trigger<'a> {
    /// State changed outside a refresh: boot, a new context or GPM.
    Changed,
    /// A refresh succeeded: drops a held error.
    Refreshed,
    /// A refresh failed: holds the error under `DenyByDefault`.
    RefreshFailed(&'a AmsError),
    /// No valid state to serve (state loss): holds the error in any mode.
    Unavailable(&'a AmsError),
}

/// A party's serving handle, degraded mode, held error and epoch.
#[derive(Debug, Default)]
pub struct Lifecycle {
    handle: PdpHandle,
    mode: DegradedMode,
    /// While set, every publish is degraded with it.
    error: Option<AmsError>,
    epoch: u64,
}

impl Lifecycle {
    /// A lifecycle over a fresh [`PdpHandle`], with nothing published.
    pub fn new(mode: DegradedMode) -> Lifecycle {
        Lifecycle {
            mode,
            ..Lifecycle::default()
        }
    }

    /// The handle every publish goes through.
    pub fn handle(&self) -> &PdpHandle {
        &self.handle
    }

    /// The configured degraded mode.
    pub fn mode(&self) -> DegradedMode {
        self.mode
    }

    /// Sets the degraded mode, publishing nothing. Switching to
    /// `ServeLastGood` drops a held error, so the next publish is healthy.
    pub fn set_mode(&mut self, mode: DegradedMode) {
        self.mode = mode;
        if mode == DegradedMode::ServeLastGood {
            self.error = None;
        }
    }

    /// The epoch of the last publish (0 before the first).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True while an error is held, so that every publish is degraded.
    pub fn is_degraded(&self) -> bool {
        self.error.is_some()
    }

    /// Applies `trigger`, then publishes and returns the epoch of the
    /// caller's healthy `snapshot()`, or, while an error is held, of an
    /// empty degraded snapshot: a degraded snapshot never evaluates
    /// policies, so `snapshot` is not called. A failed refresh under
    /// [`DegradedMode::ServeLastGood`] builds and publishes nothing and
    /// returns `None`, so the last snapshot keeps serving.
    pub fn publish(
        &mut self,
        trigger: Trigger<'_>,
        snapshot: impl FnOnce() -> DecisionSnapshot,
    ) -> Option<u64> {
        match trigger {
            Trigger::Changed => {}
            Trigger::Refreshed => self.error = None,
            Trigger::RefreshFailed(_) if self.mode == DegradedMode::ServeLastGood => return None,
            Trigger::RefreshFailed(error) | Trigger::Unavailable(error) => {
                self.error = Some(error.clone());
            }
        }
        let snapshot = match &self.error {
            Some(error) => DecisionSnapshot::new(Vec::new(), CombiningAlg::DenyOverrides)
                .degraded(error.clone()),
            None => snapshot(),
        };
        self.epoch = self.handle.publish(snapshot);
        Some(self.epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agenp_policy::{Decision, Effect, Policy, PolicyRule, Request};
    use std::cell::Cell;

    /// One step of a lifecycle's life; the `&str`s name the error.
    #[derive(Clone, Copy, Debug)]
    enum Step {
        Publish,
        Refreshed,
        RefreshFailed(&'static str),
        Unavailable(&'static str),
        SwitchToServeLastGood,
    }
    use Step::*;

    /// A case's steps, then what its last step leaves behind: whether it
    /// published, `is_degraded`, the error every decision carries (`None`:
    /// decisions are healthy) and the epoch.
    type Case = (
        &'static str,
        &'static [Step],
        bool,
        bool,
        Option<&'static str>,
        u64,
    );

    #[rustfmt::skip]
    const DENY_BY_DEFAULT: &[Case] = &[
        ("initial publish", &[Publish], true, false, None, 1),
        ("publish while an error is held", &[Publish, RefreshFailed("e1"), Publish], true, true, Some("e1"), 3),
        ("publishes while degraded build nothing", &[Publish, RefreshFailed("e1"), Publish, Publish], true, true, Some("e1"), 4),
        ("refresh ok", &[Publish, RefreshFailed("e1"), Refreshed], true, false, None, 3),
        ("two failed refreshes in a row", &[Publish, RefreshFailed("e1"), RefreshFailed("e2")], true, true, Some("e2"), 3),
        ("unavailable", &[Publish, Unavailable("lost")], true, true, Some("lost"), 2),
        ("switch to ServeLastGood", &[Publish, RefreshFailed("e1"), SwitchToServeLastGood], false, false, Some("e1"), 2),
    ];

    #[rustfmt::skip]
    const SERVE_LAST_GOOD: &[Case] = &[
        ("initial publish", &[Publish], true, false, None, 1),
        ("publish while an error is held", &[Unavailable("boot"), Publish], true, true, Some("boot"), 2),
        ("refresh ok", &[Unavailable("boot"), Refreshed], true, false, None, 2),
        ("two failed refreshes in a row", &[Publish, RefreshFailed("e1"), RefreshFailed("e2")], false, false, None, 1),
        ("unavailable", &[Publish, Unavailable("lost")], true, true, Some("lost"), 2),
        ("switch to ServeLastGood", &[Unavailable("boot"), SwitchToServeLastGood, Publish], true, false, None, 2),
    ];

    /// A policy set that permits every request.
    fn permit_all() -> DecisionSnapshot {
        let rule = PolicyRule::unconditional("permit-all", Effect::Permit);
        DecisionSnapshot::new(
            vec![Policy::new("permit-all", vec![rule])],
            CombiningAlg::DenyOverrides,
        )
    }

    fn error_of(why: &str) -> AmsError {
        AmsError::Unavailable(why.to_owned())
    }

    #[test]
    fn each_call_publishes_and_degrades_by_the_one_rule() {
        let req = Request::new().subject("role", "auditor");
        // Every step checks that the caller's snapshot is built exactly
        // when a healthy snapshot is published: never while degraded.
        let builds = Cell::new(0);
        let snapshot = || {
            builds.set(builds.get() + 1);
            permit_all()
        };
        for (mode, cases) in [
            (DegradedMode::DenyByDefault, DENY_BY_DEFAULT),
            (DegradedMode::ServeLastGood, SERVE_LAST_GOOD),
        ] {
            for &(name, steps, published_last, degraded, error, epoch) in cases {
                let at = format!("{mode:?}, {name}");
                let mut lifecycle = Lifecycle::new(mode);
                let mut published = false;
                for step in steps {
                    let before = lifecycle.handle().snapshot().epoch();
                    let built_before = builds.get();
                    let returned = match *step {
                        Publish => lifecycle.publish(Trigger::Changed, snapshot),
                        Refreshed => lifecycle.publish(Trigger::Refreshed, snapshot),
                        RefreshFailed(why) => {
                            lifecycle.publish(Trigger::RefreshFailed(&error_of(why)), snapshot)
                        }
                        Unavailable(why) => {
                            lifecycle.publish(Trigger::Unavailable(&error_of(why)), snapshot)
                        }
                        SwitchToServeLastGood => {
                            lifecycle.set_mode(DegradedMode::ServeLastGood);
                            None
                        }
                    };
                    published = lifecycle.handle().snapshot().epoch() != before;
                    assert_eq!(returned.is_some(), published, "{at}: {step:?}");
                    let healthy = published && !lifecycle.is_degraded();
                    assert_eq!(
                        builds.get() - built_before,
                        usize::from(healthy),
                        "{at}: {step:?} built the caller's snapshot"
                    );
                }
                assert_eq!(published, published_last, "{at}: published");
                assert_eq!(lifecycle.is_degraded(), degraded, "{at}: degraded");
                assert_eq!(lifecycle.epoch(), epoch, "{at}: epoch");
                let outcome = lifecycle.handle().decide(&req);
                assert_eq!(outcome.epoch, epoch, "{at}: served epoch");
                match error {
                    Some(why) => {
                        assert_eq!(outcome.decision, Decision::Deny, "{at}");
                        assert_eq!(
                            outcome.error.map(|e| e.to_string()),
                            Some(error_of(why).to_string()),
                            "{at}: carried error"
                        );
                    }
                    None => {
                        assert_eq!(outcome.decision, Decision::Permit, "{at}");
                        assert!(outcome.error.is_none(), "{at}: {:?}", outcome.error);
                    }
                }
            }
        }
    }
}
