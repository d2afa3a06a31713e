//! CASWiki — the community-based shared policy knowledge base of Bertino et
//! al. [16] (paper §III-A-3): agents contribute policy experiences (policy
//! strings with the contexts they were valid or invalid under), and other
//! agents retrieve them — filtered by trust — to warm-start their own
//! learning. "Policies shared by different agents implicitly contain
//! knowledge learned from the application of policies in different
//! contexts."

use agenp_asp::Program;
use agenp_learn::Example;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One contributed experience: a policy string, the context, and whether
/// the policy proved valid there.
#[derive(Clone, Debug)]
pub struct Contribution {
    /// Contributing party.
    pub contributor: String,
    /// The policy string.
    pub policy: String,
    /// The context it was observed under.
    pub context: Program,
    /// Whether the policy was valid in that context.
    pub valid: bool,
}

impl Contribution {
    /// Converts the contribution into a learning example, optionally soft
    /// (a penalty reflecting imperfect trust in the contributor).
    pub fn example(&self, penalty: Option<u32>) -> Example {
        let mut e = Example::in_context(self.policy.clone(), self.context.clone());
        if let Some(p) = penalty {
            e = e.with_penalty(p);
        }
        e
    }
}

/// The shared, thread-safe knowledge base.
#[derive(Clone, Debug, Default)]
pub struct CasWiki {
    inner: Arc<RwLock<Vec<Contribution>>>,
}

impl CasWiki {
    /// An empty wiki.
    pub fn new() -> CasWiki {
        CasWiki::default()
    }

    // Contributions are independent rows, so a lock poisoned by a panicking
    // writer still holds consistent data; recover the guard instead of
    // propagating the poison (parking_lot semantics, which this used before).
    fn read(&self) -> RwLockReadGuard<'_, Vec<Contribution>> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Vec<Contribution>> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Contributes one experience.
    pub fn contribute(&self, contribution: Contribution) {
        self.write().push(contribution);
    }

    /// Contributes a batch.
    pub fn contribute_all(&self, contributions: impl IntoIterator<Item = Contribution>) {
        self.write().extend(contributions);
    }

    /// Number of stored contributions.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// True if the wiki is empty.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Retrieves contributions whose contributor passes `filter`.
    pub fn retrieve(&self, filter: impl Fn(&str) -> bool) -> Vec<Contribution> {
        self.read()
            .iter()
            .filter(|c| filter(&c.contributor))
            .cloned()
            .collect()
    }

    /// Retrieves everything.
    pub fn retrieve_all(&self) -> Vec<Contribution> {
        self.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contribution(who: &str, valid: bool) -> Contribution {
        Contribution {
            contributor: who.to_owned(),
            policy: "accept navigate".to_owned(),
            context: "loa(3).".parse().unwrap(),
            valid,
        }
    }

    #[test]
    fn contribute_and_filter() {
        let wiki = CasWiki::new();
        wiki.contribute(contribution("uk", true));
        wiki.contribute(contribution("us", false));
        wiki.contribute(contribution("untrusted", true));
        assert_eq!(wiki.len(), 3);
        let trusted = wiki.retrieve(|c| c != "untrusted");
        assert_eq!(trusted.len(), 2);
        assert_eq!(wiki.retrieve_all().len(), 3);
    }

    #[test]
    fn contributions_become_examples() {
        let c = contribution("uk", true);
        let hard = c.example(None);
        assert!(!hard.is_soft());
        let soft = c.example(Some(2));
        assert_eq!(soft.penalty, Some(2));
        assert_eq!(soft.text, "accept navigate");
    }

    #[test]
    fn wiki_is_shared_across_clones_and_threads() {
        let wiki = CasWiki::new();
        std::thread::scope(|s| {
            for who in ["bg", "fg"] {
                let clone = wiki.clone();
                s.spawn(move || clone.contribute_all((0..10).map(|_| contribution(who, true))));
            }
        });
        assert_eq!(wiki.len(), 20);
        assert_eq!(wiki.retrieve(|c| c == "bg").len(), 10);
        assert_eq!(wiki.retrieve(|c| c == "fg").len(), 10);
    }
}
