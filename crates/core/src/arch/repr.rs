//! The Representations Repository (paper §III-A-1, Fig. 2): versioned
//! storage of learned generative policy models (ASGs), so the PAdaP always
//! has access to the latest representation and can roll back.

use agenp_grammar::Asg;
use std::sync::Arc;

/// One stored GPM version.
#[derive(Clone, Debug)]
pub struct GpmVersion {
    /// Monotone version number (1-based).
    pub version: u64,
    /// The stored grammar, shared with whoever else holds it (the AMS and
    /// its snapshots).
    pub gpm: Arc<Asg>,
    /// Free-form provenance note ("initial", "adapted after 12 decisions"…).
    pub note: String,
}

/// Versioned storage of learned ASG-based generative policy models.
#[derive(Clone, Debug, Default)]
pub struct RepresentationsRepository {
    versions: Vec<GpmVersion>,
}

impl RepresentationsRepository {
    /// An empty repository.
    pub fn new() -> RepresentationsRepository {
        RepresentationsRepository::default()
    }

    /// Stores a new version, returning its version number. An `Arc<Asg>`
    /// is shared, not copied.
    pub fn store(&mut self, gpm: impl Into<Arc<Asg>>, note: &str) -> u64 {
        let version = self.versions.len() as u64 + 1;
        self.versions.push(GpmVersion {
            version,
            gpm: gpm.into(),
            note: note.to_owned(),
        });
        version
    }

    /// The latest stored version, if any.
    pub fn latest(&self) -> Option<&GpmVersion> {
        self.versions.last()
    }

    /// A specific version (1-based).
    pub fn version(&self, v: u64) -> Option<&GpmVersion> {
        self.versions.get((v as usize).checked_sub(1)?)
    }

    /// All versions, oldest first.
    pub fn history(&self) -> &[GpmVersion] {
        &self.versions
    }

    /// Number of stored versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Asg {
        "policy -> \"allow\"".parse().unwrap()
    }

    #[test]
    fn versions_are_monotone() {
        let mut r = RepresentationsRepository::new();
        assert!(r.latest().is_none());
        let v1 = r.store(tiny(), "initial");
        let v2 = r.store(tiny(), "adapted");
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(r.latest().unwrap().note, "adapted");
        assert_eq!(r.version(1).unwrap().note, "initial");
        assert!(r.version(3).is_none());
        assert!(r.version(0).is_none());
        assert_eq!(r.history().len(), 2);
    }
}
