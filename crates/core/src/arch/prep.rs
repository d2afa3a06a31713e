//! The Policy Refinement Point (paper §III-A): takes the PBMS-provided
//! characterization of the policy space (a CFG plus high-level constraints,
//! i.e. an ASG) and the current context, and *generates* the concrete
//! policies the AMS will operate with.

use agenp_asp::{Program, RunBudget};
use agenp_grammar::{Asg, AsgError, GenOptions};
use agenp_policy::{rule_from_text, PolicyRule};
use std::fmt;

/// Translates generated policy strings into enforceable [`PolicyRule`]s.
///
/// The canonical translator understands the `agenp-policy` textual form;
/// scenarios provide their own translators for domain-specific languages.
///
/// `Send + Sync` so the AMS embedding the translator stays shareable
/// across the serving tier's threads.
pub trait PolicyTranslator: fmt::Debug + Send + Sync {
    /// Translates one generated string; `None` if the string is
    /// informational only (not directly enforceable).
    fn translate(&self, text: &str, id: &str) -> Option<PolicyRule>;
}

/// Translator for the canonical `permit/deny if …` textual form.
#[derive(Clone, Copy, Debug, Default)]
pub struct CanonicalTranslator;

impl PolicyTranslator for CanonicalTranslator {
    fn translate(&self, text: &str, id: &str) -> Option<PolicyRule> {
        rule_from_text(id, text).ok()
    }
}

/// Adapter turning a plain function into a [`PolicyTranslator`], for
/// scenario-specific policy languages.
///
/// ```
/// use agenp_core::arch::{FnTranslator, PolicyTranslator};
/// use agenp_policy::{Cond, Category, Effect, PolicyRule};
///
/// let t = FnTranslator(|text, id| {
///     let task = text.strip_prefix("accept ")?;
///     Some(PolicyRule::new(
///         id,
///         Effect::Permit,
///         Cond::eq(Category::Action, "task", task),
///     ))
/// });
/// assert!(t.translate("accept park", "r0").is_some());
/// assert!(t.translate("reject park", "r0").is_none());
/// ```
pub struct FnTranslator(pub fn(&str, &str) -> Option<PolicyRule>);

impl std::fmt::Debug for FnTranslator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FnTranslator(..)")
    }
}

impl PolicyTranslator for FnTranslator {
    fn translate(&self, text: &str, id: &str) -> Option<PolicyRule> {
        (self.0)(text, id)
    }
}

/// The Policy Refinement Point.
#[derive(Clone, Copy, Debug)]
pub struct Prep {
    /// Generation bounds used when enumerating the GPM's language.
    pub gen_options: GenOptions,
    /// Resource budget (atoms, steps, deadline) applied to every
    /// generation run.
    pub budget: RunBudget,
}

impl Default for Prep {
    fn default() -> Prep {
        Prep {
            gen_options: GenOptions {
                max_depth: 10,
                max_trees: 20_000,
            },
            budget: RunBudget::default(),
        }
    }
}

impl Prep {
    /// A PReP with default bounds.
    pub fn new() -> Prep {
        Prep::default()
    }

    /// Generates the policy strings admitted by `gpm` under `context` —
    /// the language `L(G(C))` up to the generation bounds.
    ///
    /// # Errors
    ///
    /// Propagates grounding failures from annotation programs, and
    /// [`AsgError::Exhausted`] when the configured budget runs out.
    pub fn generate(&self, gpm: &Asg, context: &Program) -> Result<Vec<String>, AsgError> {
        gpm.with_context(context)
            .language_within(self.gen_options, &self.budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate_grammar() -> Asg {
        r#"
            policy -> effect "if" "subject" "role" "=" role
            effect -> "permit" { e(permit). }
            effect -> "deny"   { e(deny). }
            role -> "dba"    { :- blocked(dba). }
            role -> "intern" { :- blocked(intern). }
        "#
        .parse()
        .unwrap()
    }

    #[test]
    fn generates_contextual_language() {
        let g = gate_grammar();
        let prep = Prep::new();
        let open: Program = Program::new();
        let all = prep.generate(&g, &open).unwrap();
        assert_eq!(all.len(), 4); // 2 effects × 2 roles
        let blocked: Program = "blocked(intern).".parse().unwrap();
        let some = prep.generate(&g, &blocked).unwrap();
        assert_eq!(some.len(), 2);
        assert!(some.iter().all(|s| s.contains("dba")));
    }

    #[test]
    fn canonical_translator_skips_garbage() {
        assert!(CanonicalTranslator.translate("not a policy", "x").is_none());
        assert!(CanonicalTranslator
            .translate("permit if subject role = dba", "x")
            .is_some());
    }
}
