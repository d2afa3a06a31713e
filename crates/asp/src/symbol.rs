//! Global string interning for predicate, constant, and variable names.
//!
//! Symbols are cheap (`u32`) copyable handles into a process-wide interner.
//! Interning the same string twice yields the same [`Symbol`], so equality
//! and hashing are O(1). The interner is never purged; the set of distinct
//! names in a policy-management workload is small and long-lived. Because
//! a name never moves or goes away once interned, reading one (to print or
//! compare it) takes no lock: only interning a new name does.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned name (predicate symbol, constant, or variable name).
///
/// ```
/// use agenp_asp::Symbol;
/// let a = Symbol::new("permit");
/// let b = Symbol::new("permit");
/// assert_eq!(a, b);
/// assert_eq!(a.name(), "permit");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Ids by name; interning a new name takes the write lock.
fn index() -> &'static RwLock<HashMap<&'static str, u32>> {
    static INDEX: OnceLock<RwLock<HashMap<&'static str, u32>>> = OnceLock::new();
    INDEX.get_or_init(RwLock::default)
}

/// One chunk of the name table: a slot per id, each set once.
type Chunk = Box<[OnceLock<&'static str>]>;

/// Names by id. Chunk `k` holds the `2^k` ids from `2^k - 1`, so a chunk,
/// once allocated, never moves or grows, and every name is leaked: a name
/// is read with two lock-free loads and lives as long as the process.
static NAMES: [OnceLock<Chunk>; 33] = [const { OnceLock::new() }; 33];

/// The chunk and slot of `id` in [`NAMES`].
fn slot(id: u32) -> (usize, usize) {
    let n = u64::from(id) + 1;
    let chunk = n.ilog2();
    (chunk as usize, (n - (1 << chunk)) as usize)
}

impl Symbol {
    /// Interns `name` and returns its handle.
    pub fn new(name: &str) -> Symbol {
        if let Some(&id) = index().read().expect("symbol index poisoned").get(name) {
            return Symbol(id);
        }
        let mut index = index().write().expect("symbol index poisoned");
        if let Some(&id) = index.get(name) {
            return Symbol(id);
        }
        let id = u32::try_from(index.len()).expect("symbol table overflow");
        let name: &'static str = Box::leak(name.into());
        let (chunk, at) = slot(id);
        let slots =
            NAMES[chunk].get_or_init(|| (0..1usize << chunk).map(|_| OnceLock::new()).collect());
        slots[at]
            .set(name)
            .expect("each id is interned once, under the write lock");
        index.insert(name, id);
        Symbol(id)
    }

    /// The interned string. Its slot was set before the id was handed
    /// out, and reading it takes no lock.
    fn as_str(self) -> &'static str {
        let (chunk, at) = slot(self.0);
        NAMES[chunk]
            .get()
            .and_then(|slots| slots[at].get())
            .expect("a symbol's name is set before the symbol exists")
    }

    /// Returns the interned string for this symbol.
    pub fn name(self) -> String {
        self.as_str().to_owned()
    }

    /// Applies `f` to the interned string without cloning it.
    pub fn with_name<R>(self, f: impl FnOnce(&str) -> R) -> R {
        f(self.as_str())
    }

    /// Compares two symbols by their interned strings (not by handle id).
    pub fn cmp_by_name(self, other: Symbol) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }

    /// True if the name is a valid bare ASP constant: `[a-z][A-Za-z0-9_]*`.
    pub fn is_bare_constant(self) -> bool {
        self.with_name(|n| {
            let mut chars = n.chars();
            match chars.next() {
                Some(c) if c.is_ascii_lowercase() => {
                    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
                }
                _ => false,
            }
        })
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_name(|n| write!(f, "Symbol({n:?})"))
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.with_name(|n| f.write_str(n))
    }
}

impl From<&str> for Symbol {
    fn from(name: &str) -> Symbol {
        Symbol::new(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Symbol::new("alpha");
        let b = Symbol::new("alpha");
        let c = Symbol::new("beta");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.name(), "alpha");
        assert_eq!(c.name(), "beta");
    }

    #[test]
    fn name_ordering_is_lexicographic() {
        let z = Symbol::new("zz_order_test");
        let a = Symbol::new("aa_order_test");
        assert_eq!(a.cmp_by_name(z), std::cmp::Ordering::Less);
        assert_eq!(z.cmp_by_name(a), std::cmp::Ordering::Greater);
        assert_eq!(a.cmp_by_name(a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn names_interned_in_reverse_order_sort_by_name() {
        // Fresh names interned last-first: their ids run against their
        // names, so only the names can put them in order.
        let names: Vec<String> = (0..300)
            .rev()
            .map(|i| format!("rev_order_{i:03}"))
            .collect();
        let mut symbols: Vec<Symbol> = names.iter().map(|n| Symbol::new(n)).collect();
        assert!(
            symbols.windows(2).all(|w| w[0] < w[1]),
            "ids follow interning"
        );
        symbols.sort_by(|a, b| a.cmp_by_name(*b));
        let sorted: Vec<String> = symbols.iter().map(|s| s.name()).collect();
        let mut want = names.clone();
        want.sort();
        assert_eq!(sorted, want);
    }

    #[test]
    fn slots_cover_ids_without_gaps() {
        let mut next = (0, 0);
        for id in 0..5_000u32 {
            assert_eq!(slot(id), next, "id {id}");
            next = if next.1 + 1 == 1 << next.0 {
                (next.0 + 1, 0)
            } else {
                (next.0, next.1 + 1)
            };
        }
        assert_eq!(slot(u32::MAX), (32, 0));
    }

    #[test]
    fn bare_constant_detection() {
        assert!(Symbol::new("abc_1").is_bare_constant());
        assert!(!Symbol::new("Abc").is_bare_constant());
        assert!(!Symbol::new("with space").is_bare_constant());
        assert!(!Symbol::new("").is_bare_constant());
    }

    #[test]
    fn display_shows_name() {
        assert_eq!(Symbol::new("shown").to_string(), "shown");
    }
}
