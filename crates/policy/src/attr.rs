//! Attribute-based requests: the subject / resource / action / environment
//! attribute categories of XACML-style access control (paper §IV-C).

use std::collections::BTreeMap;
use std::fmt;

/// An attribute category.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum Category {
    /// The requesting subject.
    Subject,
    /// The requested resource.
    Resource,
    /// The requested action.
    Action,
    /// Environmental / contextual attributes.
    Environment,
}

impl Category {
    /// All categories, in canonical order.
    pub const ALL: [Category; 4] = [
        Category::Subject,
        Category::Resource,
        Category::Action,
        Category::Environment,
    ];

    /// Lower-case name used in textual policies and ASP facts.
    pub fn name(self) -> &'static str {
        match self {
            Category::Subject => "subject",
            Category::Resource => "resource",
            Category::Action => "action",
            Category::Environment => "environment",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An attribute value.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub enum AttrValue {
    /// A string value.
    Str(String),
    /// An integer value.
    Int(i64),
    /// A boolean value.
    Bool(bool),
}

impl AttrValue {
    /// The integer inside, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            AttrValue::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> AttrValue {
        AttrValue::Str(s.to_owned())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> AttrValue {
        AttrValue::Str(s)
    }
}

impl From<i64> for AttrValue {
    fn from(i: i64) -> AttrValue {
        AttrValue::Int(i)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> AttrValue {
        AttrValue::Bool(b)
    }
}

/// An access request: attributes per category.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Request {
    attrs: BTreeMap<Category, BTreeMap<String, AttrValue>>,
}

impl Request {
    /// An empty request.
    pub fn new() -> Request {
        Request::default()
    }

    /// Sets an attribute (builder style).
    pub fn with(mut self, category: Category, name: &str, value: impl Into<AttrValue>) -> Request {
        self.set(category, name, value);
        self
    }

    /// Shorthand for a subject attribute.
    pub fn subject(self, name: &str, value: impl Into<AttrValue>) -> Request {
        self.with(Category::Subject, name, value)
    }

    /// Shorthand for a resource attribute.
    pub fn resource(self, name: &str, value: impl Into<AttrValue>) -> Request {
        self.with(Category::Resource, name, value)
    }

    /// Shorthand for an action attribute.
    pub fn action(self, name: &str, value: impl Into<AttrValue>) -> Request {
        self.with(Category::Action, name, value)
    }

    /// Shorthand for an environment attribute.
    pub fn environment(self, name: &str, value: impl Into<AttrValue>) -> Request {
        self.with(Category::Environment, name, value)
    }

    /// Sets an attribute in place.
    pub fn set(&mut self, category: Category, name: &str, value: impl Into<AttrValue>) {
        self.attrs
            .entry(category)
            .or_default()
            .insert(name.to_owned(), value.into());
    }

    /// Looks up an attribute.
    pub fn get(&self, category: Category, name: &str) -> Option<&AttrValue> {
        self.attrs.get(&category).and_then(|m| m.get(name))
    }

    /// Iterates over all `(category, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (Category, &str, &AttrValue)> {
        self.attrs
            .iter()
            .flat_map(|(c, m)| m.iter().map(move |(n, v)| (*c, n.as_str(), v)))
    }

    /// An injective, deterministic encoding of the request, suitable as a
    /// map key: `BTreeMap` iteration fixes the order, names are
    /// length-prefixed, and values carry a type tag plus length prefix so
    /// no two distinct requests share a key (unlike the `Display` form,
    /// where `Str("true")` and `Bool(true)` collide).
    pub fn canonical_key(&self) -> String {
        use std::fmt::Write as _;
        // Pre-size so building a key is one allocation: worst-case fixed
        // overhead per attribute is ~26 bytes of tags, prefixes, and digits
        // on top of the name/value payload.
        let payload: usize = self
            .iter()
            .map(|(c, n, v)| {
                c.name().len()
                    + n.len()
                    + match v {
                        AttrValue::Str(s) => s.len(),
                        AttrValue::Int(_) | AttrValue::Bool(_) => 0,
                    }
            })
            .sum();
        let mut key = String::with_capacity(payload + 26 * self.len());
        for (c, n, v) in self.iter() {
            // `write!` formats digits straight into `key`; the previous
            // `to_string()` forms allocated a temporary per field.
            let _ = write!(key, "{}.{}:{n}=", c.name(), n.len());
            match v {
                AttrValue::Str(s) => {
                    let _ = write!(key, "s:{}:{s}", s.len());
                }
                AttrValue::Int(i) => {
                    let _ = write!(key, "i:{i}");
                }
                AttrValue::Bool(b) => {
                    key.push_str(if *b { "b:1" } else { "b:0" });
                }
            }
            key.push(';');
        }
        key
    }

    /// Number of attributes across all categories.
    pub fn len(&self) -> usize {
        self.attrs.values().map(BTreeMap::len).sum()
    }

    /// True if the request carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Request {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (c, n, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}.{n}={v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let r = Request::new()
            .subject("role", "dba")
            .action("action-id", "read")
            .resource("sensitivity", 3i64)
            .environment("emergency", true);
        assert_eq!(
            r.get(Category::Subject, "role"),
            Some(&AttrValue::from("dba"))
        );
        assert_eq!(
            r.get(Category::Resource, "sensitivity")
                .and_then(AttrValue::as_int),
            Some(3)
        );
        assert_eq!(
            r.get(Category::Environment, "emergency"),
            Some(&AttrValue::Bool(true))
        );
        assert_eq!(r.get(Category::Subject, "missing"), None);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
    }

    #[test]
    fn display_is_deterministic() {
        let a = Request::new().subject("role", "dba").subject("age", 30i64);
        assert_eq!(a.to_string(), "{subject.age=30, subject.role=dba}");
    }

    #[test]
    fn canonical_key_is_injective_where_display_is_not() {
        let s = Request::new().subject("flag", "true");
        let b = Request::new().subject("flag", true);
        assert_eq!(s.to_string(), b.to_string()); // Display collides…
        assert_ne!(s.canonical_key(), b.canonical_key()); // …the key must not
        let i = Request::new().subject("n", "3");
        let j = Request::new().subject("n", 3i64);
        assert_ne!(i.canonical_key(), j.canonical_key());
        // Same request built in a different order keys identically.
        let a = Request::new().subject("role", "dba").subject("age", 30i64);
        let b = Request::new().subject("age", 30i64).subject("role", "dba");
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn iteration_covers_all_categories() {
        let r = Request::new()
            .subject("a", 1i64)
            .resource("b", 2i64)
            .action("c", 3i64);
        assert_eq!(r.iter().count(), 3);
    }
}
