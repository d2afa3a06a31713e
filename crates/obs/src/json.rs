//! A minimal value-producing JSON parser and encoder, hand-rolled against
//! RFC 8259 (the workspace deliberately carries no JSON dependency). It is
//! the workspace's one parser and one string escaper: `agenp-pdpd` reads
//! and writes the wire protocol with it, the observability dump and
//! pdpd's `/metrics` body render through [`Json`], and the bench binaries
//! write and re-validate their `BENCH_*.json` files with it. Integers that
//! fit `i64` are kept exact; other numbers fall back to `f64`.
//!
//! [`Json`]'s `Display` is the encoder: one line, `": "` after keys and
//! `", "` between items, non-finite numbers as `null`, so
//! `parse(&v.to_string()) == v` for every finite value.
//!
//! ```
//! use agenp_obs::json::{self, Json};
//! let row = Json::obj([("n", 3u64.into()), ("ratio", 0.5.into()), ("tag", "a\"b".into())]);
//! assert_eq!(row.to_string(), r#"{"n": 3, "ratio": 0.5, "tag": "a\"b"}"#);
//! assert_eq!(json::parse(&row.to_string()).unwrap(), row);
//! ```

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number with no fraction/exponent that fits `i64`.
    Int(i64),
    /// Any other number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object with `members` in the given order.
    pub fn obj<'a>(members: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_owned(), v))
                .collect(),
        )
    }

    /// Member of an object by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string inside, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer inside, if any.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The boolean inside, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

impl Json {
    /// Appends the one-line encoding to `out` (what `Display` writes).
    fn encode(&self, out: &mut String) -> fmt::Result {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}")?,
            // `{:?}` keeps a fraction (`2.0`, not `2`), so the value parses
            // back as a `Num`, and prints the shortest text that round-trips.
            Json::Num(n) if n.is_finite() => write!(out, "{n:?}")?,
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => push_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    item.encode(out)?;
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ", " } else { "" });
                    push_escaped(out, key);
                    out.push_str(": ");
                    value.encode(out)?;
                }
                out.push('}');
            }
        }
        Ok(())
    }
}

/// The encoder: one line, `": "` / `", "` separators, `null` for a
/// non-finite number.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.encode(&mut out)?;
        f.write_str(&out)
    }
}

macro_rules! from_scalar {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::$variant(v.into())
            }
        }
    )*};
}
from_scalar!(bool => Bool, i64 => Int, f64 => Num, &str => Str, String => Str);

/// Unsigned integers stay exact up to `i64::MAX`; larger ones become a
/// `Num` (still positive, never wrapped).
macro_rules! from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                i64::try_from(v).map_or(Json::Num(v as f64), Json::Int)
            }
        }
    )*};
}
from_unsigned!(u64, usize, u128);

/// `None` is `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// Collects into an array.
impl FromIterator<Json> for Json {
    fn from_iter<I: IntoIterator<Item = Json>>(items: I) -> Json {
        Json::Arr(items.into_iter().collect())
    }
}

/// A parse failure, with the byte position it was detected at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub pos: usize,
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.pos)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(pos: usize, msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        pos,
        msg: msg.into(),
    })
}

/// Parses `input` as exactly one JSON value with nothing trailing.
///
/// # Errors
///
/// [`JsonError`] naming the offending byte position.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return err(pos, "trailing content");
    }
    Ok(value)
}

/// Nesting cap: a hostile request must not be able to blow the stack.
const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    if depth > MAX_DEPTH {
        return err(*pos, "nesting too deep");
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, b"true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, b"false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, b"null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => err(*pos, "unexpected end of input"),
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return err(*pos, "expected ':'");
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth + 1)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return err(*pos, "expected ',' or '}'"),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return err(*pos, "expected ',' or ']'"),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return err(*pos, "expected string");
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = parse_hex4(bytes, pos)?;
                        if (0xD800..=0xDBFF).contains(&cp) {
                            // A surrogate pair: the low half must follow.
                            if bytes.get(*pos + 1) != Some(&b'\\')
                                || bytes.get(*pos + 2) != Some(&b'u')
                            {
                                return err(*pos, "unpaired surrogate");
                            }
                            *pos += 2;
                            let low = parse_hex4(bytes, pos)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return err(*pos, "bad low surrogate");
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(c).ok_or(JsonError {
                                pos: *pos,
                                msg: "bad surrogate pair".into(),
                            })?);
                        } else if (0xDC00..=0xDFFF).contains(&cp) {
                            return err(*pos, "unpaired low surrogate");
                        } else {
                            out.push(char::from_u32(cp).ok_or(JsonError {
                                pos: *pos,
                                msg: "bad \\u escape".into(),
                            })?);
                        }
                    }
                    _ => return err(*pos, "bad escape"),
                }
                *pos += 1;
            }
            Some(&b) if b < 0x20 => return err(*pos, "raw control character"),
            Some(_) => {
                // Copy one UTF-8 scalar (input is a &str, so boundaries are
                // valid by construction).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0b1100_0000 == 0b1000_0000 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("input is UTF-8"));
            }
            None => return err(*pos, "unterminated string"),
        }
    }
}

/// Parses the 4 hex digits after `\u`, leaving `pos` on the last digit.
fn parse_hex4(bytes: &[u8], pos: &mut usize) -> Result<u32, JsonError> {
    let mut cp = 0u32;
    for _ in 0..4 {
        *pos += 1;
        let d = match bytes.get(*pos) {
            Some(&b) if b.is_ascii_digit() => u32::from(b - b'0'),
            Some(&b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
            Some(&b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
            _ => return err(*pos, "bad \\u escape"),
        };
        cp = cp * 16 + d;
    }
    Ok(cp)
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &[u8],
    value: Json,
) -> Result<Json, JsonError> {
    if bytes.len() >= *pos + lit.len() && &bytes[*pos..*pos + lit.len()] == lit {
        *pos += lit.len();
        Ok(value)
    } else {
        err(*pos, "bad literal")
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return err(start, "expected number");
    }
    let mut integral = true;
    if bytes.get(*pos) == Some(&b'.') {
        integral = false;
        *pos += 1;
        let mut frac = 0;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return err(*pos, "bad fraction");
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        integral = false;
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return err(*pos, "bad exponent");
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if integral {
        if let Ok(i) = text.parse::<i64>() {
            return Ok(Json::Int(i));
        }
    }
    match text.parse::<f64>() {
        Ok(f) => Ok(Json::Num(f)),
        Err(_) => err(start, "unrepresentable number"),
    }
}

/// Appends `s` to `out` as a JSON string literal (quoted, escaped).
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a standalone JSON string literal.
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_escaped(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse("true").unwrap(), Json::Bool(true));
        assert_eq!(parse("-42").unwrap(), Json::Int(-42));
        assert_eq!(parse("2.5").unwrap(), Json::Num(2.5));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Json::Str("a\nb".into()));
        let v = parse(r#"{"xs": [1, 2], "ok": true}"#).unwrap();
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("xs").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn decodes_unicode_escapes() {
        assert_eq!(parse(r#""A""#).unwrap(), Json::Str("A".into()));
        assert_eq!(parse(r#""😀""#).unwrap(), Json::Str("\u{1F600}".into()));
        assert!(parse(r#""\ud83d""#).is_err()); // unpaired high surrogate
    }

    #[test]
    fn accepts_well_formed_documents() {
        for ok in [
            "{}",
            "[]",
            "{\"a\": [1, 2.5, -3e2, true, false, null, \"s\\n\"]}",
            "  {\"nested\": {\"x\": []}}  ",
        ] {
            assert!(parse(ok).is_ok(), "{ok:?} should parse");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "1 2", "{'a': 1}", "nul"] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "[1, ]",
            "{\"a\": 1} trailing",
            "{'single': 1}",
            "{\"n\": 01e}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn escaping_round_trips() {
        let original = "line\n\"quoted\"\ttab\\slash\u{1}";
        let encoded = escaped(original);
        assert_eq!(parse(&encoded).unwrap(), Json::Str(original.into()));
    }

    #[test]
    fn encoding_round_trips() {
        let value = Json::obj([
            (
                "nested",
                Json::obj([
                    (
                        "xs",
                        Json::Arr(vec![1i64.into(), 2.5.into(), Json::Null, false.into()]),
                    ),
                    ("empty", Json::Obj(vec![])),
                    (
                        "rows",
                        Json::Arr(vec![Json::Arr(vec![]), Json::Obj(vec![])]),
                    ),
                ]),
            ),
            ("escapes \"key\"", "q\"b\\s/\n\r\t".into()),
            ("control", "\u{0}\u{8}\u{c}\u{1f}\u{7f}".into()),
            ("astral", "\u{1F600} \u{10FFFF} é".into()),
            ("min", i64::MIN.into()),
            ("max", i64::MAX.into()),
            ("whole", 2.0.into()),
            ("tiny", (-1e-300).into()),
            ("huge", 1e300.into()),
        ]);
        let text = value.to_string();
        assert!(!text.contains('\n'), "one line: {text}");
        assert!(text.starts_with(r#"{"nested": {"xs": [1, 2.5, null, false], "#));
        assert_eq!(parse(&text).unwrap(), value);
    }

    #[test]
    fn nonfinite_numbers_encode_null_and_big_unsigned_do_not_wrap() {
        for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::from(n).to_string(), "null");
        }
        assert_eq!(Json::from(i64::MAX as u64), Json::Int(i64::MAX));
        for big in [Json::from(i64::MAX as u64 + 1), Json::from(u64::MAX)] {
            let text = big.to_string();
            assert!(!text.starts_with('-'), "{text} wrapped");
            let back = parse(&text).unwrap();
            assert!(matches!(back, Json::Num(n) if n >= 9.2e18), "{text}");
        }
    }
}
