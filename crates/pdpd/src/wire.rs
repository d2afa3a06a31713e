//! The PDP wire protocol: JSON shapes for requests and decision outcomes
//! (documented in `docs/SERVING.md`).
//!
//! A request is an object of per-category attribute objects; values may be
//! strings, integers, or booleans — exactly the [`AttrValue`] model:
//!
//! ```json
//! {"subject": {"role": "dba", "age": 30},
//!  "resource": {"type": "internal"},
//!  "action": {"action-id": "read"},
//!  "environment": {"emergency": false}}
//! ```
//!
//! An outcome carries the decision, its obligations and penalty
//! annotation, the PEP enforcement, the serving epoch, and degradation
//! status:
//!
//! ```json
//! {"decision": "Permit", "enforcement": "Granted",
//!  "obligations": [{"id": "audit", "action": "audit-log",
//!                   "deadline": 10, "penalty": 2}],
//!  "penalty": 0, "epoch": 7, "degraded": false}
//! ```

use crate::json::{self, Json};
use agenp_core::arch::DecisionOutcome;
use agenp_policy::{AttrValue, Category, Request};
use std::fmt::Write as _;

/// Decodes the wire form of an access request.
///
/// # Errors
///
/// A message naming the offending member on shape violations.
pub fn request_from_json(value: &Json) -> Result<Request, String> {
    let members = value
        .as_obj()
        .ok_or_else(|| "request must be a JSON object".to_string())?;
    let mut request = Request::new();
    for (key, attrs) in members {
        let category = match key.as_str() {
            "subject" => Category::Subject,
            "resource" => Category::Resource,
            "action" => Category::Action,
            "environment" => Category::Environment,
            other => return Err(format!("unknown attribute category {other:?}")),
        };
        let attrs = attrs
            .as_obj()
            .ok_or_else(|| format!("category {key:?} must be an object"))?;
        for (name, v) in attrs {
            let value: AttrValue = match v {
                Json::Str(s) => s.as_str().into(),
                Json::Int(i) => (*i).into(),
                Json::Bool(b) => (*b).into(),
                other => {
                    return Err(format!(
                        "attribute {key}.{name} must be a string, integer, or boolean \
                         (got {other:?})"
                    ))
                }
            };
            request.set(category, name, value);
        }
    }
    Ok(request)
}

/// Encodes a request in the wire form (the client half).
pub fn request_to_json(request: &Request) -> String {
    let mut out = String::with_capacity(64);
    out.push('{');
    let mut current: Option<Category> = None;
    for (category, name, value) in request.iter() {
        if current != Some(category) {
            if current.is_some() {
                out.push_str("}, ");
            }
            json::push_escaped(&mut out, category.name());
            out.push_str(": {");
            current = Some(category);
        } else {
            out.push_str(", ");
        }
        json::push_escaped(&mut out, name);
        out.push_str(": ");
        match value {
            AttrValue::Str(s) => json::push_escaped(&mut out, s),
            AttrValue::Int(i) => {
                let _ = write!(out, "{i}");
            }
            AttrValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
    if current.is_some() {
        out.push('}');
    }
    out.push('}');
    out
}

/// Encodes a decision outcome in the wire form.
pub fn outcome_to_json(outcome: &DecisionOutcome) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"decision\": \"{}\", \"enforcement\": {}, \"obligations\": [",
        outcome.decision,
        match &outcome.enforcement {
            Some(e) => format!("\"{e}\""),
            None => "null".to_string(),
        },
    );
    for (i, ob) in outcome.obligations.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"id\": {}, \"action\": {}, \"deadline\": {}, \"penalty\": {}}}",
            json::escaped(&ob.id),
            json::escaped(&ob.action),
            ob.deadline,
            ob.penalty
        );
    }
    let _ = write!(
        out,
        "], \"penalty\": {}, \"epoch\": {}, \"degraded\": {}}}",
        outcome.penalty,
        outcome.epoch,
        outcome.error.is_some()
    );
    out
}

/// Encodes a whole batch: the shared epoch once, then each outcome.
pub fn batch_to_json(outcomes: &[DecisionOutcome]) -> String {
    let mut out = String::with_capacity(64 + 96 * outcomes.len());
    let _ = write!(
        out,
        "{{\"count\": {}, \"epoch\": {}, \"outcomes\": [",
        outcomes.len(),
        // An empty batch has no epoch to report.
        outcomes
            .first()
            .map_or("null".to_string(), |o| o.epoch.to_string())
    );
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&outcome_to_json(o));
    }
    out.push_str("]}");
    out
}

/// A JSON error body: `{"error": "..."}`.
pub fn error_body(message: &str) -> String {
    format!("{{\"error\": {}}}", json::escaped(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_json_round_trips() {
        let request = Request::new()
            .subject("role", "dba")
            .subject("age", 30i64)
            .resource("type", "internal")
            .action("action-id", "read")
            .environment("emergency", true);
        let encoded = request_to_json(&request);
        let decoded = request_from_json(&json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, request);
        assert_eq!(decoded.canonical_key(), request.canonical_key());
    }

    #[test]
    fn empty_request_round_trips() {
        let encoded = request_to_json(&Request::new());
        assert_eq!(encoded, "{}");
        assert!(request_from_json(&json::parse(&encoded).unwrap())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn outcome_json_carries_obligations_and_penalty() {
        use agenp_policy::{Decision, Enforcement, Obligation};
        let outcome = DecisionOutcome {
            decision: Decision::Permit,
            obligations: vec![
                Obligation::new("audit", "audit-log", 10).with_penalty(2),
                Obligation::new("notify", "notify-owner", 5),
            ],
            penalty: 0,
            enforcement: Some(Enforcement::Granted),
            error: None,
            epoch: 7,
        };
        let encoded = outcome_to_json(&outcome);
        let v = json::parse(&encoded).unwrap();
        let obj = v.as_obj().unwrap();
        let obligations = obj
            .iter()
            .find(|(k, _)| k == "obligations")
            .and_then(|(_, v)| v.as_arr())
            .unwrap();
        assert_eq!(obligations.len(), 2);
        let first = obligations[0].as_obj().unwrap();
        let field = |name: &str| {
            first
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
        };
        assert_eq!(field("id"), Some(Json::Str("audit".into())));
        assert_eq!(field("action"), Some(Json::Str("audit-log".into())));
        assert_eq!(field("deadline"), Some(Json::Int(10)));
        assert_eq!(field("penalty"), Some(Json::Int(2)));
        assert!(encoded.contains("\"penalty\": 0, \"epoch\": 7"));
        // An annotation-free outcome keeps the fields, empty/zero.
        let bare = DecisionOutcome {
            decision: Decision::Deny,
            obligations: vec![],
            penalty: 4,
            enforcement: Some(Enforcement::Blocked),
            error: None,
            epoch: 7,
        };
        let bare_json = outcome_to_json(&bare);
        assert!(bare_json.contains("\"obligations\": []"));
        assert!(bare_json.contains("\"penalty\": 4"));
        json::parse(&bare_json).unwrap();
    }

    #[test]
    fn bad_shapes_are_rejected() {
        for bad in [
            "[1]",
            "{\"unknown\": {}}",
            "{\"subject\": 3}",
            "{\"subject\": {\"role\": [1]}}",
            "{\"subject\": {\"role\": 2.5}}",
        ] {
            let v = json::parse(bad).unwrap();
            assert!(request_from_json(&v).is_err(), "{bad} should be rejected");
        }
    }
}
