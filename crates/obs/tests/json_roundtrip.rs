//! Property test: every JSON line `Event::to_json` can emit parses back —
//! via the crate's own RFC 8259 parser — to the exact event that produced
//! it. Kinds, keys and string values are drawn to include quotes,
//! backslashes, control characters and non-BMP code points; floats are
//! drawn from raw bit patterns so NaN, infinities and subnormals are all
//! exercised.
//!
//! A second property pins the borrowed scanner to the tree parser:
//! `scan_object` visits exactly the members `JsonValue::parse` yields and
//! fails with the same error on every invalid document.

use proptest::prelude::*;
use secloc_obs::json::{scan_object, JsonRef, JsonValue};
use secloc_obs::{Event, SpanContext, Value};

/// Characters that historically break hand-rolled JSON escapers.
const NASTY: &[char] = &[
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{08}',
    '\u{0C}',
    '\u{00}',
    '\u{01}',
    '\u{1F}',
    '\u{7F}',
    '/',
    ' ',
    'α',
    'τ',
    '→',
    '🚀',
    '\u{FFFD}',
    '\u{10FFFF}',
];

/// Maps one raw draw to a char, biased heavily toward the nasty set.
fn char_from(raw: u32) -> char {
    if !raw.is_multiple_of(3) {
        NASTY[(raw / 3) as usize % NASTY.len()]
    } else {
        // Skip the surrogate gap; anything else is a valid scalar value.
        char::from_u32((raw / 3) % 0x11_0000).unwrap_or('\u{FFFD}')
    }
}

fn string_from(raws: &[u32]) -> String {
    raws.iter().map(|&r| char_from(r)).collect()
}

/// One generated field: a key and a value covering every `Value` variant.
fn build_value(selector: u8, payload: u64, raws: &[u32]) -> Value {
    match selector % 5 {
        0 => Value::U64(payload),
        1 => Value::I64(payload as i64),
        // From raw bits: hits NaN, ±inf, -0.0, subnormals, and every
        // finite magnitude.
        2 => Value::F64(f64::from_bits(payload)),
        3 => Value::Bool(payload.is_multiple_of(2)),
        _ => Value::Str(string_from(raws)),
    }
}

/// Asserts that `parsed` is the JSON image of `value`.
fn assert_value_matches(parsed: &JsonValue, value: &Value) {
    match value {
        Value::U64(v) => assert_eq!(parsed.as_u64(), Some(*v), "u64 must survive exactly"),
        Value::I64(v) => match parsed {
            JsonValue::Number(n) => assert_eq!(n.as_i64(), Some(*v)),
            other => panic!("i64 parsed as {other:?}"),
        },
        Value::F64(v) if v.is_finite() => {
            let back = parsed.as_f64().expect("finite f64 must parse as number");
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "finite f64 must round-trip bit-exactly ({v} vs {back})"
            );
        }
        Value::F64(_) => assert_eq!(
            parsed,
            &JsonValue::Null,
            "non-finite f64 serializes as null"
        ),
        Value::Bool(v) => assert_eq!(parsed.as_bool(), Some(*v)),
        Value::Str(v) => assert_eq!(parsed.as_str(), Some(v.as_str())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_event_line_round_trips(
        kind_raws in proptest::collection::vec(any::<u32>(), 0..12),
        fields in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u32>(), 0..8),
                any::<u8>(),
                any::<u64>(),
                proptest::collection::vec(any::<u32>(), 0..16),
            ),
            0..8,
        ),
        has_ctx in any::<bool>(),
        trace_id in any::<u64>(),
        span_name_raw in any::<u32>(),
        has_parent in any::<bool>(),
    ) {
        let built: Vec<(String, Value)> = fields
            .iter()
            .map(|(key_raws, sel, payload, str_raws)| {
                (string_from(key_raws), build_value(*sel, *payload, str_raws))
            })
            .collect();
        let borrowed: Vec<(&str, Value)> = built
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let mut event = Event::new(&string_from(&kind_raws), &borrowed);
        if has_ctx {
            let root = SpanContext::root(trace_id);
            event.ctx = Some(if has_parent {
                root.child(&char_from(span_name_raw).to_string())
            } else {
                root
            });
        }

        let line = event.to_json();
        let parsed = JsonValue::parse(&line)
            .unwrap_or_else(|err| panic!("invalid JSON emitted: {err}\nline: {line}"));

        // Fixed prefix: kind, seq, then the optional trace coordinates.
        let members = parsed.as_object().expect("event serializes as an object");
        prop_assert_eq!(members[0].0.as_str(), "kind");
        prop_assert_eq!(members[0].1.as_str(), Some(event.kind.as_str()));
        prop_assert_eq!(members[1].0.as_str(), "seq");
        prop_assert_eq!(members[1].1.as_u64(), Some(event.seq));
        let mut next = 2;
        if let Some(ctx) = event.ctx {
            prop_assert_eq!(members[next].0.as_str(), "trace");
            prop_assert_eq!(
                members[next].1.as_str(),
                Some(format!("{:016x}", ctx.trace_id).as_str())
            );
            prop_assert_eq!(members[next + 1].0.as_str(), "span");
            prop_assert_eq!(
                members[next + 1].1.as_str(),
                Some(format!("{:016x}", ctx.span_id).as_str())
            );
            next += 2;
            if let Some(parent) = ctx.parent_id {
                prop_assert_eq!(members[next].0.as_str(), "parent");
                prop_assert_eq!(
                    members[next].1.as_str(),
                    Some(format!("{parent:016x}").as_str())
                );
                next += 1;
            }
        }

        // Then the fields, positionally (duplicate keys are legal in an
        // event and the parser preserves them in order).
        prop_assert_eq!(members.len() - next, event.fields.len());
        for (member, (key, value)) in members[next..].iter().zip(&event.fields) {
            prop_assert_eq!(member.0.as_str(), key.as_str());
            assert_value_matches(&member.1, value);
        }
    }
}

/// Whether `seen` is `scan_object`'s view of the tree parser's `value`.
fn same_member(value: &JsonValue, seen: &JsonRef) -> bool {
    match (value, seen) {
        (JsonValue::Null, JsonRef::Null) => true,
        (JsonValue::Bool(a), JsonRef::Bool(b)) => a == b,
        (JsonValue::Number(n), JsonRef::Number(raw)) => n.raw() == *raw,
        (JsonValue::String(a), JsonRef::String(b)) => a == b,
        (JsonValue::Array(_) | JsonValue::Object(_), JsonRef::Nested) => true,
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn scan_object_agrees_with_the_tree_parser(
        fields in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u32>(), 0..6),
                any::<u8>(),
                any::<u64>(),
                proptest::collection::vec(any::<u32>(), 0..10),
            ),
            0..6,
        ),
        wrap in 0u8..3,
        mutations in proptest::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 0..3),
    ) {
        let built: Vec<(String, Value)> = fields
            .iter()
            .map(|(key_raws, sel, payload, str_raws)| {
                (string_from(key_raws), build_value(*sel, *payload, str_raws))
            })
            .collect();
        let borrowed: Vec<(&str, Value)> = built
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let line = Event::new("k", &borrowed).to_json();
        // Flat objects, objects with nested members, and non-objects.
        let doc = match wrap {
            0 => line,
            1 => format!(r#"{{"e":{line},"a":[{line},1],"s":"x"}}"#),
            _ => format!("[{line}]"),
        };
        // Mutate by char, so the document stays a valid str: truncate,
        // substitute, or insert.
        let mut chars: Vec<char> = doc.chars().collect();
        for &(op, at, raw) in &mutations {
            let at = at as usize % (chars.len() + 1);
            match op {
                0 => chars.truncate(at),
                1 if at < chars.len() => chars[at] = char_from(raw),
                _ => chars.insert(at, char_from(raw)),
            }
        }
        let doc: String = chars.into_iter().collect();

        let mut seen = Vec::new();
        let scanned = scan_object(&doc, |key, value| seen.push((key.to_string(), value)));
        match JsonValue::parse(&doc) {
            Ok(JsonValue::Object(members)) => {
                prop_assert_eq!(scanned, Ok(true));
                prop_assert_eq!(seen.len(), members.len());
                for ((key, value), (seen_key, seen_value)) in members.iter().zip(&seen) {
                    prop_assert_eq!(key, seen_key);
                    prop_assert!(
                        same_member(value, seen_value),
                        "member {:?}: tree {:?} vs scan {:?}", key, value, seen_value
                    );
                }
            }
            Ok(_) => {
                prop_assert_eq!(scanned, Ok(false));
                prop_assert!(seen.is_empty());
            }
            Err(e) => prop_assert_eq!(scanned, Err(e), "doc: {:?}", doc),
        }
    }
}
