//! Hand-rolled JSON: string escaping plus a small recursive-descent
//! parser (no serde in the workspace).
//!
//! The escaping side has been audited against RFC 8259: every control
//! character below `0x20` is escaped (`\n`, `\r`, `\t`, `\b`, `\f` get
//! their short forms, the rest `\u00XX`), quotes and backslashes are
//! escaped, and non-finite floats — which JSON cannot represent — are
//! emitted as `null`. The parser exists so consumers (the event-schema
//! linter, the perf-trend tool, the round-trip proptest) can read what the
//! writers produce without external dependencies; it accepts exactly RFC
//! 8259 JSON nested at most [`MAX_DEPTH`] levels deep and preserves number
//! text verbatim, so `u64` values above 2^53 survive a round trip.
//!
//! One lexer serves two front ends: [`JsonValue::parse`] builds an owned
//! tree, and [`scan_object`] walks a flat object's members as borrowed
//! [`JsonRef`] views without building one — the alerter's per-line wire
//! path, which reads a few fields of every line and would otherwise pay
//! one allocation per key and per value.
//! Both share the object grammar, so they accept and reject the same
//! documents with the same errors.

use std::borrow::Cow;
use std::fmt::Write as _;

/// Appends `s` to `out` as a quoted JSON string, escaping control
/// characters, quotes and backslashes per RFC 8259.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `value` to `out` as a JSON number. Non-finite floats, which JSON
/// cannot represent, are emitted as `null`.
pub fn push_json_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        // Rust's float Display prints the shortest string that parses back
        // to the same bits, so encode → decode round-trips losslessly.
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// A JSON number, kept as its source text so integer precision beyond
/// `f64`'s 53-bit mantissa is never silently lost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonNumber(String);

impl JsonNumber {
    /// The raw number text as it appeared in the document.
    pub fn raw(&self) -> &str {
        &self.0
    }

    /// The number as `f64` (always succeeds for valid JSON numbers,
    /// possibly with rounding).
    pub fn as_f64(&self) -> f64 {
        self.0.parse().unwrap_or(f64::NAN)
    }

    /// The number as `u64`, when it is an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        self.0.parse().ok()
    }

    /// The number as `i64`, when it is an exact integer.
    pub fn as_i64(&self) -> Option<i64> {
        self.0.parse().ok()
    }
}

/// A parsed JSON value. Objects preserve member order (and duplicates, so
/// a linter can flag them); numbers preserve their source text.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as text (see [`JsonNumber`]).
    Number(JsonNumber),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: ordered `(key, value)` members.
    Object(Vec<(String, JsonValue)>),
}

/// Why a document failed to parse: a message and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the failure.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// How deeply arrays and objects may nest before a document is rejected.
/// The parser recurses once per level, so without a bound one long line of
/// `[[[[…` from outside the process would overflow the stack; every
/// document the workspace writes nests a handful of levels at most.
pub const MAX_DEPTH: usize = 128;

/// A borrowed view of one top-level member value, as [`scan_object`]
/// visits it. Numbers keep their source text and strings borrow from the
/// document unless they contain escapes; nested arrays and objects are
/// validated but not built.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonRef<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its source text.
    Number(&'a str),
    /// A string, unescaped (borrowed when it held no escape).
    String(Cow<'a, str>),
    /// An array or object.
    Nested,
}

impl JsonRef<'_> {
    /// The string payload, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonRef::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as exact `u64`, for integral numbers (the same
    /// rule as [`JsonNumber::as_u64`]).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonRef::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }
}

/// Validates `text` as one JSON document, exactly as [`JsonValue::parse`]
/// does (same errors at the same offsets), without building a tree. When
/// the document is an object, `visit` sees each top-level member in order
/// — duplicates included — and the result is `Ok(true)`; any other valid
/// document gives `Ok(false)`. On `Err`, members visited before the
/// failure belong to an invalid document and should be discarded.
pub fn scan_object<'a>(
    text: &'a str,
    mut visit: impl FnMut(&str, JsonRef<'a>),
) -> Result<bool, JsonError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let is_object = p.peek() == Some(b'{');
    if is_object {
        p.object_with(|p, key| {
            let value = p.value_ref()?;
            visit(&key, value);
            Ok(())
        })?;
    } else {
        p.value()?;
    }
    p.end()?;
    Ok(is_object)
}

impl JsonValue {
    /// Parses one complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        let value = p.value()?;
        p.end()?;
        Ok(value)
    }

    /// The member named `key`, for objects (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Follows a path of object keys.
    pub fn pointer(&self, path: &[&str]) -> Option<&JsonValue> {
        path.iter().try_fold(self, |v, key| v.get(key))
    }

    /// The string payload, for strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `f64`, for numbers.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric payload as exact `u64`, for integral numbers.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The boolean payload, for booleans.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, for arrays.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered members, for objects.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn error(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// After the document's value: only whitespace may follow.
    fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.error("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::String(self.str_ref()?.into_owned())),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// [`value`](Parser::value) for a top-level member of a scanned
    /// object: strings and numbers borrow, nested values are dropped.
    fn value_ref(&mut self) -> Result<JsonRef<'a>, JsonError> {
        Ok(match self.peek() {
            Some(b'"') => JsonRef::String(self.str_ref()?),
            Some(b'-' | b'0'..=b'9') => JsonRef::Number(self.number_raw()?),
            _ => match self.value()? {
                JsonValue::Null => JsonRef::Null,
                JsonValue::Bool(b) => JsonRef::Bool(b),
                _ => JsonRef::Nested,
            },
        })
    }

    /// Runs `inner` one nesting level down, rejecting the document at the
    /// opening bracket once [`MAX_DEPTH`] levels are open.
    fn nested<T>(
        &mut self,
        inner: impl FnOnce(&mut Self) -> Result<T, JsonError>,
    ) -> Result<T, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.depth += 1;
        let out = inner(self);
        self.depth -= 1;
        out
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        let mut members = Vec::new();
        self.object_with(|p, key| {
            members.push((key.into_owned(), p.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Object(members))
    }

    /// The object grammar, shared by the tree parser and [`scan_object`]:
    /// `member` is called with each key once the `:` is consumed and must
    /// consume the value.
    fn object_with(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.nested(|p| {
            p.expect(b'{')?;
            p.skip_ws();
            if p.peek() == Some(b'}') {
                p.pos += 1;
                return Ok(());
            }
            loop {
                p.skip_ws();
                let key = p.str_ref()?;
                p.skip_ws();
                p.expect(b':')?;
                p.skip_ws();
                member(p, key)?;
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b'}') => {
                        p.pos += 1;
                        return Ok(());
                    }
                    _ => return Err(p.error("expected ',' or '}' in object")),
                }
            }
        })
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.nested(|p| {
            p.expect(b'[')?;
            let mut items = Vec::new();
            p.skip_ws();
            if p.peek() == Some(b']') {
                p.pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                p.skip_ws();
                items.push(p.value()?);
                p.skip_ws();
                match p.peek() {
                    Some(b',') => p.pos += 1,
                    Some(b']') => {
                        p.pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(p.error("expected ',' or ']' in array")),
                }
            }
        })
    }

    /// Advances over bytes a string carries verbatim. The run stops only
    /// at ASCII bytes (or the end), so it ends on a char boundary.
    fn skip_plain(&mut self) {
        let rest = &self.bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// A string, borrowed from the document when it holds no escape and
    /// decoded into an owned copy when it does.
    fn str_ref(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        let mut out = self.text[start..self.pos].to_string();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let first = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: a \uXXXX low surrogate
                                // must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let combined =
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.error("invalid surrogate pair"))?
                            } else if (0xDC00..0xE000).contains(&first) {
                                return Err(self.error("lone low surrogate"));
                            } else {
                                char::from_u32(first)
                                    .ok_or_else(|| self.error("invalid \\u escape"))?
                            };
                            out.push(ch);
                        }
                        _ => return Err(self.error("invalid escape character")),
                    }
                }
                Some(_) => return Err(self.error("unescaped control character in string")),
                None => return Err(self.error("unterminated string")),
            }
            let run = self.pos;
            self.skip_plain();
            out.push_str(&self.text[run..self.pos]);
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.text.len() {
            return Err(self.error("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes()[self.pos..end])
            .map_err(|_| self.error("non-ASCII in \\u escape"))?;
        let value =
            u32::from_str_radix(hex, 16).map_err(|_| self.error("non-hex in \\u escape"))?;
        self.pos = end;
        Ok(value)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        Ok(JsonValue::Number(JsonNumber(
            self.number_raw()?.to_string(),
        )))
    }

    /// A number's source text, validated against the RFC 8259 grammar.
    fn number_raw(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.error("expected digits in number"));
        }
        // Leading zeros are invalid JSON ("01"), a bare "0" is fine.
        if self.bytes()[digits_from] == b'0' && self.pos - digits_from > 1 {
            return Err(self.error("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.error("expected digits after decimal point"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.error("expected digits in exponent"));
            }
        }
        Ok(&self.text[start..self.pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        push_json_string(&mut out, s);
        out
    }

    #[test]
    fn plain_strings_pass_through() {
        assert_eq!(escaped("hello"), "\"hello\"");
    }

    #[test]
    fn quotes_and_backslashes_escape() {
        assert_eq!(escaped("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }

    #[test]
    fn control_characters_escape() {
        assert_eq!(escaped("a\nb\tc\rd"), "\"a\\nb\\tc\\rd\"");
        assert_eq!(escaped("\u{08}\u{0C}"), "\"\\b\\f\"");
        assert_eq!(escaped("\u{01}"), "\"\\u0001\"");
    }

    #[test]
    fn unicode_passes_through_unescaped() {
        assert_eq!(escaped("τ′ → β"), "\"τ′ → β\"");
    }

    #[test]
    fn non_finite_floats_are_null() {
        let mut out = String::new();
        push_json_f64(&mut out, f64::NAN);
        out.push(',');
        push_json_f64(&mut out, f64::INFINITY);
        out.push(',');
        push_json_f64(&mut out, 1.5);
        assert_eq!(out, "null,null,1.5");
    }

    #[test]
    fn parser_handles_scalars() {
        assert_eq!(JsonValue::parse("null").unwrap(), JsonValue::Null);
        assert_eq!(JsonValue::parse(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(JsonValue::parse("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(
            JsonValue::parse("\"hi\"").unwrap(),
            JsonValue::String("hi".into())
        );
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("-1.5e3").unwrap().as_f64(), Some(-1500.0));
    }

    #[test]
    fn parser_preserves_u64_precision() {
        let v = JsonValue::parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn parser_handles_nesting_and_order() {
        let v = JsonValue::parse(r#"{"a":[1,{"b":"c"}],"d":null}"#).unwrap();
        assert_eq!(v.pointer(&["a"]).unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.pointer(&["a"])
                .and_then(|a| a.as_array())
                .and_then(|a| a[1].get("b"))
                .and_then(|b| b.as_str()),
            Some("c")
        );
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        let members = v.as_object().unwrap();
        assert_eq!(members[0].0, "a");
        assert_eq!(members[1].0, "d");
    }

    #[test]
    fn parser_unescapes_strings() {
        let v = JsonValue::parse(r#""a\n\t\"\\\u0041\u00e9""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aé"));
        // Surrogate pair: 🚀 is U+1F680.
        let v = JsonValue::parse(r#""\ud83d\ude80""#).unwrap();
        assert_eq!(v.as_str(), Some("🚀"));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "01",
            "1.",
            "1e",
            "\"\\x\"",
            "\"unterminated",
            "{\"a\":1,}",
            "[1]]",
            "nullx",
            "\"\u{01}\"",
            r#""\ud83d""#,
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted: {bad:?}");
        }
    }

    fn nested_arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        assert!(JsonValue::parse(&nested_arrays(MAX_DEPTH)).is_ok());
        let err = JsonValue::parse(&nested_arrays(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH, "rejected at the opening bracket");
        // The top-level object is one level; so is each nested array.
        let member = |depth: usize| format!(r#"{{"x":{}}}"#, nested_arrays(depth));
        assert!(JsonValue::parse(&member(MAX_DEPTH - 1)).is_ok());
        assert!(scan_object(&member(MAX_DEPTH - 1), |_, _| {}).is_ok());
        let deep = member(MAX_DEPTH);
        assert_eq!(
            scan_object(&deep, |_, _| {}),
            Err(JsonValue::parse(&deep).unwrap_err())
        );
        // Far past the limit the error is the same, not a stack overflow.
        let err = JsonValue::parse(&nested_arrays(1_000_000)).unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
    }

    #[test]
    fn scan_object_borrows_plain_members_in_order() {
        let mut seen = Vec::new();
        let doc = r#" {"k":"v","n":-1.5e3,"b":true,"z":null,"a":[1],"k":"\u0041"} "#;
        assert_eq!(
            scan_object(doc, |key, value| seen.push((key.to_string(), value))),
            Ok(true)
        );
        assert_eq!(
            seen,
            vec![
                ("k".to_string(), JsonRef::String(Cow::Borrowed("v"))),
                ("n".to_string(), JsonRef::Number("-1.5e3")),
                ("b".to_string(), JsonRef::Bool(true)),
                ("z".to_string(), JsonRef::Null),
                ("a".to_string(), JsonRef::Nested),
                (
                    "k".to_string(),
                    JsonRef::String(Cow::Owned("A".to_string()))
                ),
            ]
        );
        assert!(matches!(&seen[0].1, JsonRef::String(Cow::Borrowed(_))));
        assert!(matches!(&seen[5].1, JsonRef::String(Cow::Owned(_))));
        assert_eq!(JsonRef::Number("42").as_u64(), Some(42));
        assert_eq!(JsonRef::Number("1.0").as_u64(), None);
        assert_eq!(
            scan_object("[1,2]", |_, _| panic!("not an object")),
            Ok(false)
        );
        assert_eq!(scan_object("\"s\"", |_, _| {}), Ok(false));
        assert_eq!(
            scan_object(r#"{"a":1}x"#, |_, _| {}),
            Err(JsonValue::parse(r#"{"a":1}x"#).unwrap_err())
        );
    }

    #[test]
    fn escaped_strings_round_trip_through_parser() {
        for s in [
            "",
            "plain",
            "a\"b\\c",
            "line\none\r\ttwo",
            "\u{08}\u{0C}\u{01}\u{1f}",
            "τ′ → β 🚀",
            "ends with backslash \\",
        ] {
            let doc = escaped(s);
            assert_eq!(
                JsonValue::parse(&doc).unwrap(),
                JsonValue::String(s.to_string()),
                "round-trip failed for {s:?}"
            );
        }
    }
}
