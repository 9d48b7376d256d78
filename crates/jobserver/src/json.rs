//! Minimal JSON encoder/parser for the wire protocol.
//!
//! The workspace's offline `serde` stand-in derives no real serialization,
//! so — like the runstore codec and the telemetry artifact writers — the
//! job protocol hand-rolls its JSON. Objects preserve insertion order, so
//! encoded responses are deterministic; numbers are `f64` (ids and counters
//! in this protocol stay far below 2^53, where `f64` is exact).

use std::collections::VecDeque;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (see the module docs on integer exactness).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience: an integer value.
    pub fn num(n: u64) -> Json {
        Json::Num(n as f64)
    }

    /// Member lookup on an object (first match), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= (1u64 << 53) as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload as `i64`, if this is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() <= (1u64 << 53) as f64 => Some(*n as i64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serialize to compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse JSON text. Strict enough for the protocol: rejects trailing
    /// garbage, unterminated strings, and malformed literals.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut chars: VecDeque<char> = text.chars().collect();
        let value = parse_value(&mut chars, 0)?;
        skip_ws(&mut chars);
        if let Some(c) = chars.front() {
            return Err(format!("trailing character {c:?} after JSON value"));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

fn skip_ws(chars: &mut VecDeque<char>) {
    while matches!(chars.front(), Some(' ' | '\t' | '\n' | '\r')) {
        chars.pop_front();
    }
}

fn expect(chars: &mut VecDeque<char>, want: char) -> Result<(), String> {
    match chars.pop_front() {
        Some(c) if c == want => Ok(()),
        Some(c) => Err(format!("expected {want:?}, found {c:?}")),
        None => Err(format!("expected {want:?}, found end of input")),
    }
}

/// The deepest container nesting a document may have. The protocol nests at
/// most 4 levels; the cap keeps the recursive descent off the end of the
/// stack.
const MAX_DEPTH: usize = 32;

/// `depth` counts the arrays and objects this value sits in.
fn parse_value(chars: &mut VecDeque<char>, depth: usize) -> Result<Json, String> {
    skip_ws(chars);
    match chars.front().copied() {
        None => Err("unexpected end of input".to_string()),
        Some('{' | '[') if depth == MAX_DEPTH => {
            Err(format!("containers nested deeper than {MAX_DEPTH} levels"))
        }
        Some('{') => {
            chars.pop_front();
            let mut pairs = Vec::new();
            skip_ws(chars);
            if chars.front() == Some(&'}') {
                chars.pop_front();
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(chars);
                let key = parse_string(chars)?;
                skip_ws(chars);
                expect(chars, ':')?;
                let value = parse_value(chars, depth + 1)?;
                pairs.push((key, value));
                skip_ws(chars);
                match chars.pop_front() {
                    Some(',') => continue,
                    Some('}') => return Ok(Json::Obj(pairs)),
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
        Some('[') => {
            chars.pop_front();
            let mut items = Vec::new();
            skip_ws(chars);
            if chars.front() == Some(&']') {
                chars.pop_front();
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(chars, depth + 1)?);
                skip_ws(chars);
                match chars.pop_front() {
                    Some(',') => continue,
                    Some(']') => return Ok(Json::Arr(items)),
                    other => return Err(format!("expected ',' or ']', found {other:?}")),
                }
            }
        }
        Some('"') => Ok(Json::Str(parse_string(chars)?)),
        Some('t') => parse_literal(chars, "true", Json::Bool(true)),
        Some('f') => parse_literal(chars, "false", Json::Bool(false)),
        Some('n') => parse_literal(chars, "null", Json::Null),
        Some(c) if c == '-' || c.is_ascii_digit() => {
            let mut num = String::new();
            while let Some(&c) = chars.front() {
                if c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E' || c.is_ascii_digit() {
                    num.push(c);
                    chars.pop_front();
                } else {
                    break;
                }
            }
            num.parse::<f64>()
                .ok()
                .filter(|n| n.is_finite())
                .map(Json::Num)
                .ok_or_else(|| format!("invalid number {num:?}"))
        }
        Some(c) => Err(format!("unexpected character {c:?}")),
    }
}

fn parse_literal(chars: &mut VecDeque<char>, word: &str, value: Json) -> Result<Json, String> {
    for want in word.chars() {
        match chars.pop_front() {
            Some(c) if c == want => {}
            other => {
                return Err(format!(
                    "invalid literal (expected {word:?}, got {other:?})"
                ))
            }
        }
    }
    Ok(value)
}

fn parse_string(chars: &mut VecDeque<char>) -> Result<String, String> {
    expect(chars, '"')?;
    let mut out = String::new();
    loop {
        match chars.pop_front() {
            None => return Err("unterminated string".to_string()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.pop_front() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{8}'),
                Some('f') => out.push('\u{c}'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .pop_front()
                            .and_then(|c| c.to_digit(16))
                            .ok_or("invalid \\u escape")?;
                        code = code * 16 + d;
                    }
                    // Surrogates (paired or lone) are not produced by this
                    // protocol; map anything unrepresentable to U+FFFD.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("invalid escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::obj(vec![
            ("id", Json::num(42)),
            ("name", Json::str("fig3 \"quick\"\nline2")),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::num(1), Json::Num(2.5)])),
        ]);
        let text = v.encode();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert!(text.starts_with("{\"id\":42,"), "order preserved: {text}");
        assert!(text.contains("\\n"));
    }

    #[test]
    fn accessors_type_check() {
        let v = Json::parse(r#"{"id": 7, "p": -2, "s": "x", "b": false}"#).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("p").and_then(Json::as_i64), Some(-2));
        assert_eq!(v.get("p").and_then(Json::as_u64), None);
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Null.get("id"), None);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1, 2",
            "\"unterminated",
            "truth",
            "1e999",
            "{} trailing",
            "{\"a\": 1} {}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted malformed {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        for deep in [
            nested(MAX_DEPTH + 1),
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "[".repeat(100_000),
        ] {
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nested deeper"), "{err}");
        }
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let v = Json::parse(r#""tab\t quote\" u\u0041 slash\/""#).unwrap();
        assert_eq!(v.as_str(), Some("tab\t quote\" uA slash/"));
        let control = Json::Str("\u{1}".to_string()).encode();
        assert_eq!(control, "\"\\u0001\"");
        assert_eq!(Json::parse(&control).unwrap().as_str(), Some("\u{1}"));
    }
}
