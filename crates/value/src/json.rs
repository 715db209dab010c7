//! Self-contained JSON parser and serializer for [`Value`].
//!
//! Implemented in-repo so the reproduction has no external serialization
//! dependencies; the grammar is standard JSON (RFC 8259) with the usual
//! `\uXXXX` escapes, and numbers are parsed as IEEE-754 doubles to match
//! jq semantics.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::name::Name;
use crate::value::Value;

/// Error produced when parsing malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the problem.
    pub message: String,
    /// Byte offset where the problem was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            message: msg.into(),
            offset: self.pos,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.peek() {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn parse_value(&mut self) -> Result<Value, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.parse_number(),
            Some(b) => self.err(format!("unexpected character '{}'", b as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_keyword(&mut self, kw: &str, val: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(val)
        } else {
            self.err(format!("expected keyword '{kw}'"))
        }
    }

    fn parse_object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map.into()));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(Name::from(key), value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(map.into())),
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return self.err("unterminated string"),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.parse_hex4()?;
                        // Handle surrogate pairs.
                        if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return self.err("unpaired surrogate");
                            }
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return self.err("invalid low surrogate");
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                            out.push(char::from_u32(c).ok_or(JsonError {
                                message: "invalid codepoint".into(),
                                offset: self.pos,
                            })?);
                        } else {
                            out.push(char::from_u32(cp).ok_or(JsonError {
                                message: "invalid codepoint".into(),
                                offset: self.pos,
                            })?);
                        }
                    }
                    _ => return self.err("invalid escape"),
                },
                Some(b) if b < 0x20 => return self.err("control character in string"),
                Some(b) => {
                    // Re-assemble UTF-8 multibyte sequences.
                    if b < 0x80 {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        let width = utf8_width(b);
                        let end = start + width;
                        if end > self.bytes.len() {
                            return self.err("truncated utf-8");
                        }
                        let s = std::str::from_utf8(&self.bytes[start..end]).map_err(|_| {
                            JsonError {
                                message: "invalid utf-8".into(),
                                offset: start,
                            }
                        })?;
                        out.push_str(s);
                        self.pos = end;
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or(JsonError {
                message: "truncated \\u escape".into(),
                offset: self.pos,
            })?;
            let d = (b as char).to_digit(16).ok_or(JsonError {
                message: "invalid hex digit".into(),
                offset: self.pos,
            })?;
            cp = cp * 16 + d;
        }
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b) if b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Value::Num).map_err(|_| JsonError {
            message: format!("invalid number '{text}'"),
            offset: start,
        })
    }
}

fn utf8_width(b: u8) -> usize {
    if b >= 0xF0 {
        4
    } else if b >= 0xE0 {
        3
    } else {
        2
    }
}

/// Parses a JSON document into a [`Value`].
///
/// # Examples
///
/// ```
/// let v = dspace_value::json::parse(r#"{"a": [1, true, "x"]}"#).unwrap();
/// assert_eq!(v.get_path("a[2]").and_then(|x| x.as_str()), Some("x"));
/// ```
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing characters after document");
    }
    Ok(v)
}

/// Serializes a [`Value`] to compact JSON.
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, None, 0);
    out
}

/// Appends the compact serialization of `value` to `out`. The allocation-
/// free sibling of [`to_string`] for callers assembling larger documents
/// (the store's journal builds whole records in one buffer).
pub fn write_to(out: &mut String, value: &Value) {
    write_value(out, value, None, 0);
}

/// Appends `s` serialized as a JSON string (quotes and escapes included)
/// to `out`.
pub fn write_str_to(out: &mut String, s: &str) {
    write_string(out, s);
}

/// Appends the escaped body of `s` — no surrounding quotes — for callers
/// assembling a JSON string literal from several pieces (the store's
/// journal renders attribute paths segment by segment).
pub fn write_str_body_to(out: &mut String, s: &str) {
    write_string_body(out, s);
}

/// Serializes a [`Value`] to pretty-printed JSON with two-space indentation.
pub fn to_string_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(out, *n),
        Value::Str(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, v, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..depth * width {
            out.push(' ');
        }
    }
}

fn write_number(out: &mut String, n: f64) {
    if n.is_nan() {
        // JSON cannot represent NaN; render it as null like jq does.
        out.push_str("null");
    } else if n.is_infinite() {
        // Infinities round-trip: "1e999" overflows f64 parsing back to
        // ±inf, so serialize → parse preserves the value (jq's own trick).
        out.push_str(if n > 0.0 { "1e999" } else { "-1e999" });
    } else if n == n.trunc() && n.abs() < 1e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    write_string_body(out, s);
    out.push('"');
}

fn write_string_body(out: &mut String, s: &str) {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        for s in ["null", "true", "false", "0", "-1.5", "1e3", "\"hi\""] {
            let v = parse(s).unwrap();
            let back = parse(&to_string(&v)).unwrap();
            assert_eq!(v, back, "roundtrip failed for {s}");
        }
    }

    #[test]
    fn non_finite_numbers_serialize_parseable() {
        // NaN has no JSON spelling; it degrades to null. Infinities must
        // round-trip exactly: the overflow literal parses back to ±inf.
        assert_eq!(to_string(&Value::Num(f64::NAN)), "null");
        assert_eq!(to_string(&Value::Num(f64::INFINITY)), "1e999");
        assert_eq!(to_string(&Value::Num(f64::NEG_INFINITY)), "-1e999");
        for v in [Value::Num(f64::INFINITY), Value::Num(f64::NEG_INFINITY)] {
            let s = to_string(&v);
            assert_eq!(parse(&s).unwrap(), v, "infinity roundtrip via {s}");
        }
    }

    #[test]
    fn large_integers_roundtrip_exactly() {
        // Past 2^53 not every u64 is representable, but every f64 the
        // codec can hold must survive serialize → parse bit-for-bit.
        for n in [
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(60),
            f64::MAX,
            -4.9e-324, // smallest subnormal
        ] {
            let s = to_string(&Value::Num(n));
            let back = parse(&s).unwrap();
            assert_eq!(back, Value::Num(n), "roundtrip failed for {s}");
        }
    }

    #[test]
    fn parse_nested() {
        let v = parse(r#"{"a": {"b": [1, 2, {"c": null}]}}"#).unwrap();
        assert!(v.get_path("a.b[2].c").unwrap().is_null());
    }

    #[test]
    fn parse_string_escapes() {
        let v = parse(r#""line\nbreak A \"q\" \\ é""#).unwrap();
        assert_eq!(v.as_str(), Some("line\nbreak A \"q\" \\ é"));
    }

    #[test]
    fn parse_surrogate_pair() {
        let v = parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parse_unicode_literal() {
        let v = parse(r#"{"name": "café ☕"}"#).unwrap();
        assert_eq!(v.get_path("name").and_then(|x| x.as_str()), Some("café ☕"));
    }

    #[test]
    fn rejects_malformed() {
        for s in ["{", "[1,", "{\"a\" 1}", "tru", "\"abc", "1 2", "{'a':1}"] {
            assert!(parse(s).is_err(), "should reject {s}");
        }
    }

    #[test]
    fn integers_render_without_decimal() {
        assert_eq!(to_string(&Value::Num(3.0)), "3");
        assert_eq!(to_string(&Value::Num(3.25)), "3.25");
    }

    #[test]
    fn pretty_print_is_parseable_and_indented() {
        let v = parse(r#"{"a": [1, 2], "b": {"c": true}}"#).unwrap();
        let pretty = to_string_pretty(&v);
        assert!(pretty.contains("\n  \"a\""));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn object_keys_sorted_deterministically() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        assert_eq!(to_string(&v), r#"{"a":2,"z":1}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(to_string(&parse("[]").unwrap()), "[]");
        assert_eq!(to_string(&parse("{}").unwrap()), "{}");
    }
}
