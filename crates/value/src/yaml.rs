//! YAML-subset parser for digi schemas and configuration files.
//!
//! The paper composes digis "declaratively via standard Kubernetes
//! configuration (yaml)" (§5.3); model schemas (§4.1) and reflex policies
//! (Fig. 3) are written in YAML. This module implements the subset those
//! files need:
//!
//! - block mappings and sequences by indentation,
//! - scalars: strings (plain, single- and double-quoted), numbers, booleans,
//!   `null`/`~`,
//! - comments (`#` to end of line),
//! - folded (`>`, `>-`) and literal (`|`, `|-`) block scalars, used by the
//!   `policy:` fields,
//! - flow-style collections (`{a: 1}`, `[1, 2]`) on a single line,
//! - `---` document start markers (ignored).
//!
//! Anchors, aliases, tags, and multi-document streams are intentionally not
//! supported; the reproduction does not use them.

use std::collections::BTreeMap;
use std::fmt;

use crate::name::Name;
use crate::value::Value;

/// Error produced when parsing unsupported or malformed YAML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YamlError {
    /// Human-readable description of the problem.
    pub message: String,
    /// 1-based line number where the problem was detected.
    pub line: usize,
}

impl fmt::Display for YamlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "yaml error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for YamlError {}

/// One significant line of the input.
#[derive(Debug)]
struct Line {
    /// Index into the original input (1-based) for error reporting.
    number: usize,
    indent: usize,
    /// Content with indentation stripped.
    text: String,
}

/// Parses a YAML document into a [`Value`].
///
/// # Examples
///
/// ```
/// let v = dspace_value::yaml::parse("
/// control:
///   power:
///     intent: on
///     status: off
/// obs:
///   objects: [person, dog]
/// ").unwrap();
/// assert_eq!(v.get_path("control.power.intent").and_then(|x| x.as_str()), Some("on"));
/// assert_eq!(v.get_path("obs.objects[1]").and_then(|x| x.as_str()), Some("dog"));
/// ```
pub fn parse(input: &str) -> Result<Value, YamlError> {
    let lines = split_lines(input);
    if lines.is_empty() {
        return Ok(Value::Null);
    }
    let mut pos = 0;
    let v = parse_block(&lines, &mut pos, lines[0].indent)?;
    if pos != lines.len() {
        return Err(YamlError {
            message: "trailing content after document".into(),
            line: lines[pos].number,
        });
    }
    Ok(v)
}

fn split_lines(input: &str) -> Vec<Line> {
    let mut out = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let without_comment = strip_comment(raw);
        let trimmed_end = without_comment.trim_end();
        if trimmed_end.trim().is_empty() {
            continue;
        }
        if trimmed_end.trim() == "---" {
            continue;
        }
        let indent = trimmed_end.len() - trimmed_end.trim_start().len();
        out.push(Line {
            number: i + 1,
            indent,
            text: trimmed_end.trim_start().to_string(),
        });
    }
    out
}

/// Strips a trailing `#` comment that is not inside quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_single = false;
    let mut in_double = false;
    for (idx, c) in line.char_indices() {
        match c {
            '\'' if !in_double => in_single = !in_single,
            '"' if !in_single => in_double = !in_double,
            '#' if !in_single && !in_double
                // Comments must be preceded by whitespace or start the line.
                && (idx == 0 || line[..idx].ends_with(char::is_whitespace)) =>
            {
                return &line[..idx];
            }
            _ => {}
        }
    }
    line
}

fn parse_block(lines: &[Line], pos: &mut usize, indent: usize) -> Result<Value, YamlError> {
    let line = &lines[*pos];
    if line.text.starts_with("- ") || line.text == "-" {
        parse_sequence(lines, pos, indent)
    } else if line.text.starts_with('{') || line.text.starts_with('[') {
        // A bare flow collection (e.g. a `{}` document).
        let v = parse_flow(&line.text, line.number)?;
        *pos += 1;
        Ok(v)
    } else {
        parse_mapping(lines, pos, indent)
    }
}

fn parse_sequence(lines: &[Line], pos: &mut usize, indent: usize) -> Result<Value, YamlError> {
    let mut items = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent != indent || !(line.text.starts_with("- ") || line.text == "-") {
            break;
        }
        let number = line.number;
        let rest = line.text[1..].trim_start().to_string();
        *pos += 1;
        if rest.is_empty() {
            // Item body is the following more-indented block.
            if *pos < lines.len() && lines[*pos].indent > indent {
                let inner_indent = lines[*pos].indent;
                items.push(parse_block(lines, pos, inner_indent)?);
            } else {
                items.push(Value::Null);
            }
        } else if rest.starts_with('{')
            || rest.starts_with('[')
            || rest.starts_with('"')
            || rest.starts_with('\'')
        {
            // A flow collection or quoted scalar item.
            items.push(parse_scalar(&rest, number)?);
        } else if rest.ends_with(':') || rest.contains(": ") {
            // Inline mapping entry beginning a block mapping item, e.g.
            // `- name: x` followed by more keys at deeper indentation.
            let virtual_indent = indent + 2;
            let mut synthetic = vec![Line {
                number,
                indent: virtual_indent,
                text: rest,
            }];
            while *pos < lines.len() && lines[*pos].indent >= virtual_indent {
                let l = &lines[*pos];
                synthetic.push(Line {
                    number: l.number,
                    indent: l.indent,
                    text: l.text.clone(),
                });
                *pos += 1;
            }
            let mut inner_pos = 0;
            let v = parse_mapping(&synthetic, &mut inner_pos, virtual_indent)?;
            items.push(v);
        } else {
            items.push(parse_scalar(&rest, number)?);
        }
    }
    Ok(Value::Array(items))
}

fn parse_mapping(lines: &[Line], pos: &mut usize, indent: usize) -> Result<Value, YamlError> {
    let mut map = BTreeMap::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent != indent {
            if line.indent > indent {
                return Err(YamlError {
                    message: "unexpected indentation".into(),
                    line: line.number,
                });
            }
            break;
        }
        let number = line.number;
        let (key, rest) = split_key(&line.text, number)?;
        *pos += 1;
        let value = if rest.is_empty() {
            if *pos < lines.len() && lines[*pos].indent > indent {
                let inner = lines[*pos].indent;
                parse_block(lines, pos, inner)?
            } else {
                Value::Null
            }
        } else if rest == ">" || rest == ">-" || rest == "|" || rest == "|-" {
            parse_block_scalar(
                lines,
                pos,
                indent,
                rest == ">" || rest == ">-",
                rest.ends_with('-'),
            )
        } else {
            parse_scalar(rest, number)?
        };
        map.insert(Name::from(key), value);
    }
    Ok(Value::Object(map.into()))
}

/// Splits `key: value` handling quoted keys and missing values.
fn split_key(text: &str, line: usize) -> Result<(String, &str), YamlError> {
    let (raw_key, rest) = if let Some(stripped) = text.strip_prefix('"') {
        let end = stripped.find('"').ok_or(YamlError {
            message: "unterminated quoted key".into(),
            line,
        })?;
        let key = &stripped[..end];
        let after = stripped[end + 1..].trim_start();
        let after = after.strip_prefix(':').ok_or(YamlError {
            message: "expected ':' after key".into(),
            line,
        })?;
        (key.to_string(), after)
    } else {
        let colon = find_key_colon(text).ok_or(YamlError {
            message: format!("expected 'key: value', got '{text}'"),
            line,
        })?;
        (text[..colon].trim().to_string(), &text[colon + 1..])
    };
    Ok((raw_key, rest.trim()))
}

/// Finds the colon terminating the key: the first `:` that is followed by
/// whitespace or ends the line, outside quotes and flow collections.
fn find_key_colon(text: &str) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut in_single = false;
    let mut in_double = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'\'' if !in_double => in_single = !in_single,
            b'"' if !in_single => in_double = !in_double,
            b'{' | b'[' if !in_single && !in_double => depth += 1,
            b'}' | b']' if !in_single && !in_double => depth = depth.saturating_sub(1),
            b':' if !in_single
                && !in_double
                && depth == 0
                && (i + 1 == bytes.len() || bytes[i + 1] == b' ') =>
            {
                return Some(i);
            }
            _ => {}
        }
    }
    None
}

fn parse_block_scalar(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    folded: bool,
    _strip: bool,
) -> Value {
    let mut parts: Vec<String> = Vec::new();
    while *pos < lines.len() && lines[*pos].indent > indent {
        parts.push(lines[*pos].text.clone());
        *pos += 1;
    }
    let sep = if folded { " " } else { "\n" };
    Value::Str(parts.join(sep))
}

/// Parses an inline scalar or flow collection.
fn parse_scalar(text: &str, line: usize) -> Result<Value, YamlError> {
    let t = text.trim();
    if t.starts_with('{') || t.starts_with('[') {
        return parse_flow(t, line);
    }
    if let Some(stripped) = t.strip_prefix('"') {
        // Reuse the JSON string parser for escapes.
        let json = format!("\"{}", stripped);
        return crate::json::parse(&json).map_err(|e| YamlError {
            message: format!("bad double-quoted string: {e}"),
            line,
        });
    }
    if let Some(stripped) = t.strip_prefix('\'') {
        let inner = stripped.strip_suffix('\'').ok_or(YamlError {
            message: "unterminated single-quoted string".into(),
            line,
        })?;
        return Ok(Value::Str(inner.replace("''", "'")));
    }
    Ok(plain_scalar(t))
}

/// Interprets an unquoted scalar with YAML's core-schema rules.
fn plain_scalar(t: &str) -> Value {
    match t {
        "null" | "~" | "" => return Value::Null,
        "true" | "True" => return Value::Bool(true),
        "false" | "False" => return Value::Bool(false),
        _ => {}
    }
    if let Ok(n) = t.parse::<f64>() {
        if (!t.contains(|c: char| c.is_alphabetic() && c != 'e' && c != 'E') || t == "inf")
            && n.is_finite()
        {
            return Value::Num(n);
        }
    }
    Value::Str(t.to_string())
}

/// Parses a single-line flow collection like `{a: 1, b: [2, 3]}`.
fn parse_flow(text: &str, line: usize) -> Result<Value, YamlError> {
    let mut p = FlowParser {
        chars: text.chars().collect(),
        pos: 0,
        line,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(YamlError {
            message: "trailing flow content".into(),
            line,
        });
    }
    Ok(v)
}

struct FlowParser {
    chars: Vec<char>,
    pos: usize,
    line: usize,
}

impl FlowParser {
    fn err<T>(&self, msg: &str) -> Result<T, YamlError> {
        Err(YamlError {
            message: msg.into(),
            line: self.line,
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.chars.get(self.pos), Some(' ') | Some('\t')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Value, YamlError> {
        self.skip_ws();
        match self.chars.get(self.pos) {
            Some('{') => self.map(),
            Some('[') => self.seq(),
            Some('\'') | Some('"') => {
                let quote = self.chars[self.pos];
                self.pos += 1;
                let mut s = String::new();
                while let Some(&c) = self.chars.get(self.pos) {
                    self.pos += 1;
                    if c == quote {
                        return Ok(Value::Str(s));
                    }
                    s.push(c);
                }
                self.err("unterminated string in flow collection")
            }
            Some(_) => {
                let start = self.pos;
                while let Some(&c) = self.chars.get(self.pos) {
                    if matches!(c, ',' | '}' | ']' | ':') {
                        break;
                    }
                    self.pos += 1;
                }
                let t: String = self.chars[start..self.pos].iter().collect();
                Ok(plain_scalar(t.trim()))
            }
            None => self.err("unexpected end of flow collection"),
        }
    }

    fn map(&mut self) -> Result<Value, YamlError> {
        self.pos += 1; // consume '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&'}') {
            self.pos += 1;
            return Ok(Value::Object(map.into()));
        }
        loop {
            self.skip_ws();
            let key = match self.value()? {
                Value::Str(s) => s,
                other => crate::json::to_string(&other),
            };
            self.skip_ws();
            if self.chars.get(self.pos) != Some(&':') {
                return self.err("expected ':' in flow mapping");
            }
            self.pos += 1;
            let v = self.value()?;
            map.insert(Name::from(key), v);
            self.skip_ws();
            match self.chars.get(self.pos) {
                Some(',') => {
                    self.pos += 1;
                }
                Some('}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map.into()));
                }
                _ => return self.err("expected ',' or '}' in flow mapping"),
            }
        }
    }

    fn seq(&mut self) -> Result<Value, YamlError> {
        self.pos += 1; // consume '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.get(self.pos) == Some(&']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.get(self.pos) {
                Some(',') => {
                    self.pos += 1;
                }
                Some(']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return self.err("expected ',' or ']' in flow sequence"),
            }
        }
    }
}

/// Serializes a [`Value`] as block-style YAML (2-space indentation).
///
/// The emitter targets the same subset [`parse`] accepts, so
/// `parse(to_string(v)) == v` for any value (strings that could be
/// misread as numbers/booleans/null are quoted).
pub fn to_string(value: &Value) -> String {
    let mut out = String::new();
    match value {
        Value::Object(_) | Value::Array(_) => emit_block(&mut out, value, 0),
        scalar => {
            out.push_str(&emit_scalar(scalar));
            out.push('\n');
        }
    }
    out
}

fn emit_block(out: &mut String, value: &Value, indent: usize) {
    let pad = "  ".repeat(indent);
    match value {
        Value::Object(map) if map.is_empty() => out.push_str(&format!("{pad}{{}}\n")),
        Value::Array(items) if items.is_empty() => out.push_str(&format!("{pad}[]\n")),
        Value::Object(map) => {
            for (k, v) in map {
                let key = emit_key(k);
                match v {
                    Value::Object(m) if !m.is_empty() => {
                        out.push_str(&format!("{pad}{key}:\n"));
                        emit_block(out, v, indent + 1);
                    }
                    Value::Array(a) if !a.is_empty() => {
                        out.push_str(&format!("{pad}{key}:\n"));
                        emit_block(out, v, indent + 1);
                    }
                    scalar => out.push_str(&format!("{pad}{key}: {}\n", emit_scalar(scalar))),
                }
            }
        }
        Value::Array(items) => {
            for item in items {
                match item {
                    Value::Object(m) if !m.is_empty() => {
                        // `- key: value` with the rest indented under it.
                        let mut first = true;
                        for (k, v) in m {
                            let lead = if first {
                                format!("{pad}- ")
                            } else {
                                format!("{pad}  ")
                            };
                            first = false;
                            let key = emit_key(k);
                            match v {
                                Value::Object(inner) if !inner.is_empty() => {
                                    out.push_str(&format!("{lead}{key}:\n"));
                                    emit_block(out, v, indent + 2);
                                }
                                Value::Array(inner) if !inner.is_empty() => {
                                    out.push_str(&format!("{lead}{key}:\n"));
                                    emit_block(out, v, indent + 2);
                                }
                                scalar => {
                                    out.push_str(&format!("{lead}{key}: {}\n", emit_scalar(scalar)))
                                }
                            }
                        }
                    }
                    Value::Array(_) => {
                        // Nested arrays: fall back to flow style.
                        out.push_str(&format!("{pad}- {}\n", crate::json::to_string(item)));
                    }
                    scalar => out.push_str(&format!("{pad}- {}\n", emit_scalar(scalar))),
                }
            }
        }
        scalar => out.push_str(&format!("{pad}{}\n", emit_scalar(scalar))),
    }
}

fn emit_key(k: &str) -> String {
    if k.is_empty() || k.contains([':', '#', '"', '\n']) || k.trim() != k {
        crate::json::to_string(&Value::Str(k.to_string()))
    } else {
        k.to_string()
    }
}

fn emit_scalar(v: &Value) -> String {
    match v {
        Value::Null => "null".to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Num(_) => crate::json::to_string(v),
        Value::Str(s) => {
            let needs_quotes = s.is_empty()
                || matches!(
                    s.as_str(),
                    "null" | "~" | "true" | "false" | "True" | "False"
                )
                || s.trim() != s
                || s.parse::<f64>().is_ok()
                || s.contains(|c: char| {
                    matches!(
                        c,
                        ':' | '#' | '{' | '[' | ']' | '}' | '"' | '\'' | '\n' | ','
                    )
                })
                || s.starts_with('-')
                || s.starts_with('>')
                || s.starts_with('|')
                || s.starts_with('&')
                || s.starts_with('*');
            if needs_quotes {
                crate::json::to_string(v)
            } else {
                s.clone()
            }
        }
        other => crate::json::to_string(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_lamp_model() {
        // The Lamp digivice model from Fig. 1b of the paper.
        let v = parse(
            "
meta:
  kind: UniLamp
  name: ul1
  namespace: default
control:
  power:
    intent: \"on\"
    status: \"off\"
  brightness:
    intent: 0.3
    status: 0.3
obs:
  reason: DISCONNECT
",
        )
        .unwrap();
        assert_eq!(
            v.get_path("meta.kind").and_then(|x| x.as_str()),
            Some("UniLamp")
        );
        assert_eq!(
            v.get_path("control.brightness.intent")
                .and_then(|x| x.as_f64()),
            Some(0.3)
        );
        assert_eq!(
            v.get_path("obs.reason").and_then(|x| x.as_str()),
            Some("DISCONNECT")
        );
    }

    #[test]
    fn parse_reflex_policy_fig3() {
        // Fig. 3 of the paper: folded block scalar for the jq policy.
        let v = parse(
            "
reflex:
  motion-brightness:
    policy: >-
      if $time - .motion.obs.last_triggered_time <= 600
      then .control.brightness.intent = 1 else . end
    priority: 1
    processor: jq
",
        )
        .unwrap();
        let policy = v
            .get_path("reflex.motion-brightness.policy")
            .and_then(|x| x.as_str())
            .unwrap();
        assert!(policy.starts_with("if $time"));
        assert!(policy.ends_with("else . end"));
        assert!(!policy.contains('\n'));
        assert_eq!(
            v.get_path("reflex.motion-brightness.priority")
                .and_then(|x| x.as_f64()),
            Some(1.0)
        );
    }

    #[test]
    fn parse_sequences() {
        let v = parse(
            "
rooms:
  - name: bedroom
    lamps: 2
  - name: kitchen
    lamps: 1
tags: [a, b, 3]
",
        )
        .unwrap();
        assert_eq!(
            v.get_path("rooms[1].name").and_then(|x| x.as_str()),
            Some("kitchen")
        );
        assert_eq!(v.get_path("tags[2]").and_then(|x| x.as_f64()), Some(3.0));
    }

    #[test]
    fn parse_flow_map() {
        let v = parse("mount:\n  unilamp:\n    ul1: {mode: expose, status: active}\n").unwrap();
        assert_eq!(
            v.get_path("mount.unilamp.ul1.mode")
                .and_then(|x| x.as_str()),
            Some("expose")
        );
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let v = parse("# header\n\na: 1 # trailing\nb: \"#notacomment\"\n").unwrap();
        assert_eq!(v.get_path("a").and_then(|x| x.as_f64()), Some(1.0));
        assert_eq!(
            v.get_path("b").and_then(|x| x.as_str()),
            Some("#notacomment")
        );
    }

    #[test]
    fn literal_block_scalar_keeps_newlines() {
        let v = parse("script: |\n  line1\n  line2\n").unwrap();
        assert_eq!(
            v.get_path("script").and_then(|x| x.as_str()),
            Some("line1\nline2")
        );
    }

    #[test]
    fn scalar_types() {
        let v = parse("a: true\nb: null\nc: ~\nd: 1.5\ne: hello world\nf: 'quoted'\n").unwrap();
        assert_eq!(v.get_path("a").and_then(|x| x.as_bool()), Some(true));
        assert!(v.get_path("b").unwrap().is_null());
        assert!(v.get_path("c").unwrap().is_null());
        assert_eq!(v.get_path("d").and_then(|x| x.as_f64()), Some(1.5));
        assert_eq!(
            v.get_path("e").and_then(|x| x.as_str()),
            Some("hello world")
        );
        assert_eq!(v.get_path("f").and_then(|x| x.as_str()), Some("quoted"));
    }

    #[test]
    fn document_marker_ignored() {
        let v = parse("---\na: 1\n").unwrap();
        assert_eq!(v.get_path("a").and_then(|x| x.as_f64()), Some(1.0));
    }

    #[test]
    fn rejects_bad_indent() {
        assert!(parse("a: 1\n   b: 2\n").is_err());
    }

    #[test]
    fn empty_input_is_null() {
        assert!(parse("").unwrap().is_null());
        assert!(parse("\n# only a comment\n").unwrap().is_null());
    }

    #[test]
    fn emit_roundtrips_model_documents() {
        let v = crate::json::parse(
            r#"{
                "meta": {"kind": "Room", "name": "lvroom", "gen": 3},
                "control": {"brightness": {"intent": 0.5, "status": null},
                             "power": {"intent": "on", "status": "off"}},
                "obs": {"objects": ["person", "dog"], "empty": [], "none": {}},
                "notes": ["plain", "with: colon", "123", "true", "-dash"],
                "rooms": [{"name": "a", "lamps": 2}, {"name": "b", "lamps": 1}]
            }"#,
        )
        .unwrap();
        let text = to_string(&v);
        let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back, v, "roundtrip failed:\n{text}");
    }

    #[test]
    fn emit_scalars_quote_ambiguity() {
        assert_eq!(emit_scalar(&Value::Str("on".into())), "on");
        assert_eq!(emit_scalar(&Value::Str("true".into())), "\"true\"");
        assert_eq!(emit_scalar(&Value::Str("3.5".into())), "\"3.5\"");
        assert_eq!(emit_scalar(&Value::Str("a: b".into())), "\"a: b\"");
        assert_eq!(emit_scalar(&Value::Null), "null");
        assert_eq!(emit_scalar(&Value::Bool(false)), "false");
    }

    #[test]
    fn emit_top_level_scalar_and_list() {
        assert_eq!(to_string(&Value::Num(5.0)), "5\n");
        let v = crate::json::parse(r#"[1, "two"]"#).unwrap();
        assert_eq!(parse(&to_string(&v)).unwrap(), v);
    }

    #[test]
    fn url_values_stay_strings() {
        let v = parse("data:\n  input:\n    url: rtsp://10.0.0.2/stream\n").unwrap();
        assert_eq!(
            v.get_path("data.input.url").and_then(|x| x.as_str()),
            Some("rtsp://10.0.0.2/stream")
        );
    }
}
