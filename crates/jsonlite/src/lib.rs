#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # jsonlite
//!
//! A dependency-free codec for the strict JSON subset used throughout
//! the workspace: objects, arrays, strings, unsigned integers, and
//! booleans. The build container cannot fetch serde, so both the
//! golden-number files (`mosaic-bench`) and the service wire protocol
//! (`mosaic-serve`) share this one hand-rolled serializer and
//! recursive-descent parser — one escaping bug surface instead of two.
//!
//! The writer emits exactly the grammar the parser accepts, and object
//! key order is preserved (insertion order), so `parse(write(v)) == v`
//! and serialized forms are deterministic — a property the
//! content-addressed result cache in `mosaic-serve` relies on.

pub mod frame;

use std::fmt::Write as _;

/// A JSON value in the workspace subset grammar.
///
/// Numbers are unsigned 64-bit integers only: every quantity the
/// workspace serializes (cycles, instructions, counters, millisecond
/// latencies) is a `u64`, and exact integers keep golden files and
/// cache digests bit-stable across platforms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `{...}` with insertion-ordered fields.
    Object(Vec<(String, Json)>),
    /// `[...]`.
    Array(Vec<Json>),
    /// `"..."`.
    String(String),
    /// Unsigned integer.
    Number(u64),
    /// `true` / `false`.
    Bool(bool),
}

/// Deepest container nesting [`Json::parse`] accepts. The parser
/// recurses once per open `{`/`[`, so an unbounded depth lets one line
/// of `[[[[…` overflow a daemon thread's stack. The deepest document
/// the workspace writes (the calibration table) nests 5 levels.
pub const MAX_DEPTH: usize = 128;

impl Json {
    /// Parse a complete document; trailing non-whitespace is an error,
    /// and so is nesting deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Serialize compactly (single line, no spaces after `,`/`:`).
    /// Deterministic: field order is preserved as built.
    pub fn write(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out);
        out
    }

    fn write_into(&self, out: &mut String) {
        match self {
            Json::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&escape(k));
                    out.push(':');
                    v.write_into(out);
                }
                out.push('}');
            }
            Json::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_into(out);
                }
                out.push(']');
            }
            Json::String(s) => out.push_str(&escape(s)),
            Json::Number(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
        }
    }

    /// Start building an object (see [`ObjBuilder`]).
    pub fn obj() -> ObjBuilder {
        ObjBuilder(Vec::new())
    }

    /// View as an object; `what` names the context for the error.
    pub fn as_object(&self, what: &str) -> Result<ObjectView<'_>, String> {
        match self {
            Json::Object(fields) => Ok(ObjectView(fields)),
            other => Err(format!("{what}: expected object, got {other:?}")),
        }
    }

    /// View as an array slice; `what` names the context for the error.
    pub fn as_array(&self, what: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(a) => Ok(a),
            other => Err(format!("{what}: expected array, got {other:?}")),
        }
    }

    /// Clone out a string value.
    pub fn as_string(&self) -> Result<String, String> {
        match self {
            Json::String(s) => Ok(s.clone()),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    /// Read a number value.
    pub fn as_u64(&self) -> Result<u64, String> {
        match self {
            Json::Number(n) => Ok(*n),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    /// Read a boolean value.
    pub fn as_bool(&self) -> Result<bool, String> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, got {other:?}")),
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Number(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

/// Fluent object builder preserving field insertion order:
/// `Json::obj().field("type", "submit").field("cap", 8u64).build()`.
#[derive(Debug, Default)]
pub struct ObjBuilder(Vec<(String, Json)>);

impl ObjBuilder {
    /// Append one field.
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Finish into a [`Json::Object`].
    pub fn build(self) -> Json {
        Json::Object(self.0)
    }
}

/// A borrowed view over [`Json::Object`] fields adding keyed lookup.
#[derive(Clone, Copy)]
pub struct ObjectView<'a>(&'a [(String, Json)]);

impl ObjectView<'_> {
    /// The field `name`, or an error naming the enclosing `what`.
    pub fn get(&self, name: &str, what: &str) -> Result<&Json, String> {
        self.opt(name)
            .ok_or_else(|| format!("{what}: missing field {name:?}"))
    }

    /// The field `name` if present.
    pub fn opt(&self, name: &str) -> Option<&Json> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Field names in serialization order (objects keep insertion
    /// order; no sorting, no dedup).
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|(k, _)| k.as_str())
    }
}

/// Quote and escape `s` as a JSON string literal (the one escaping
/// routine in the workspace — golden files and the wire protocol both
/// go through here).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            ch as char,
            *pos,
            b.get(*pos).map(|&c| c as char)
        ))
    }
}

/// Parse one value; `depth` counts the containers already open around
/// it.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                let value = parse_value(b, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Object(fields));
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Array(items));
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        Some(b'"') => Ok(Json::String(parse_string(b, pos)?)),
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .expect("ASCII digits are valid UTF-8")
                .parse()
                .map(Json::Number)
                .map_err(|e| format!("bad number at byte {start}: {e}"))
        }
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        // `from_str_radix` alone would also take a sign
                        // (`\u+0e9`).
                        if !hex.iter().all(u8::is_ascii_hexdigit) {
                            return Err("bad \\u escape".to_string());
                        }
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u escape".to_string())?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let ch_len = utf8_len(c);
                let chunk = b
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated UTF-8".to_string())?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj()
            .field("name", "PR-\"email\"\n")
            .field("count", 42u64)
            .field("ok", true)
            .field("items", vec![Json::Number(1), Json::String("héllo".into())])
            .field("empty_obj", Json::Object(Vec::new()))
            .field("empty_arr", Json::Array(Vec::new()))
            .build()
    }

    #[test]
    fn write_parse_round_trips_exactly() {
        let v = sample();
        assert_eq!(Json::parse(&v.write()).unwrap(), v);
    }

    #[test]
    fn write_is_deterministic_and_order_preserving() {
        let v = Json::obj().field("b", 1u64).field("a", 2u64).build();
        assert_eq!(v.write(), "{\"b\":1,\"a\":2}");
        assert_eq!(v.write(), v.write());
    }

    #[test]
    fn escape_covers_quotes_backslashes_and_control() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn parser_accepts_whitespace_and_multiline_forms() {
        let v = Json::parse("{\n  \"a\": [1, 2],\n  \"b\": {\"c\": true}\n}\n").unwrap();
        let obj = v.as_object("top").unwrap();
        assert_eq!(obj.get("a", "top").unwrap().as_array("a").unwrap().len(), 2);
    }

    #[test]
    fn accessors_report_context_on_type_mismatch() {
        let v = Json::parse("{\"a\": 1}").unwrap();
        let top = v.as_object("top").unwrap();
        let num = top.opt("a").unwrap();
        assert!(num.as_string().is_err());
        assert!(v.as_array("top").unwrap_err().contains("top"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1, 2] trailing").is_err());
        assert!(Json::parse("-1").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Objects count too, and a 1 MB unterminated line is refused
        // at the limit rather than recursed into.
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
        assert!(Json::parse(&"[".repeat(1 << 20))
            .unwrap_err()
            .contains("nesting"));
    }

    #[test]
    fn object_view_get_names_missing_fields() {
        let v = Json::parse("{\"a\": 1}").unwrap();
        let err = v.as_object("top").unwrap().get("zzz", "top").unwrap_err();
        assert!(err.contains("zzz"), "{err}");
    }
}
