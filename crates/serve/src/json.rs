//! A minimal, dependency-free JSON value: writer and reader.
//!
//! The serving layer speaks JSON over the wire without pulling serde into
//! the vendor tree, so this module hand-rolls the little that is needed —
//! with one property the server's determinism contract depends on: **the
//! writer is a pure function of the value**. Object members render in
//! insertion order (values store them as a `Vec`, never a hash map),
//! numbers render through Rust's shortest-round-trip `f64` formatting, and
//! non-finite numbers (which JSON cannot represent) render as `null`. Two
//! equal values therefore always serialize to the same bytes, which is
//! what lets integration tests byte-compare responses across servers.

use std::fmt;

/// A JSON document: the usual six shapes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite numbers serialize to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. NaN and ±∞ are representable in memory but render as
    /// `null` — tests pin this, since aggregate values can be NaN/Inf.
    Number(f64),
    /// An integer, rendered exactly. JSON numbers are arbitrary
    /// precision, so `i64` group keys above 2^53 must go over the wire
    /// through this variant, never rounded through `f64`.
    Int(i64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; members keep insertion order so rendering is
    /// deterministic.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn string(s: impl Into<String>) -> Json {
        Json::String(s.into())
    }

    /// A number from an unsigned counter. Counters in this workspace stay
    /// far below 2^53, so the `f64` carries them exactly.
    pub fn count(n: u64) -> Json {
        Json::Number(n as f64)
    }

    /// An object from `(name, value)` pairs, preserving order.
    pub fn object(members: Vec<(&str, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// `Some(v)` → encoded value, `None` → `null`.
    pub fn opt<T>(value: Option<T>, encode: impl FnOnce(T) -> Json) -> Json {
        value.map_or(Json::Null, encode)
    }

    /// Member of an object by name (first match), if this is an object.
    pub fn get(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number (`Int` loses precision
    /// above 2^53, like any JSON reader that goes through `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The integer payload, exact, if this is an integral number.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Number(n) => (n.fract() == 0.0 && *n >= i64::MIN as f64 && *n <= i64::MAX as f64)
                .then_some(*n as i64),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => (*v >= 0).then_some(*v as u64),
            Json::Number(n) => {
                (*n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64).then_some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Render into `out`. Compact form: no whitespace.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => {
                if n.is_finite() {
                    // Rust's shortest-round-trip formatting: deterministic,
                    // and `1.0` renders as `1`.
                    out.push_str(&format!("{n}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(v) => out.push_str(&format!("{v}")),
            Json::String(s) => write_escaped(s, out),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Exactly one value, with only whitespace
    /// around it, nested at most [`MAX_DEPTH`] arrays and objects deep;
    /// errors carry the byte offset they were detected at.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: what went wrong and the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// parser recurses once per level and a request body is hostile input: a
/// few kilobytes of `[` would otherwise overflow the worker's stack, which
/// aborts the process — no `catch_unwind` sees it.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(format!("unexpected character '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Parse one array or object, refusing the one that would open the
    /// `MAX_DEPTH + 1`-th level.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Plain integer literals parse exactly (so i64 keys round-trip
        // above 2^53); "-0" stays a float to preserve IEEE -0.0.
        if !text.contains(['.', 'e', 'E']) && text != "-0" {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::Int(v));
            }
        }
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| JsonError { offset: start, message: format!("invalid number '{text}'") })
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(code)
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            // hex4 advanced past the digits; compensate for
                            // the `pos += 1` below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unchanged.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let text = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let value = u32::from_str_radix(text, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos = end;
        Ok(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_renders_scalars() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Number(1.0).to_string(), "1");
        assert_eq!(Json::Number(1.5).to_string(), "1.5");
        assert_eq!(Json::Number(-0.25).to_string(), "-0.25");
        assert_eq!(Json::string("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn writer_renders_empty_aggregates() {
        // Empty result sets must render as empty containers, not fail.
        assert_eq!(Json::Array(vec![]).to_string(), "[]");
        assert_eq!(Json::Object(vec![]).to_string(), "{}");
        let empty_groups = Json::object(vec![("groups", Json::Array(vec![]))]);
        assert_eq!(empty_groups.to_string(), "{\"groups\":[]}");
    }

    #[test]
    fn writer_maps_non_finite_aggregate_values_to_null() {
        // Aggregates can legitimately produce NaN (0/0 ratio estimates) or
        // ±∞; JSON has no spelling for them, so they render as null.
        let values = Json::Array(vec![
            Json::Number(f64::NAN),
            Json::Number(f64::INFINITY),
            Json::Number(f64::NEG_INFINITY),
            Json::Number(2.0),
        ]);
        assert_eq!(values.to_string(), "[null,null,null,2]");
    }

    #[test]
    fn writer_escapes_strings() {
        assert_eq!(Json::string("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::string("\u{1}").to_string(), "\"\\u0001\"");
        // Non-ASCII passes through as UTF-8.
        assert_eq!(Json::string("café").to_string(), "\"café\"");
    }

    #[test]
    fn writer_preserves_member_order() {
        let obj =
            Json::object(vec![("z", Json::count(1)), ("a", Json::count(2)), ("m", Json::count(3))]);
        assert_eq!(obj.to_string(), "{\"z\":1,\"a\":2,\"m\":3}");
    }

    #[test]
    fn parser_round_trips() {
        let text = r#"{"sql":"SELECT 1","n":[1,2.5,-3e2,null,true,false],"nested":{"k":"v"}}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(value.get("sql").unwrap().as_str(), Some("SELECT 1"));
        assert_eq!(value.get("n").unwrap().as_array().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(
            value.to_string(),
            r#"{"sql":"SELECT 1","n":[1,2.5,-300,null,true,false],"nested":{"k":"v"}}"#
        );
    }

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let value = Json::parse(r#""a\"\\\n\t\u0041\u00e9""#).unwrap();
        assert_eq!(value.as_str(), Some("a\"\\\n\tAé"));
        // Surrogate pair → one astral-plane character.
        let value = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(value.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
    }

    #[test]
    fn parser_rejects_garbage_with_offsets() {
        for (text, offset) in [("", 0), ("{", 1), ("[1,]", 3), ("{\"a\" 1}", 5), ("1 2", 2)] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text:?}: {err}");
        }
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    /// `MAX_DEPTH` levels parse; one more is an error at the offset of the
    /// bracket that would open it, however much deeper the input goes
    /// (uncapped, the 100 KB inputs overflow the test thread's stack).
    #[test]
    fn parser_caps_nesting_depth() {
        let nest = |open: &str, close: &str, n: usize| open.repeat(n) + "1" + &close.repeat(n);
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            assert!(Json::parse(&nest(open, close, MAX_DEPTH)).is_ok());
            for bomb in [nest(open, close, MAX_DEPTH + 1), open.repeat(100_000 / open.len())] {
                let err = Json::parse(&bomb).unwrap_err();
                assert_eq!(err.offset, MAX_DEPTH * open.len(), "{err}");
            }
        }
    }

    #[test]
    fn accessors() {
        let value = Json::parse(r#"{"n":3,"b":true,"s":"x","neg":-1,"frac":1.5}"#).unwrap();
        assert_eq!(value.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(value.get("neg").unwrap().as_u64(), None);
        assert_eq!(value.get("frac").unwrap().as_u64(), None);
        assert_eq!(value.get("b").unwrap().as_bool(), Some(true));
        assert_eq!(value.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(value.get("missing"), None);
        assert_eq!(Json::Null.get("k"), None);
    }

    #[test]
    fn opt_encodes_none_as_null() {
        assert_eq!(Json::opt(Some(3u64), Json::count).to_string(), "3");
        assert_eq!(Json::opt(None::<u64>, Json::count).to_string(), "null");
    }
}
