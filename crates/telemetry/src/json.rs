//! The workspace's one JSON writer and its flat-object reader.
//!
//! The vendored `serde` stand-in provides only the trait markers — no
//! serializers (see `vendor/README.md`) — so every JSON text the crates
//! emit is built by [`JsonObject`]: the journal's one object per line and
//! the registry's nested dump. Fields are strings, unsigned integers,
//! floats, `u64` arrays and nested objects. Numbers are written with
//! Rust's shortest-round-trip formatting, so a decoded `f64` is
//! bit-identical to the encoded one; non-finite values (which plain JSON
//! cannot carry) are encoded as the strings `"inf"`, `"-inf"` and
//! `"nan"`, by [`JsonObject::field_f64`] alone.
//!
//! The reader, [`parse_object`], takes only the flat subset: one
//! non-nested object of string and scalar fields, which is all the
//! journal writes and `figures trace` reads back.

use std::fmt::Write as _;

/// Builder for one flat JSON object.
///
/// # Examples
///
/// ```
/// use nfv_telemetry::json::JsonObject;
/// let mut obj = JsonObject::new();
/// obj.field_str("event", "Admit").field_u64("request", 7);
/// assert_eq!(obj.finish(), r#"{"event":"Admit","request":7}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self { buf: String::new() }
    }

    fn key(&mut self, key: &str) -> &mut Self {
        if self.buf.is_empty() {
            self.buf.push('{');
        } else {
            self.buf.push(',');
        }
        self.buf.push('"');
        escape_into(&mut self.buf, key);
        self.buf.push_str("\":");
        self
    }

    /// Appends a string field.
    pub fn field_str(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push('"');
        escape_into(&mut self.buf, value);
        self.buf.push('"');
        self
    }

    /// Appends an unsigned integer field.
    pub fn field_u64(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Appends a float field with shortest-round-trip formatting.
    /// Non-finite values become the strings `"inf"`, `"-inf"`, `"nan"`.
    pub fn field_f64(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else if value.is_nan() {
            self.buf.push_str("\"nan\"");
        } else if value > 0.0 {
            self.buf.push_str("\"inf\"");
        } else {
            self.buf.push_str("\"-inf\"");
        }
        self
    }

    /// Appends an array of unsigned integers.
    pub fn field_u64s(&mut self, key: &str, values: impl IntoIterator<Item = u64>) -> &mut Self {
        self.key(key);
        self.buf.push('[');
        for (i, value) in values.into_iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            let _ = write!(self.buf, "{value}");
        }
        self.buf.push(']');
        self
    }

    /// Appends a nested object.
    pub fn field_object(&mut self, key: &str, value: JsonObject) -> &mut Self {
        self.key(key);
        self.buf.push_str(&value.finish());
        self
    }

    /// Closes the object and returns the rendered text.
    #[must_use]
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        if buf.is_empty() {
            buf.push('{');
        }
        buf.push('}');
        buf
    }
}

fn escape_into(buf: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
}

/// One decoded field value: a string, or the raw text of a non-string
/// scalar (number, `true`/`false`/`null`). Keeping the raw text lets
/// callers parse integers exactly instead of routing them through `f64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonValue {
    /// A decoded (unescaped) string.
    Str(String),
    /// The raw text of a number or keyword.
    Raw(String),
}

/// A malformed journal line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser objected to.
    pub message: &'static str,
    /// Byte offset of the objection.
    pub at: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid journal JSON at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses one flat JSON object into its `(key, value)` fields, in
/// document order. Nested objects/arrays are rejected — the journal
/// never emits them.
///
/// # Errors
///
/// [`JsonError`] describing the first malformed byte.
///
/// # Examples
///
/// ```
/// use nfv_telemetry::json::{parse_object, JsonValue};
/// let fields = parse_object(r#"{"event":"Admit","request":7}"#).unwrap();
/// assert_eq!(fields[0].1, JsonValue::Str("Admit".into()));
/// assert_eq!(fields[1].1, JsonValue::Raw("7".into()));
/// ```
pub fn parse_object(input: &str) -> Result<Vec<(String, JsonValue)>, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let err = |message, at| JsonError { message, at };
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    };
    skip_ws(&mut pos);
    if pos >= bytes.len() || bytes[pos] != b'{' {
        return Err(err("expected '{'", pos));
    }
    pos += 1;
    let mut fields = Vec::new();
    skip_ws(&mut pos);
    if pos < bytes.len() && bytes[pos] == b'}' {
        return finish_parse(input, pos + 1, fields);
    }
    loop {
        skip_ws(&mut pos);
        let key = parse_string(input, &mut pos)?;
        skip_ws(&mut pos);
        if pos >= bytes.len() || bytes[pos] != b':' {
            return Err(err("expected ':'", pos));
        }
        pos += 1;
        skip_ws(&mut pos);
        let value = if pos < bytes.len() && bytes[pos] == b'"' {
            JsonValue::Str(parse_string(input, &mut pos)?)
        } else {
            let start = pos;
            while pos < bytes.len() && !matches!(bytes[pos], b',' | b'}') {
                if matches!(bytes[pos], b'{' | b'[') {
                    return Err(err("nested values are not supported", pos));
                }
                pos += 1;
            }
            let raw = input[start..pos].trim();
            if raw.is_empty() {
                return Err(err("empty value", start));
            }
            JsonValue::Raw(raw.to_string())
        };
        fields.push((key, value));
        skip_ws(&mut pos);
        match bytes.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => return finish_parse(input, pos + 1, fields),
            _ => return Err(err("expected ',' or '}'", pos)),
        }
    }
}

fn finish_parse(
    input: &str,
    pos: usize,
    fields: Vec<(String, JsonValue)>,
) -> Result<Vec<(String, JsonValue)>, JsonError> {
    if input[pos..].trim().is_empty() {
        Ok(fields)
    } else {
        Err(JsonError {
            message: "trailing garbage after object",
            at: pos,
        })
    }
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = input.as_bytes();
    if *pos >= bytes.len() || bytes[*pos] != b'"' {
        return Err(JsonError {
            message: "expected '\"'",
            at: *pos,
        });
    }
    *pos += 1;
    let mut out = String::new();
    let mut chars = input[*pos..].char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((j, 'u')) => {
                    let hex = input[*pos..].get(j + 1..j + 5).ok_or(JsonError {
                        message: "truncated \\u escape",
                        at: *pos + j,
                    })?;
                    let code = u32::from_str_radix(hex, 16).map_err(|_| JsonError {
                        message: "bad \\u escape",
                        at: *pos + j,
                    })?;
                    out.push(char::from_u32(code).ok_or(JsonError {
                        message: "bad \\u code point",
                        at: *pos + j,
                    })?);
                    for _ in 0..4 {
                        chars.next();
                    }
                }
                _ => {
                    return Err(JsonError {
                        message: "bad escape",
                        at: *pos + i,
                    })
                }
            },
            c => out.push(c),
        }
    }
    Err(JsonError {
        message: "unterminated string",
        at: *pos,
    })
}

/// Looks up a string field.
#[must_use]
pub fn get_str<'a>(fields: &'a [(String, JsonValue)], key: &str) -> Option<&'a str> {
    fields.iter().find_map(|(k, v)| match v {
        JsonValue::Str(s) if k == key => Some(s.as_str()),
        _ => None,
    })
}

/// Looks up an unsigned integer field (exact, not via `f64`).
#[must_use]
pub fn get_u64(fields: &[(String, JsonValue)], key: &str) -> Option<u64> {
    fields.iter().find_map(|(k, v)| match v {
        JsonValue::Raw(raw) if k == key => raw.parse().ok(),
        _ => None,
    })
}

/// Looks up a float field; the strings `"inf"`, `"-inf"` and `"nan"`
/// decode to the corresponding non-finite values.
#[must_use]
pub fn get_f64(fields: &[(String, JsonValue)], key: &str) -> Option<f64> {
    fields.iter().find_map(|(k, v)| {
        if k != key {
            return None;
        }
        match v {
            JsonValue::Raw(raw) => raw.parse().ok(),
            JsonValue::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_renders_flat_objects() {
        let mut obj = JsonObject::new();
        obj.field_str("a", "x\"y\\z\n")
            .field_u64("b", u64::MAX)
            .field_f64("c", 0.1);
        assert_eq!(
            obj.finish(),
            r#"{"a":"x\"y\\z\n","b":18446744073709551615,"c":0.1}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for x in [
            0.1,
            1.0 / 3.0,
            1e-300,
            123_456.789_012_345,
            f64::MIN_POSITIVE,
        ] {
            let mut obj = JsonObject::new();
            obj.field_f64("x", x);
            let fields = parse_object(&obj.finish()).unwrap();
            assert_eq!(get_f64(&fields, "x").unwrap().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn non_finite_floats_become_tagged_strings() {
        let mut obj = JsonObject::new();
        obj.field_f64("a", f64::INFINITY)
            .field_f64("b", f64::NEG_INFINITY)
            .field_f64("c", f64::NAN);
        let text = obj.finish();
        assert_eq!(text, r#"{"a":"inf","b":"-inf","c":"nan"}"#);
        let fields = parse_object(&text).unwrap();
        assert_eq!(get_f64(&fields, "a"), Some(f64::INFINITY));
        assert_eq!(get_f64(&fields, "b"), Some(f64::NEG_INFINITY));
        assert!(get_f64(&fields, "c").unwrap().is_nan());
    }

    #[test]
    fn parser_round_trips_escapes_and_integers() {
        let mut obj = JsonObject::new();
        obj.field_str("s", "line1\nline2\ttab \"quoted\" \\slash")
            .field_u64("n", 9_007_199_254_740_993); // above 2^53: lossy via f64
        let fields = parse_object(&obj.finish()).unwrap();
        assert_eq!(
            get_str(&fields, "s"),
            Some("line1\nline2\ttab \"quoted\" \\slash")
        );
        assert_eq!(get_u64(&fields, "n"), Some(9_007_199_254_740_993));
    }

    #[test]
    fn parser_handles_unicode_escapes_and_whitespace() {
        let fields = parse_object(" { \"k\" : \"a\\u0007b\" , \"n\" : 3 } ").unwrap();
        assert_eq!(get_str(&fields, "k"), Some("a\u{7}b"));
        assert_eq!(get_u64(&fields, "n"), Some(3));
        assert!(parse_object("{}").unwrap().is_empty());
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "[1]",
            "{\"a\":}",
            "{\"a\":1",
            "{\"a\" 1}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":1}x",
            "{\"a\":\"unterminated}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
    }
}
