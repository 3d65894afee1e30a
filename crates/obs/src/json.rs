//! A minimal JSON document model: canonical serialization plus a small
//! recursive-descent parser.
//!
//! The repo vendors no serde, so the report's stable JSON encoding is
//! built by hand. Canonical form: objects keep their (fixed) insertion
//! order, numbers are emitted exactly as their stored decimal text
//! (reports only ever use unsigned integers — nanoseconds and counts —
//! so no float formatting is involved), strings are escaped with
//! [`hpcbd_simnet::json_escape`]. `parse(serialize(v)) == v` and
//! `serialize(parse(s))` is byte-stable, which is what the golden
//! round-trip test asserts.

use hpcbd_simnet::json_escape_into;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its decimal text so round-trips are exact.
    Num(String),
    /// A string (unescaped content).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object; insertion order is preserved and significant.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Convenience constructor for an unsigned integer.
    pub fn u64(v: u64) -> JsonValue {
        JsonValue::Num(v.to_string())
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(kvs) => kvs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Serialize to the canonical compact form.
    pub fn serialize(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Num(s) => out.push_str(s),
            JsonValue::Str(s) => {
                out.push('"');
                json_escape_into(out, s);
                out.push('"');
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            JsonValue::Obj(kvs) => {
                out.push('{');
                for (i, (k, v)) in kvs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    json_escape_into(out, k);
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Intended for validating and round-tripping
    /// the reports this crate itself emits; errors carry a byte offset.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut kvs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(kvs));
            }
            loop {
                skip_ws(b, pos);
                let k = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let v = parse_value(b, pos)?;
                kvs.push((k, v));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(kvs));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => {
            let start = *pos;
            if b.get(*pos) == Some(&b'-') {
                *pos += 1;
            }
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            if *pos == start {
                return Err(format!("unexpected character at byte {}", *pos));
            }
            let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            text.parse::<f64>()
                .map_err(|e| format!("bad number '{text}': {e}"))?;
            Ok(JsonValue::Num(text.to_string()))
        }
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8: copy the full scalar.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = b
                    .get(*pos..*pos + ch_len)
                    .ok_or("truncated UTF-8".to_string())?;
                out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                *pos += ch_len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_is_exact() {
        let v = JsonValue::Obj(vec![
            ("schema".into(), JsonValue::str("hpcbd.report.v1")),
            ("n".into(), JsonValue::u64(12345)),
            ("ok".into(), JsonValue::Bool(true)),
            (
                "arr".into(),
                JsonValue::Arr(vec![
                    JsonValue::u64(0),
                    JsonValue::str("a\"b\\c"),
                    JsonValue::Null,
                ]),
            ),
        ]);
        let s = v.serialize();
        let back = JsonValue::parse(&s).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.serialize(), s, "serialize∘parse must be byte-stable");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("{\"a\": }").is_err());
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("{} extra").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors_navigate_objects() {
        let v = JsonValue::parse(r#"{"a": {"b": [1, 2, 3]}}"#).unwrap();
        let arr = v.get("a").unwrap().get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_u64(), Some(3));
    }
}
