//! A hand-rolled JSON value, parser and writer.
//!
//! The server speaks JSON on the wire but the workspace's dependency set is
//! std-only (the vendored `serde` is a marker shim), so — exactly like the
//! repo's hand-rolled INI config and CSV topology formats — JSON support is
//! implemented locally. Integers are kept exact (`i128`) rather than routed
//! through `f64`, because cycle counts are `u64` and must round-trip.

use std::fmt;

use scalesim_telemetry::JsonStr;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer written without fraction or exponent.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved so output is deterministic.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// A string node.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object node.
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

    /// The value as a `u64`, if integral and in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// A string, or a number's decimal text: a scalar as the text a
    /// `key=value` grammar reads.
    pub fn as_text(&self) -> Option<String> {
        match self {
            Json::Str(s) => Some(s.clone()),
            Json::Int(i) => Some(i.to_string()),
            Json::Float(f) => Some(f.to_string()),
            _ => None,
        }
    }

    /// The value as an `f64` (integers convert).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object pairs, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Parses a JSON document (the whole input must be one value).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }
}

const MAX_DEPTH: usize = 64;

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, what: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == what {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", what as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    if depth > MAX_DEPTH {
        return Err("document too deeply nested".into());
    }
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(bytes, pos, depth),
        Some(b'[') => parse_array(bytes, pos, depth),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth + 1)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth + 1)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        *pos += 4;
                        // Surrogate pairs are rejected rather than combined;
                        // the server never emits them.
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                    }
                    other => return Err(format!("invalid escape `\\{}`", *other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so this is safe).
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && (bytes[*pos] & 0xC0) == 0x80 {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..*pos]).expect("valid UTF-8"));
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut is_float = false;
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("ASCII number");
    if text.is_empty() || text == "-" {
        return Err(format!("invalid number at byte {start}"));
    }
    if is_float {
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| format!("invalid number `{text}`"))
    } else {
        text.parse::<i128>()
            .map(Json::Int)
            .map_err(|_| format!("invalid number `{text}`"))
    }
}

impl fmt::Display for Json {
    /// Compact (no whitespace) serialization; deterministic for identical
    /// values, which the cache relies on for byte-identical responses.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(i) => write!(f, "{i}"),
            Json::Float(x) if x.is_finite() => write!(f, "{x}"),
            Json::Float(_) => write!(f, "null"), // NaN/inf are not JSON
            Json::Str(s) => write!(f, "\"{}\"", JsonStr(s)),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "\"{}\":{v}", JsonStr(k))?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_document() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": null, "e": true}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        let reprinted = v.to_string();
        assert_eq!(Json::parse(&reprinted).unwrap(), v);
    }

    #[test]
    fn integers_round_trip_exactly() {
        let big = u64::MAX;
        let v = Json::parse(&format!("{{\"n\": {big}}}")).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(big));
        assert_eq!(v.to_string(), format!("{{\"n\":{big}}}"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "",
            "{\"a\":}",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn escapes_control_characters() {
        let v = Json::Str("a\"b\\c\u{0001}".into());
        assert_eq!(v.to_string(), r#""a\"b\\c\u0001""#);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }

    #[test]
    fn unicode_passes_through() {
        let v = Json::parse("\"héllo ✓\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo ✓"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
