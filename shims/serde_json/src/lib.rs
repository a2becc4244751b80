//! Offline stand-in for the subset of `serde_json` this workspace uses:
//! `to_string` / `to_string_pretty` / `from_str` over the serde shim's
//! [`Content`] tree. String-keyed maps render as JSON objects; maps with
//! non-string keys render as arrays of `[key, value]` pairs (and parse back
//! through the map impls on the serde side).

use serde::{Content, DeError, Deserialize, Serialize};
use std::fmt;

#[derive(Debug)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Error {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Error {
        Error::new(e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&mut out, &value.to_content(), None, 0);
    Ok(out)
}

pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_content(&mut out, &value.to_content(), Some(2), 0);
    Ok(out)
}

pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    Ok(T::from_content(&parse(s)?)?)
}

pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(e.to_string()))?;
    from_str(s)
}

// ---------------------------------------------------------------------------
// Writer.

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
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        out.push_str(&format!("{v:?}"));
    } else {
        // JSON has no Inf/NaN; serialize as null like serde_json's
        // arbitrary-precision-off behaviour.
        out.push_str("null");
    }
}

fn write_content(out: &mut String, c: &Content, indent: Option<usize>, depth: usize) {
    match c {
        Content::Null => out.push_str("null"),
        Content::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Content::U64(v) => out.push_str(&v.to_string()),
        Content::I64(v) => out.push_str(&v.to_string()),
        Content::F64(v) => write_f64(out, *v),
        Content::Str(s) => write_escaped(out, s),
        Content::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    if indent.is_none() {
                        // compact: no space
                    }
                }
                newline_indent(out, indent, depth + 1);
                write_content(out, item, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Content::Map(entries) => {
            let all_str_keys = entries.iter().all(|(k, _)| matches!(k, Content::Str(_)));
            if all_str_keys {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, depth + 1);
                    write_content(out, k, indent, depth + 1);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_content(out, v, indent, depth + 1);
                }
                newline_indent(out, indent, depth);
                out.push('}');
            } else {
                // Non-string keys: array of [key, value] pairs.
                let as_seq = Content::Seq(
                    entries
                        .iter()
                        .map(|(k, v)| Content::Seq(vec![k.clone(), v.clone()]))
                        .collect(),
                );
                write_content(out, &as_seq, indent, depth);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parser.

/// Parse one JSON document into the serde shim's [`Content`] tree.
fn parse(s: &str) -> Result<Content> {
    let mut p = Parser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let content = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(content)
}

/// Deepest array/object nesting the parser accepts (the limit real
/// `serde_json` uses). Deeper input is an error, not a stack overflow.
const MAX_DEPTH: usize = 128;

/// A key that appears more than once among an object's entries.
fn duplicate_key(entries: &[(Content, Content)]) -> Option<&str> {
    let mut keys: Vec<&str> = entries.iter().filter_map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    keys.windows(2).find(|w| w[0] == w[1]).map(|w| w[0])
}

struct Parser<'a> {
    /// The input, valid UTF-8 by construction (`from_slice` validates it
    /// once up front); `bytes` is the same text.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Content> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_lit("null") {
                    Ok(Content::Null)
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_lit("true") {
                    Ok(Content::Bool(true))
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_lit("false") {
                    Ok(Content::Bool(false))
                } else {
                    Err(Error::new(format!("invalid literal at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.string().map(Content::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(Error::new(format!(
                        "recursion limit exceeded: nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    )));
                }
                self.pos += 1;
                self.depth += 1;
                let v = if open == b'[' { self.seq() } else { self.map() };
                self.depth -= 1;
                v
            }
            Some(_) => self.number(),
        }
    }

    /// The rest of an array whose `[` was consumed.
    fn seq(&mut self) -> Result<Content> {
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Content::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    /// The rest of an object whose `{` was consumed. A key that appears
    /// twice is an error: silently keeping one of the values would hide a
    /// typo'd or conflicting spec.
    fn map(&mut self) -> Result<Content> {
        let start = self.pos - 1;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            entries.push((Content::Str(key), val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    if let Some(key) = duplicate_key(&entries) {
                        return Err(Error::new(format!(
                            "duplicate key `{key}` in the object at byte {start}"
                        )));
                    }
                    return Ok(Content::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error::new("unterminated string")),
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run of plain characters up to the next quote
                    // or escape in one step. Both delimiters are ASCII, so
                    // the run ends on a character boundary of the text.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    out.push_str(&self.text[self.pos..self.pos + run]);
                    self.pos += run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Content> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if text.is_empty() || text == "-" {
            return Err(Error::new(format!("invalid number at byte {start}")));
        }
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_containers() {
        let v: Vec<(String, Option<f64>)> =
            vec![("a".into(), Some(1.5)), ("b\n\"x\"".into(), None)];
        let s = to_string_pretty(&v).unwrap();
        let back: Vec<(String, Option<f64>)> = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn u64_fidelity() {
        let v = u64::MAX;
        let s = to_string(&v).unwrap();
        let back: u64 = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<u64>("{").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
    }

    #[test]
    fn multibyte_and_escapes_roundtrip() {
        let v = "naïve ∑ 😀 \"q\" \\ tab\t nl\n ctl\u{1} é".to_string();
        let s = to_string(&v).unwrap();
        assert_eq!(from_str::<String>(&s).unwrap(), v);
        assert_eq!(from_slice::<String>(s.as_bytes()).unwrap(), v);
        // Escapes next to multibyte text, including a \u escape.
        let back: String = from_str("\"é\\u00e9\\n😀\"").unwrap();
        assert_eq!(back, "éé\n😀");
    }

    #[test]
    fn from_slice_rejects_invalid_utf8() {
        let bytes = b"\"ab\xff\xfecd\"".to_vec();
        let err = from_slice::<String>(&bytes).unwrap_err();
        let expected = std::str::from_utf8(&bytes).unwrap_err().to_string();
        assert_eq!(err.to_string(), expected);
        // A truncated multibyte sequence at the end is rejected too.
        assert!(from_slice::<String>(b"\"\xe2\x88").is_err());
    }

    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        // Unterminated, far deeper than any stack could recurse.
        let err = parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.to_string().contains("recursion limit"), "{err}");
        let objects = "{\"a\":".repeat(100_000);
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn duplicate_object_keys_are_rejected() {
        let err = parse(r#"{"a": 1, "b": 2, "a": 3}"#).unwrap_err();
        assert_eq!(err.to_string(), "duplicate key `a` in the object at byte 0");
        // Equal keys in different objects are fine.
        assert!(parse(r#"[{"a": 1}, {"a": 2}]"#).is_ok());
        // Escapes are resolved before comparing.
        assert!(parse(r#"{"a": 1, "\u0061": 2}"#).is_err());
    }

    #[test]
    fn megabyte_string_parses_in_linear_time() {
        // One ~1.3 MB literal: a per-character rescan of the remaining input
        // would take minutes; a linear scan takes milliseconds.
        let body = "ab∑".repeat(1 << 18);
        let json = format!("\"{body}\"");
        let start = std::time::Instant::now();
        let back: String = from_slice(json.as_bytes()).unwrap();
        let took = start.elapsed();
        assert_eq!(back, body);
        assert!(took.as_secs_f64() < 0.5, "1.3 MB string took {took:?}");
    }
}
